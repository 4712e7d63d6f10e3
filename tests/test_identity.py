import dataclasses
import hashlib
import json
import threading

import numpy as np
import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec

from proxichain import identity
from proxichain.identity import (
    _CURVE,
    _CURVE_ORDER,
    AuthorizationError,
    AuthorizedRegistry,
    NodeIdentity,
    RegistryValidationError,
    Role,
    SigningCapabilityError,
    generate_identity,
    node_id_for,
    publish_registry,
    registry_signing_bytes,
    registry_to_json,
    sign,
    verify,
    verify_many,
)


def test_seeded_generation_is_reproducible():
    a = generate_identity(Role.LIGHT, seed=7)
    b = generate_identity(Role.LIGHT, seed=7)
    assert a.node_id == b.node_id
    assert a.public_key == b.public_key


def test_distinct_seeds_give_distinct_ids():
    a = generate_identity(Role.MANAGER, seed=1)
    b = generate_identity(Role.MANAGER, seed=2)
    assert a.node_id != b.node_id


def test_node_id_is_sha256_of_public_key():
    ident = generate_identity(Role.LIGHT)
    assert ident.node_id == hashlib.sha256(ident.public_key).digest()
    assert len(ident.node_id) == 32


def test_mismatched_node_id_rejected_at_construction():
    ident = generate_identity(Role.LIGHT, seed=3)
    with pytest.raises(ValueError):
        NodeIdentity(node_id=bytes(32), public_key=ident.public_key, role=Role.LIGHT)


def test_sign_verify_roundtrip():
    ident = generate_identity(Role.LIGHT, seed=11)
    message = b"advertise:" + ident.node_id
    assert verify(ident.public_key, message, sign(ident, message))


def test_tampered_message_fails_verification():
    ident = generate_identity(Role.LIGHT, seed=11)
    message = bytearray(b"some payload bytes")
    sig = sign(ident, bytes(message))
    message[3] ^= 0x01
    assert not verify(ident.public_key, bytes(message), sig)


def test_wrong_key_fails_verification():
    a = generate_identity(Role.LIGHT, seed=1)
    b = generate_identity(Role.LIGHT, seed=2)
    sig = sign(a, b"msg")
    assert not verify(b.public_key, b"msg", sig)


def test_signing_needs_secret_key():
    full = generate_identity(Role.LIGHT, seed=4)
    ident = NodeIdentity(full.node_id, full.public_key, full.role)
    assert ident.secret_key is None
    with pytest.raises(SigningCapabilityError):
        sign(ident, b"nope")


def test_curve_is_p256():
    # A seed maps to a scalar mod (order - 1), so an order constant left at
    # another curve's value would fail on too few seeds for any other test
    # to notice.
    ec.derive_private_key(_CURVE_ORDER - 1, _CURVE)
    with pytest.raises(ValueError):
        ec.derive_private_key(_CURVE_ORDER, _CURVE)
    assert generate_identity(Role.LIGHT, seed=12).secret_key.curve.name == "secp256r1"


def test_signature_is_deterministic():
    ident = generate_identity(Role.AUTHORIZED, seed=9)
    assert sign(ident, b"same message") == sign(ident, b"same message")


def test_random_bit_perturbations_all_fail():
    """Flipping any single bit of message or signature must break verification."""
    rng = np.random.default_rng(42)
    ident = generate_identity(Role.LIGHT, seed=20)
    message = bytes(rng.integers(0, 256, size=64, dtype=np.uint8))
    sig = sign(ident, message)

    for _ in range(60):
        m = bytearray(message)
        m[int(rng.integers(len(m)))] ^= 1 << int(rng.integers(8))
        assert not verify(ident.public_key, bytes(m), sig)

    for _ in range(60):
        s = bytearray(sig)
        s[int(rng.integers(len(s)))] ^= 1 << int(rng.integers(8))
        assert not verify(ident.public_key, message, bytes(s))


def _as_job(public_key: bytes, message: bytes, signature: bytes) -> tuple[bytes, bytes, bytes]:
    """A ``verify_many`` job: the message replaced by its SHA-256 digest."""
    return public_key, hashlib.sha256(message).digest(), signature


def _checked_on_the_message(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """``cryptography`` verifying the message itself, with no digest step of
    ours in between."""
    try:
        key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), public_key)
        key.verify(signature, message, ec.ECDSA(hashes.SHA256()))
    except (InvalidSignature, ValueError):
        return False
    return True


class TestDigestPath:
    """Jobs carry the SHA-256 of the signed message; every verdict must be
    the one ``cryptography`` gives on the message."""

    @staticmethod
    def _cases():
        a, b = (generate_identity(Role.LIGHT, seed=60 + k) for k in range(2))
        cases = {}
        for k in range(4):
            message = bytes([k]) * (1 + 700 * k)
            cases[f"valid-{k}"] = (a.public_key, message, sign(a, message))
        pk, message, sig = cases["valid-1"]
        flipped = bytearray(sig)
        flipped[len(flipped) // 2] ^= 0x01
        cases["flipped-signature"] = (pk, message, bytes(flipped))
        cases["flipped-message"] = (pk, message[:-1] + bytes([message[-1] ^ 0x80]), sig)
        cases["wrong-key"] = (b.public_key, message, sig)
        cases["unparseable-key"] = (b"\x02" + b"\xff" * 32, message, sig)
        cases["short-key"] = (pk[:20], message, sig)
        cases["non-der-signature"] = (pk, message, b"\x30\x02\x01")
        cases["raw-r-s-signature"] = (pk, message, b"\x01" * 64)
        return cases

    def test_cases_cover_both_verdicts(self):
        verdicts = {name: _checked_on_the_message(*case) for name, case in self._cases().items()}
        assert {name for name, ok in verdicts.items() if ok} == {f"valid-{k}" for k in range(4)}

    @pytest.mark.parametrize("floor", [1, 25], ids=["split", "serial"])
    def test_verdicts_equal_checking_the_message(self, floor, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 2)
        monkeypatch.setattr(identity, "_MIN_VERIFY_CHUNK", floor)
        cases = list(self._cases().values())
        expected = [_checked_on_the_message(*case) for case in cases]
        assert verify_many([_as_job(*case) for case in cases]) == expected
        assert [verify(*case) for case in cases] == expected


class TestVerifyMany:
    def _triples(self):
        """Ten ``(public_key, message, signature)`` triples from two signers
        plus an unparseable key, with one forged message; every key appears
        more than once."""
        a, b = (generate_identity(Role.LIGHT, seed=30 + k) for k in range(2))
        bad_key = b"\x02" + b"\xff" * 32
        triples = []
        for k in range(10):
            ident = (a, b)[k % 2]
            message = b"msg %d" % k
            triples.append((ident.public_key, message, sign(ident, message)))
        triples[3] = (triples[3][0], b"forged", triples[3][2])
        triples[5] = (bad_key, triples[5][1], triples[5][2])
        triples[8] = (bad_key, triples[8][1], triples[8][2])
        return triples

    def _jobs(self):
        return [_as_job(*triple) for triple in self._triples()]

    @pytest.mark.parametrize("floor", [1, 25], ids=["split", "serial"])
    def test_equals_one_at_a_time(self, floor, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 2)
        monkeypatch.setattr(identity, "_MIN_VERIFY_CHUNK", floor)
        assert verify_many(self._jobs()) == [verify(*triple) for triple in self._triples()]
        assert verify_many(self._jobs()) == [k not in (3, 5, 8) for k in range(10)]

    def test_no_helper_thread_outlives_a_batch(self, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 2)
        monkeypatch.setattr(identity, "_MIN_VERIFY_CHUNK", 1)
        verify_many(self._jobs())
        alive = [t.name for t in threading.enumerate() if t.name.startswith("proxichain-ecdsa")]
        assert alive == []

    def test_parses_each_key_once(self, monkeypatch):
        """The batch is sorted by key before it is cut, so a key is parsed
        again only where it straddles a chunk boundary. In input order the
        alternating signers would be parsed in every chunk."""
        parsed = []

        def counted(public_key):
            parsed.append(public_key)
            return real(public_key)

        real = identity._public_key
        monkeypatch.setattr(identity, "_public_key", counted)
        monkeypatch.setattr(identity, "_MIN_VERIFY_CHUNK", 1)
        jobs = self._jobs()
        keys = {job[0] for job in jobs}
        for cores in (1, 2, 3):
            monkeypatch.setattr(identity, "_CORES", cores)
            parsed.clear()
            assert verify_many(jobs) == [k not in (3, 5, 8) for k in range(10)]
            assert set(parsed) == keys
            assert len(parsed) <= len(keys) + cores - 1

    def test_meanwhile_runs_once_on_the_calling_thread(self, monkeypatch):
        """A split batch's helper threads exist while the caller's work
        runs (the pool may reuse a thread whose chunk is done); an unsplit
        batch starts no thread."""
        monkeypatch.setattr(identity, "_MIN_VERIFY_CHUNK", 1)
        jobs = self._jobs()
        for cores in (1, 2, 3):
            monkeypatch.setattr(identity, "_CORES", cores)
            seen = []

            def meanwhile():
                seen.append((
                    threading.current_thread() is threading.main_thread(),
                    any(t.name.startswith("proxichain-ecdsa") for t in threading.enumerate()),
                ))

            assert verify_many(jobs, meanwhile) == [k not in (3, 5, 8) for k in range(10)]
            assert seen == [(True, cores > 1)]

    def test_meanwhile_error_waits_for_every_chunk(self, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 2)
        monkeypatch.setattr(identity, "_MIN_VERIFY_CHUNK", 1)
        finished = []
        chunk = identity._verify_chunk
        monkeypatch.setattr(identity, "_verify_chunk", lambda jobs, keys: finished.append(chunk(jobs, keys)))

        def meanwhile():
            raise RuntimeError("caller's work failed")

        with pytest.raises(RuntimeError, match="caller's work failed"):
            verify_many(self._jobs(), meanwhile)
        assert len(finished) == 2
        alive = [t.name for t in threading.enumerate() if t.name.startswith("proxichain-ecdsa")]
        assert alive == []

    def test_earliest_chunk_error_propagates(self, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 3)
        monkeypatch.setattr(identity, "_MIN_VERIFY_CHUNK", 1)

        def chunk(jobs, keys):
            raise LookupError(jobs[0][1])

        monkeypatch.setattr(identity, "_verify_chunk", chunk)
        jobs = self._jobs()
        ran = []
        with pytest.raises(LookupError) as err:
            verify_many(jobs, lambda: ran.append(True))
        # Chunk 0 starts with the first triple of the smallest key.
        assert err.value.args == (min(jobs, key=lambda job: job[0])[1],)
        assert ran == [True]

    @pytest.mark.parametrize("count, chunks", [(49, [49]), (50, [25, 25]), (120, [40, 40, 40])])
    def test_splits_only_into_full_chunks(self, count, chunks, monkeypatch):
        sizes = []
        monkeypatch.setattr(identity, "_CORES", 3)
        monkeypatch.setattr(identity, "_MIN_VERIFY_CHUNK", 25)
        monkeypatch.setattr(identity, "_verify_chunk", lambda jobs, keys: sizes.append(len(jobs)) or [])
        jobs = (self._jobs() * 12)[:count]
        verify_many(jobs)
        assert sorted(sizes) == chunks


def _signed_by_manager(registry: AuthorizedRegistry) -> bool:
    message = registry_signing_bytes(registry.manager_id, registry.entries)
    return verify(registry.manager_public_key, message, registry.signature)


class TestRegistry:
    def test_publish_and_verify(self):
        manager = generate_identity(Role.MANAGER, seed=100)
        keys = [generate_identity(Role.AUTHORIZED, seed=i).public_key for i in range(3)]
        registry = publish_registry(manager, keys)
        assert _signed_by_manager(registry)
        assert registry.contains(node_id_for(keys[1]))
        assert registry.contains(manager.node_id)
        assert not registry.contains(generate_identity(Role.LIGHT, seed=99).node_id)

    def test_tampered_entry_breaks_verification(self):
        manager = generate_identity(Role.MANAGER, seed=100)
        keys = [generate_identity(Role.AUTHORIZED, seed=i).public_key for i in range(3)]
        registry = publish_registry(manager, keys)
        swapped = generate_identity(Role.AUTHORIZED, seed=99).public_key
        forged = dataclasses.replace(
            registry, entries=(registry.entries[0], swapped, registry.entries[2])
        )
        assert not _signed_by_manager(forged)

    def test_empty_registry_is_valid(self):
        manager = generate_identity(Role.MANAGER, seed=100)
        registry = publish_registry(manager, [])
        assert _signed_by_manager(registry)
        assert registry.entries == ()
        assert registry.contains(manager.node_id)

    def test_non_manager_cannot_publish(self):
        light = generate_identity(Role.LIGHT, seed=5)
        with pytest.raises(AuthorizationError):
            publish_registry(light, [])

    def test_duplicate_keys_rejected(self):
        manager = generate_identity(Role.MANAGER, seed=100)
        key = generate_identity(Role.AUTHORIZED, seed=1).public_key
        with pytest.raises(RegistryValidationError):
            publish_registry(manager, [key, key])

    def test_json_roundtrip(self):
        manager = generate_identity(Role.MANAGER, seed=100)
        keys = [generate_identity(Role.AUTHORIZED, seed=i).public_key for i in range(2)]
        registry = publish_registry(manager, keys)
        body = json.loads(registry_to_json(registry))
        restored = AuthorizedRegistry(
            manager_id=bytes.fromhex(body["manager_id"]),
            manager_public_key=bytes.fromhex(body["manager_public_key"]),
            entries=tuple(bytes.fromhex(e) for e in body["entries"]),
            signature=bytes.fromhex(body["signature"]),
        )
        assert restored == registry
