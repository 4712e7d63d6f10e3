"""Node identities, signatures and the manager-signed authorized registry.

Every participant owns an ECDSA key pair on P-256 (secp256r1, FIPS 186-4),
the curve OpenSSL has an optimized implementation for. The public identifier
(node id) carried in BLE advertisements and ledger records is the SHA-256
digest of the compressed public key, so anyone holding the key can recompute
and check it. Signing uses deterministic nonces (RFC 6979) so that repeated
runs of a seeded simulation produce bit-identical transactions.

Every signature check runs through one function, ``_verify_chunk``, on
the SHA-256 digest of the signed message, so a batch holds 32 bytes per
signature instead of the message; :func:`verify` hashes its message and
is a batch of one. :func:`verify_many` sorts a batch by public key, so
each chunk parses a key once, and a caller that checks many batches (a
``ct-run``) hands it a dict in which each key stays parsed for the
caller's whole run. The sorted batch is split across every CPU the
process may run on, as far as each chunk gets ``_MIN_VERIFY_CHUNK``
signatures, and the chunks are checked on a thread pool that lasts only
for that call. Meanwhile the calling thread runs whatever work the
caller hands over (``meanwhile``), such as the block clauses of
:func:`proxichain.consensus.verify_chain`. On a 2-vCPU Xeon that split
made ``verify-chain`` faster than the whole batch on one thread beside
the same work, while a bare chunk ran as fast on two threads as on one
in some processes and twice as fast in others (README). Smaller batches,
signing (:func:`sign`, one message per call) and key generation stay on
the calling thread.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import Prehashed
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)

_CURVE = ec.SECP256R1()
# Order of the P-256 group, needed to map seed material onto a valid private
# scalar in [1, n-1].
_CURVE_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_SEED_DOMAIN = b"proxichain/identity/v1"

# The CPUs the program may run on, as it started: a forked helper takes its
# caller's CPU out of this set (``_fork._leave_caller_cpu``). None on
# platforms without CPU affinity (macOS, Windows).
_AFFINITY = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
# How many: the most chunks a verify batch is split into, and the most
# processes a long nonce search or a localization eval runs on (the caller
# plus forked helpers, see ``_fork.helpers``). All read it at call time, so
# ``taskset -c 0`` gives a serial verify, search and eval. Without affinity
# every CPU counts.
_CORES = len(_AFFINITY) if _AFFINITY is not None else os.cpu_count() or 1
# Fewest triples a chunk of a split verify batch may get, so that a small
# batch, such as a ct-run block's ~10 signatures, is checked in the calling
# thread and pays for no thread pool.
_MIN_VERIFY_CHUNK = 25


class Role(Enum):
    LIGHT = "light"
    AUTHORIZED = "authorized"
    MANAGER = "manager"


class SigningCapabilityError(Exception):
    """Raised when a sign operation is attempted without a secret key."""


class AuthorizationError(Exception):
    """Raised when an operation requires a role the caller does not hold."""


class RegistryValidationError(Exception):
    """Raised when registry content is malformed (e.g. duplicate keys)."""


def node_id_for(public_key_bytes: bytes) -> bytes:
    """Digest of the encoded public key used as the node's public identifier."""
    return hashlib.sha256(public_key_bytes).digest()


@dataclass(frozen=True)
class NodeIdentity:
    """A participant's key material plus its role in the network.

    ``secret_key`` is kept only in memory; serialization helpers below never
    touch it. Verification-only identities carry ``secret_key=None``.
    """

    node_id: bytes
    public_key: bytes
    role: Role
    secret_key: Optional[ec.EllipticCurvePrivateKey] = None

    def __post_init__(self) -> None:
        if node_id_for(self.public_key) != self.node_id:
            raise ValueError("node_id does not match digest of public key")

    @property
    def is_authorized(self) -> bool:
        # Managers hold authorized privileges implicitly.
        return self.role in (Role.AUTHORIZED, Role.MANAGER)


def _scalar_from_seed(role: Role, seed: int) -> int:
    material = _SEED_DOMAIN + role.value.encode() + seed.to_bytes(8, "little", signed=True)
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest, "big") % (_CURVE_ORDER - 1) + 1


def generate_identity(role: Role, seed: Optional[int] = None) -> NodeIdentity:
    """Create a fresh identity, optionally from a deterministic seed.

    Seeded generation exists for reproducible simulations and tests; the same
    (role, seed) pair always yields the same key pair and node id.
    """
    if seed is None:
        private = ec.generate_private_key(_CURVE)
    else:
        private = ec.derive_private_key(_scalar_from_seed(role, seed), _CURVE)
    public_bytes = private.public_key().public_bytes(
        Encoding.X962, PublicFormat.CompressedPoint
    )
    return NodeIdentity(
        node_id=node_id_for(public_bytes),
        public_key=public_bytes,
        role=role,
        secret_key=private,
    )


# The signing algorithm, built by the first :func:`sign` and not at import,
# for the reason ``_verify_chunk`` gives. Building it took 2.5-2.9 us of a
# 35-41 us signature on a 2-vCPU Xeon.
_SIGNING: Optional[ec.ECDSA] = None


def sign(identity: NodeIdentity, message: bytes) -> bytes:
    """Sign a message under the identity's secret key (deterministic ECDSA)."""
    global _SIGNING
    if identity.secret_key is None:
        raise SigningCapabilityError(
            f"identity {identity.node_id.hex()[:12]} holds no secret key"
        )
    if _SIGNING is None:
        _SIGNING = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
    return identity.secret_key.sign(message, _SIGNING)


def _public_key(public_key_bytes: bytes) -> Optional[ec.EllipticCurvePublicKey]:
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, public_key_bytes)
    except ValueError:
        return None


def verify(public_key_bytes: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature on ``message`` against a compressed public key.
    Never raises."""
    digest = hashlib.sha256(message).digest()
    return _verify_chunk([(public_key_bytes, digest, signature)])[0]


def _verify_chunk(
    jobs: Sequence[tuple[bytes, bytes, bytes]], keys: Optional[dict] = None
) -> list[bool]:
    """Whether each ``(public_key, digest, signature)`` triple verifies,
    ``digest`` being the SHA-256 of the signed message; False for an
    unparseable key, a bad signature or a digest of another length. Never
    raises.

    A key is looked up again only where it differs from the previous
    triple's, so a chunk sorted by key parses each distinct key once and,
    without ``keys``, holds only one parsed key at a time. ``keys`` maps
    key bytes to the parsed key (None if unparseable): a key found there is
    not parsed, and a key parsed here is added.
    """
    # ECDSA over the message's SHA-256 digest: the same equation, and so the
    # same verdicts, as ``ec.ECDSA(hashes.SHA256())`` over the message. Made
    # here, not at import: it loads the OpenSSL backend, which a process
    # that never checks a signature does not need.
    algorithm = ec.ECDSA(Prehashed(hashes.SHA256()))
    verdicts = []
    key_bytes = key = None
    for public_key, digest, signature in jobs:
        if public_key != key_bytes:
            key_bytes = public_key
            if keys is None:
                key = _public_key(public_key)
            elif public_key in keys:
                key = keys[public_key]
            else:
                key = keys[public_key] = _public_key(public_key)
        ok = key is not None
        if ok:
            try:
                key.verify(signature, digest, algorithm)
            except (InvalidSignature, ValueError):
                ok = False
        verdicts.append(ok)
    return verdicts


def verify_many(
    jobs: Sequence[tuple[bytes, bytes, bytes]],
    meanwhile: Callable[[], object] = lambda: None,
    keys: Optional[dict] = None,
) -> list[bool]:
    """:func:`verify` over ``(public_key, digest, signature)`` triples,
    ``digest`` being the SHA-256 of the signed message.

    The triples are sorted by key and the sorted batch is cut into
    contiguous chunks across the CPUs, only as far as every chunk gets
    ``_MIN_VERIFY_CHUNK`` triples; a key is parsed once per chunk that
    holds it. Verdicts keep the input order.

    ``keys``, when given, is the caller's store of parsed keys, which the
    chunks share (see :func:`_verify_chunk`): a key in it is never parsed
    again, at ~1.9 KB per key held. Two chunks that parse one key at once
    store equal keys, so a race costs only a parse. The caller owns the
    store and decides how long it lasts; nothing here keeps one.

    ``meanwhile`` is called once on the calling thread: while the chunks
    run when the batch is split, before the one chunk otherwise. A split
    batch runs on a thread pool made for this call and shut down before it
    returns, so no helper thread outlives the call. If ``meanwhile`` or a
    chunk raises, the exception (``meanwhile``'s, else the earliest
    chunk's) propagates only after every chunk has finished. Helpers must
    call nothing that a caller may rebind at run time (the benchmark's
    tracer wraps ``proxichain.ledger.verify`` and friends and keeps one
    span stack per process), so they call only this module's private
    functions.
    """
    order = sorted(range(len(jobs)), key=lambda k: jobs[k][0])
    ordered = [jobs[k] for k in order]
    chunks = min(_CORES, len(jobs) // _MIN_VERIFY_CHUNK)
    if chunks <= 1:
        meanwhile()
        checked = _verify_chunk(ordered, keys)
    else:
        # Imported here: a process that never splits a batch (the outbreak
        # simulator, localization, a small ct-run) is spared ~10 ms and ~0.5 MB.
        from concurrent.futures import ThreadPoolExecutor

        bounds = [len(jobs) * k // chunks for k in range(chunks + 1)]
        with ThreadPoolExecutor(chunks, thread_name_prefix="proxichain-ecdsa") as pool:
            parts = [pool.submit(_verify_chunk, ordered[bounds[k] : bounds[k + 1]], keys)
                     for k in range(chunks)]
            meanwhile()
            checked = [verdict for part in parts for verdict in part.result()]
    verdicts = [False] * len(jobs)
    for k, verdict in zip(order, checked):
        verdicts[k] = verdict
    return verdicts


# ---------------------------------------------------------------------------
# Authorized-node registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuthorizedRegistry:
    """Manager-signed list of public keys allowed to act as full nodes."""

    manager_id: bytes
    manager_public_key: bytes
    entries: tuple[bytes, ...]
    signature: bytes

    @cached_property
    def _node_ids(self) -> frozenset[bytes]:
        return frozenset([self.manager_id, *map(node_id_for, self.entries)])

    def contains(self, node_id: bytes) -> bool:
        return node_id in self._node_ids


def registry_signing_bytes(manager_id: bytes, entries: Iterable[bytes]) -> bytes:
    """Canonical JSON encoding of the registry body.

    Sorted keys and lowercase hex keep the byte string reproducible across
    implementations, so the signature can be re-verified anywhere.
    """
    body = {
        "entries": [pk.hex() for pk in entries],
        "manager_id": manager_id.hex(),
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def publish_registry(
    manager: NodeIdentity, authorized_keys: list[bytes]
) -> AuthorizedRegistry:
    """Sign the list of authorized public keys under the manager's key."""
    if manager.role is not Role.MANAGER:
        raise AuthorizationError(f"role {manager.role.value} cannot publish a registry")
    if len(set(authorized_keys)) != len(authorized_keys):
        raise RegistryValidationError("registry entries contain duplicates")
    entries = tuple(authorized_keys)
    signature = sign(manager, registry_signing_bytes(manager.node_id, entries))
    return AuthorizedRegistry(
        manager_id=manager.node_id,
        manager_public_key=manager.public_key,
        entries=entries,
        signature=signature,
    )


def registry_to_json(registry: AuthorizedRegistry) -> str:
    body = {
        "entries": [pk.hex() for pk in registry.entries],
        "manager_id": registry.manager_id.hex(),
        "manager_public_key": registry.manager_public_key.hex(),
        "signature": registry.signature.hex(),
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":"))
