"""Node identities, signatures and the manager-signed authorized registry.

Every participant owns an ECDSA key pair on P-256 (secp256r1, FIPS 186-4),
the curve OpenSSL has an optimized implementation for. The public identifier
(node id) carried in BLE advertisements and ledger records is the SHA-256
digest of the compressed public key, so anyone holding the key can recompute
and check it. Signing uses deterministic nonces (RFC 6979) so that repeated
runs of a seeded simulation produce bit-identical transactions.

OpenSSL releases the interpreter lock while it verifies, so
:func:`verify_many` splits a batch across every CPU the process may run on,
as far as each chunk gets ``_MIN_VERIFY_CHUNK`` signatures: the calling
thread takes the first chunk and one helper thread per extra CPU takes each
of the others. Smaller batches, signing (:func:`sign_many`) and key
generation stay on the calling thread.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)

_CURVE = ec.SECP256R1()
# Order of the P-256 group, needed to map seed material onto a valid private
# scalar in [1, n-1].
_CURVE_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_SEED_DOMAIN = b"proxichain/identity/v1"

# CPUs this process may run on: the most chunks a verify batch is split into.
# ``taskset -c 0`` therefore gives a serial run. Platforms without CPU
# affinity (macOS, Windows) count every CPU.
_CORES = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
# Fewest triples a chunk of a split verify batch may get. On a 2-CPU host two
# chunks took 0.81-1.03 times as long as one at 4-10 triples and 0.65-0.71
# at 24-400, so small batches (a ct-run block holds ~10) stay on one thread.
_MIN_VERIFY_CHUNK = 25
_pool = None  # the helpers' ThreadPoolExecutor, made by the first split batch
_pool_lock = threading.Lock()

_T = TypeVar("_T")


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


def sign(identity: NodeIdentity, message: bytes) -> bytes:
    """Sign a message under the identity's secret key (deterministic ECDSA)."""
    if identity.secret_key is None:
        raise SigningCapabilityError(
            f"identity {identity.node_id.hex()[:12]} holds no secret key"
        )
    return identity.secret_key.sign(
        message, ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
    )


def _public_key(public_key_bytes: bytes) -> Optional[ec.EllipticCurvePublicKey]:
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, public_key_bytes)
    except ValueError:
        return None


def _check(
    key: Optional[ec.EllipticCurvePublicKey], message: bytes, signature: bytes
) -> bool:
    if key is None:
        return False
    try:
        key.verify(signature, message, ec.ECDSA(hashes.SHA256()))
        return True
    except (InvalidSignature, ValueError):
        return False


def verify(public_key_bytes: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature against a compressed public key. Never raises."""
    return _check(_public_key(public_key_bytes), message, signature)


def _verify_chunk(jobs: Sequence[tuple[bytes, bytes, bytes]]) -> list[bool]:
    """:func:`verify` over the triples, parsing each distinct key once.

    The triples are checked grouped by key, so only one parsed key is held
    at a time (a dict of them costs ~1.9 KB per sender).
    """
    verdicts = [False] * len(jobs)
    key_bytes = key = None
    for k in sorted(range(len(jobs)), key=lambda k: jobs[k][0]):
        public_key, message, signature = jobs[k]
        if public_key != key_bytes:
            key_bytes, key = public_key, _public_key(public_key)
        verdicts[k] = _check(key, message, signature)
    return verdicts


def _fan_out(
    run_chunk: Callable[[Sequence[tuple]], list[_T]], jobs: Sequence[tuple], chunks: int
) -> list[_T]:
    """``run_chunk(jobs)``, split into ``chunks`` contiguous chunks.

    The calling thread runs the first chunk while helper threads run the
    rest; results keep the input order. If chunks raise, the exception of the
    earliest one propagates, and only after every chunk has finished.
    Helpers must call nothing that a caller may rebind at run time (the
    benchmark's tracer wraps ``proxichain.ledger.sign`` and friends and keeps
    one span stack per process), so ``run_chunk`` is always this module's own.
    """
    global _pool
    if chunks <= 1:
        return run_chunk(jobs)
    # Imported here: a process that never splits a batch (the outbreak
    # simulator, localization, a small ct-run) is spared ~10 ms and ~0.5 MB.
    from concurrent.futures import ThreadPoolExecutor, wait

    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max(_CORES - 1, 1), thread_name_prefix="proxichain-ecdsa"
            )
        pool = _pool
    bounds = [len(jobs) * k // chunks for k in range(chunks + 1)]

    def run(k: int) -> list[_T]:
        return run_chunk(jobs[bounds[k] : bounds[k + 1]])

    futures = [pool.submit(run, k) for k in range(1, chunks)]
    try:
        results = run(0)
    finally:
        wait(futures)
    for future in futures:
        results.extend(future.result())
    return results


def sign_many(jobs: Sequence[tuple[NodeIdentity, bytes]]) -> list[bytes]:
    """:func:`sign` over ``(identity, message)`` pairs, on the calling thread.

    Helper threads made no measurable difference to a ``ct-run`` (its
    batches hold ~10-130 signatures), so signing keeps to one thread.
    """
    return [sign(identity, message) for identity, message in jobs]


def verify_many(jobs: Sequence[tuple[bytes, bytes, bytes]]) -> list[bool]:
    """:func:`verify` over ``(public_key, message, signature)`` triples.

    A batch is split across the CPUs only as far as every chunk gets
    ``_MIN_VERIFY_CHUNK`` triples; each chunk parses a key once however
    many of its triples carry it.
    """
    return _fan_out(_verify_chunk, jobs, min(_CORES, len(jobs) // _MIN_VERIFY_CHUNK))


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
