"""Node identities, signatures and the manager-signed authorized registry.

Every participant owns an ECDSA key pair on SECP256K1. The public identifier
(node id) carried in BLE advertisements and ledger records is the SHA-256
digest of the compressed public key, so anyone holding the key can recompute
and check it. Signing uses deterministic nonces (RFC 6979) so that repeated
runs of a seeded simulation produce bit-identical transactions.

OpenSSL releases the interpreter lock while it signs or verifies, so
:func:`sign_many` and :func:`verify_many` split a batch across every CPU the
process may run on: the calling thread takes the first chunk and one helper
thread per extra CPU takes each of the others. Key derivation holds the lock,
so key generation stays serial.
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

_CURVE = ec.SECP256K1()
# Order of the SECP256K1 group, needed to map seed material onto a valid
# private scalar in [1, n-1].
_CURVE_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_SEED_DOMAIN = b"proxichain/identity/v1"

NODE_ID_LEN = 32

# CPUs this process may run on: the number of chunks a batch is split into.
# ``taskset -c 0`` therefore gives a serial run. Platforms without CPU
# affinity (macOS, Windows) count every CPU.
_CORES = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
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


def verify(public_key_bytes: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature against a compressed public key. Never raises."""
    try:
        key = ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, public_key_bytes)
        key.verify(signature, message, ec.ECDSA(hashes.SHA256()))
        return True
    except (InvalidSignature, ValueError):
        return False


def _fan_out(fn: Callable[..., _T], jobs: Sequence[tuple]) -> list[_T]:
    """``[fn(*job) for job in jobs]``, split into one contiguous chunk per CPU.

    The calling thread runs the first chunk while helper threads run the
    rest; results keep the input order. If chunks raise, the exception of the
    earliest one propagates, and only after every chunk has finished.
    Helpers must call nothing that a caller may rebind at run time (the
    benchmark's tracer wraps ``proxichain.ledger.sign`` and friends and keeps
    one span stack per process), so ``fn`` is always this module's own.
    """
    global _pool
    chunks = min(_CORES, len(jobs))
    if chunks <= 1:
        return [fn(*job) for job in jobs]
    # Imported here: a process that never splits a batch (the outbreak
    # simulator, localization) is spared ~10 ms and ~0.5 MB.
    from concurrent.futures import ThreadPoolExecutor, wait

    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max(_CORES - 1, 1), thread_name_prefix="proxichain-ecdsa"
            )
        pool = _pool
    bounds = [len(jobs) * k // chunks for k in range(chunks + 1)]

    def run(k: int) -> list[_T]:
        return [fn(*job) for job in jobs[bounds[k] : bounds[k + 1]]]

    futures = [pool.submit(run, k) for k in range(1, chunks)]
    try:
        results = run(0)
    finally:
        wait(futures)
    for future in futures:
        results.extend(future.result())
    return results


def sign_many(jobs: Sequence[tuple[NodeIdentity, bytes]]) -> list[bytes]:
    """:func:`sign` over ``(identity, message)`` pairs, on every CPU."""
    return _fan_out(sign, jobs)


def verify_many(jobs: Sequence[tuple[bytes, bytes, bytes]]) -> list[bool]:
    """:func:`verify` over ``(public_key, message, signature)`` triples, on
    every CPU."""
    return _fan_out(verify, jobs)


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
