"""Node identities, signatures and the manager-signed authorized registry.

Every participant owns an ECDSA key pair on SECP256K1. The public identifier
(node id) carried in BLE advertisements and ledger records is the SHA-256
digest of the compressed public key, so anyone holding the key can recompute
and check it. Signing uses deterministic nonces (RFC 6979) so that repeated
runs of a seeded simulation produce bit-identical transactions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional

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
