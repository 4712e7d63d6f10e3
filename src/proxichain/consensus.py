"""Two-level proof of work gated by credit, plus chain validation.

Miners with authorized status or enough credit search for a digest with one
leading zero hex nibble; everyone else must produce four. The digest covers
a randomized window of predecessor blocks (see :mod:`proxichain.ledger`), so
rewriting history means re-mining every block whose window reaches the
altered record.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .identity import AuthorizedRegistry
from .ledger import (
    MAX_BLOCK_BYTES,
    Block,
    Chain,
    encode_block_full,
    make_genesis,
    verify_transactions,
    whash_preimage_prefix,
)


@dataclass(frozen=True)
class DifficultyLevel:
    name: str
    prefix_nibbles: int
    bits: int


DL_EASY = DifficultyLevel("DL_e", prefix_nibbles=1, bits=4)
DL_HARD = DifficultyLevel("DL_h", prefix_nibbles=4, bits=16)

LEVELS_BY_NAME = {DL_EASY.name: DL_EASY, DL_HARD.name: DL_HARD}


class MiningTimeoutError(Exception):
    """Nonce search exhausted its trial budget without a satisfying digest."""

    def __init__(self, trials: int):
        self.trials = trials
        super().__init__(f"no satisfying nonce within {trials} trials")


def digest_satisfies(digest: bytes, level: DifficultyLevel) -> bool:
    """Leading zero hex nibbles, checked on raw bytes to stay cheap."""
    full, half = divmod(level.prefix_nibbles, 2)
    if digest[:full] != bytes(full):
        return False
    return half == 0 or digest[full] < 16


def difficulty_for(credit: float, alpha_d: float, is_authorized: bool) -> DifficultyLevel:
    """Easy level for authorized nodes and those at or above the threshold."""
    if is_authorized or credit >= alpha_d:
        return DL_EASY
    return DL_HARD


@dataclass(frozen=True)
class MiningResult:
    block: Block
    nonce: int
    trials: int
    elapsed: float


def mine(
    chain: Union[Chain, Sequence[Block]],
    candidate: Block,
    level: DifficultyLevel,
    nonce_start: int = 0,
    max_trials: Optional[int] = None,
) -> MiningResult:
    """Sequential nonce search from ``nonce_start`` until the prefix rule holds.

    The window predecessors and candidate header are hashed once into a
    SHA-256 state; each trial copies that state and feeds only the 8-byte
    nonce. Without this the per-trial cost would grow with the window size,
    which at the hard level (~65k expected trials) is prohibitive.
    """
    blocks = chain.blocks if isinstance(chain, Chain) else chain
    prefix_state = hashlib.sha256(whash_preimage_prefix(blocks, candidate))
    started = time.perf_counter()
    nonce = nonce_start
    trials = 0
    while True:
        trials += 1
        if max_trials is not None and trials > max_trials:
            raise MiningTimeoutError(trials - 1)
        h = prefix_state.copy()
        h.update(struct.pack("<Q", nonce))
        digest = h.digest()
        if digest_satisfies(digest, level):
            break
        nonce += 1
    elapsed = time.perf_counter() - started
    block = replace(candidate, nonce=nonce, block_hash=digest)
    return MiningResult(block=block, nonce=nonce, trials=trials, elapsed=elapsed)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationResult:
    accepted: bool
    reason: Optional[str] = None
    detail: str = ""


def _check_block(
    blocks: Sequence[Block],
    block: Block,
    expected_level: DifficultyLevel,
    registry: Optional[AuthorizedRegistry],
    miner_credit: Optional[float],
    alpha_d: float,
) -> ValidationResult:
    def reject(reason: str, detail: str = "") -> ValidationResult:
        return ValidationResult(False, reason, detail)

    if not 0 <= block.whash_window <= 100:
        return reject("window", f"window {block.whash_window} outside [0, 100]")
    if max(block.whash_window - 1, 0) > block.index:
        return reject("window", "window reaches past the start of the chain")
    if len(encode_block_full(block)) > MAX_BLOCK_BYTES:
        return reject("overflow", "serialized block exceeds 1 MiB")

    h = hashlib.sha256(whash_preimage_prefix(blocks, block))
    h.update(struct.pack("<Q", block.nonce))
    if h.digest() != block.block_hash:
        return reject("digest", "recomputed digest differs from block_hash")

    if not digest_satisfies(block.block_hash, expected_level):
        # A digest that clears the easy prefix but was required to clear the
        # hard one points at a miner working below its assigned difficulty.
        if expected_level.name == DL_HARD.name and digest_satisfies(block.block_hash, DL_EASY):
            return reject("entitlement", "easy-level digest from a hard-level miner")
        return reject("prefix", f"digest misses the {expected_level.name} prefix")

    if miner_credit is not None:
        is_auth = registry.contains(block.miner) if registry is not None else False
        entitled = difficulty_for(miner_credit, alpha_d, is_auth)
        if entitled.name != expected_level.name:
            return reject(
                "entitlement",
                f"miner entitled to {entitled.name}, block claims {expected_level.name}",
            )

    for tx, ok in zip(block.transactions, verify_transactions(block.transactions)):
        if not ok:
            return reject("signature", f"transaction from {tx.sender.hex()[:12]}")
    return ValidationResult(True)


def validate_block(
    chain: Union[Chain, Sequence[Block]],
    block: Block,
    expected_level: DifficultyLevel,
    registry: Optional[AuthorizedRegistry] = None,
    miner_credit: Optional[float] = None,
    alpha_d: float = 0.0,
) -> ValidationResult:
    """Accept or reject a block proposed on the current tip.

    Clauses checked, each with its own rejection reason: index continuity
    ("index"), tip linkage ("stale"), window range ("window"), size bound
    ("overflow"), digest recomputation ("digest"), difficulty prefix
    ("prefix" or "entitlement"), transaction signatures ("signature").
    """
    blocks = chain.blocks if isinstance(chain, Chain) else chain
    if block.index != len(blocks):
        return ValidationResult(False, "index", f"expected {len(blocks)}, got {block.index}")
    if blocks and block.prev_hash != blocks[-1].block_hash:
        return ValidationResult(False, "stale", "prev_hash does not match the tip")
    return _check_block(blocks, block, expected_level, registry, miner_credit, alpha_d)


@dataclass(frozen=True)
class ChainViolation:
    index: int
    reason: str
    detail: str = ""


def verify_chain(
    chain: Union[Chain, Sequence[Block]],
    registry: Optional[AuthorizedRegistry] = None,
) -> list[ChainViolation]:
    """Re-validate a persisted chain end to end, returning every violation.

    Block 0 must equal the fixed genesis block. Entitlement is not
    re-checked: credit at mining time is not part of the chain record. Every
    mined block must still clear at least the easy prefix, and every digest,
    linkage, window, size and signature rule applies; a block with a broken
    link is still checked against every other rule.
    """
    blocks = chain.blocks if isinstance(chain, Chain) else chain
    violations: list[ChainViolation] = []
    if blocks and blocks[0] != make_genesis():
        violations.append(ChainViolation(0, "genesis", "block 0 is not the fixed genesis"))
    for i in range(1, len(blocks)):
        block = blocks[i]
        if block.index != i:
            violations.append(ChainViolation(i, "index", f"stored index {block.index}"))
            continue
        if block.prev_hash != blocks[i - 1].block_hash:
            violations.append(ChainViolation(i, "linkage", "prev_hash mismatch"))
        result = _check_block(blocks, block, DL_EASY, registry, miner_credit=None, alpha_d=0.0)
        if not result.accepted:
            violations.append(ChainViolation(i, result.reason, result.detail))
    return violations


# ---------------------------------------------------------------------------
# Analytic difficulty metrics
# ---------------------------------------------------------------------------

def block_difficulty(level: DifficultyLevel, target_hash: float) -> float:
    """Difficulty as the level's bit size over the numeric target value."""
    if target_hash <= 0:
        raise ValueError("target_hash must be positive")
    return level.bits / target_hash


def expected_interval(d_bc: float, bits_b: int, hash_rate: float) -> float:
    """Predicted seconds to mine a block at the given difficulty and rate."""
    if hash_rate <= 0:
        raise ValueError("hash_rate must be positive")
    return d_bc * (2.0 ** bits_b) / hash_rate


def attack_cost_model(n_wh: int, bits_b: int) -> tuple[float, float]:
    """Expected hash counts for an honest miner vs. a history rewriter.

    The honest side mines one block over a window of ``n_wh`` records. An
    attacker who cannot read the window value must re-mine for every
    possible window size, paying the window-linear cost ``n_wh`` times.
    """
    if n_wh < 1:
        raise ValueError("n_wh must be >= 1")
    honest = n_wh * (2.0 ** bits_b)
    return honest, n_wh * honest
