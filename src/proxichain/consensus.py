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
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .identity import AuthorizedRegistry
from .ledger import (
    MAX_BLOCK_BYTES,
    Block,
    Chain,
    WindowDomainError,
    WindowHistoryError,
    encode_block_full,
    make_genesis,
    verify_transactions,
    whash_preimage_prefix,
)


@dataclass(frozen=True)
class DifficultyLevel:
    name: str
    prefix_nibbles: int


DL_EASY = DifficultyLevel("DL_e", prefix_nibbles=1)
DL_HARD = DifficultyLevel("DL_h", prefix_nibbles=4)

LEVELS_BY_NAME = {DL_EASY.name: DL_EASY, DL_HARD.name: DL_HARD}


class BlockRejectedError(Exception):
    """Validation refused a block; ``reason`` names the failed clause."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


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
    trials: int
    elapsed: float


def mine(
    blocks: Sequence[Block],
    candidate: Block,
    level: DifficultyLevel,
    max_trials: Optional[int] = None,
) -> MiningResult:
    """Sequential nonce search from zero until the prefix rule holds.

    The window predecessors and candidate header are hashed once into a
    SHA-256 state; each trial copies that state and feeds only the 8-byte
    nonce. Without this the per-trial cost would grow with the window size,
    which at the hard level (~65k expected trials) is prohibitive.
    """
    prefix_state = hashlib.sha256(whash_preimage_prefix(blocks, candidate))
    started = time.perf_counter()
    # range() steps on machine integers only while its stop fits in one,
    # so an unbounded search stops at sys.maxsize (2**63 - 1) trials.
    limit = sys.maxsize if max_trials is None else max_trials
    for nonce in range(limit):
        h = prefix_state.copy()
        h.update(struct.pack("<Q", nonce))
        digest = h.digest()
        if digest_satisfies(digest, level):
            break
    else:
        raise MiningTimeoutError(limit)
    elapsed = time.perf_counter() - started
    block = replace(candidate, nonce=nonce, block_hash=digest)
    return MiningResult(block=block, trials=nonce + 1, elapsed=elapsed)


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
    verdicts: Optional[Sequence[bool]] = None,
) -> ValidationResult:
    """Every clause but index and linkage. ``verdicts`` holds the block's
    per-transaction signature verdicts when the caller has checked them
    already; otherwise they are checked here, after every cheaper clause."""

    def reject(reason: str, detail: str = "") -> ValidationResult:
        return ValidationResult(False, reason, detail)

    try:
        prefix = whash_preimage_prefix(blocks, block)
    except (WindowDomainError, WindowHistoryError) as exc:
        return reject("window", str(exc))
    if len(encode_block_full(block)) > MAX_BLOCK_BYTES:
        return reject("overflow", "serialized block exceeds 1 MiB")

    h = hashlib.sha256(prefix)
    h.update(struct.pack("<Q", block.nonce))
    if h.digest() != block.block_hash:
        return reject("digest", "recomputed digest differs from block_hash")

    if not digest_satisfies(block.block_hash, expected_level):
        # A digest that clears the easy prefix but was required to clear the
        # hard one points at a miner working below its assigned difficulty.
        if expected_level.name == DL_HARD.name and digest_satisfies(block.block_hash, DL_EASY):
            return reject("entitlement", "easy-level digest from a hard-level miner")
        return reject("prefix", f"digest misses the {expected_level.name} prefix")

    if verdicts is None:
        verdicts = verify_transactions(block.transactions)
    for tx, ok in zip(block.transactions, verdicts):
        if not ok:
            return reject("signature", f"transaction from {tx.sender.hex()[:12]}")
    return ValidationResult(True)


def validate_block(
    blocks: Sequence[Block], block: Block, expected_level: DifficultyLevel
) -> ValidationResult:
    """Accept or reject a block proposed on the current tip.

    Clauses checked, each with its own rejection reason: index continuity
    ("index"), tip linkage ("stale"), window range ("window"), size bound
    ("overflow"), digest recomputation ("digest"), difficulty prefix
    ("prefix" or "entitlement"), transaction signatures ("signature").
    """
    if block.index != len(blocks):
        return ValidationResult(False, "index", f"expected {len(blocks)}, got {block.index}")
    if blocks and block.prev_hash != blocks[-1].block_hash:
        return ValidationResult(False, "stale", "prev_hash does not match the tip")
    return _check_block(blocks, block, expected_level)


def append_block(
    chain: Chain,
    block: Block,
    registry: Optional[AuthorizedRegistry] = None,
    credit_view: Optional[Callable[[bytes], float]] = None,
    alpha_d: float = 0.0,
) -> Chain:
    """Validate a mined block against the tip and append it.

    When ``credit_view`` is given, the miner's difficulty entitlement is
    checked against its credit at append time; without it only the
    structural rules apply (offline verification has no credit history).
    Raises :class:`BlockRejectedError` with the failed clause on refusal.
    """
    if credit_view is not None:
        is_auth = registry.contains(block.miner) if registry is not None else False
        expected = difficulty_for(credit_view(block.miner), alpha_d, is_auth)
    else:
        expected = DL_EASY
    result = validate_block(chain, block, expected)
    if not result.accepted:
        raise BlockRejectedError(result.reason, result.detail)
    chain.blocks.append(block)
    return chain


@dataclass(frozen=True)
class ChainViolation:
    index: int
    reason: str
    detail: str = ""


def verify_chain(blocks: Sequence[Block]) -> list[ChainViolation]:
    """Re-validate a persisted chain end to end, returning every violation.

    Block 0 must equal the fixed genesis block. Entitlement is not
    re-checked: credit at mining time is not part of the chain record. Every
    mined block must still clear at least the easy prefix, and every digest,
    linkage, window, size and signature rule applies; a block with a broken
    link is still checked against every other rule. The signatures of every
    block are checked in one batch, so the split across CPUs works on chunks
    of the whole chain rather than on a few transactions per block.
    """
    violations: list[ChainViolation] = []
    if blocks and blocks[0] != make_genesis():
        violations.append(ChainViolation(0, "genesis", "block 0 is not the fixed genesis"))
    verdicts = verify_transactions([tx for block in blocks[1:] for tx in block.transactions])
    end = 0
    for i in range(1, len(blocks)):
        block = blocks[i]
        start, end = end, end + len(block.transactions)
        if block.index != i:
            violations.append(ChainViolation(i, "index", f"stored index {block.index}"))
            continue
        if block.prev_hash != blocks[i - 1].block_hash:
            violations.append(ChainViolation(i, "linkage", "prev_hash mismatch"))
        result = _check_block(blocks, block, DL_EASY, verdicts=verdicts[start:end])
        if not result.accepted:
            violations.append(ChainViolation(i, result.reason, result.detail))
    return violations


# ---------------------------------------------------------------------------
# Analytic attack cost
# ---------------------------------------------------------------------------

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
