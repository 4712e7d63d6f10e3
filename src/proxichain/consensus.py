"""Two-level proof of work gated by credit, plus chain validation.

Miners with authorized status or enough credit search for a digest with one
leading zero hex nibble; everyone else must produce four. The digest covers
a randomized window of predecessor blocks (see :mod:`proxichain.ledger`), so
rewriting history means re-mining every block whose window reaches the
altered record.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from . import _fork
from .identity import AuthorizedRegistry
from .ledger import (
    MAX_BLOCK_BYTES,
    Block,
    Chain,
    ChainTail,
    TxKind,
    WindowDomainError,
    WindowHistoryError,
    encode_block_full,
    make_genesis,
    mined_block,
    pack_nonce,
    signing_digest,
    trace_digests,
    verify_transactions,
    whash_state,
)

# ``whash_preimage_prefix`` is unused here but stays bound: the benchmark's
# tracer (``perfbench/tracing.py``) wraps
# ``proxichain.consensus.whash_preimage_prefix`` and takes ``len()`` of its
# result, so the name must stay bound to that bytes-returning function.
from .ledger import whash_preimage_prefix


@dataclass(frozen=True)
class DifficultyLevel:
    name: str
    prefix_nibbles: int

    def __post_init__(self) -> None:
        # Zero nibbles would need the target 2**256, which has no 32-byte form.
        if not 1 <= self.prefix_nibbles <= 64:
            raise ValueError(f"prefix_nibbles must lie in [1, 64], got {self.prefix_nibbles}")

    @cached_property
    def target(self) -> bytes:
        """A 32-byte digest has ``prefix_nibbles`` leading zero hex nibbles
        exactly when it sorts below this big-endian bound."""
        return (1 << (256 - 4 * self.prefix_nibbles)).to_bytes(32, "big")


DL_EASY = DifficultyLevel("DL_e", prefix_nibbles=1)
DL_HARD = DifficultyLevel("DL_h", prefix_nibbles=4)

LEVELS_BY_NAME = {DL_EASY.name: DL_EASY, DL_HARD.name: DL_HARD}

# The credit threshold alpha_d: a miner at or above it mines at DL_e.
# ``difficulty_for`` reads it when it runs.
ALPHA_D = 0.0


class BlockRejectedError(Exception):
    """Validation refused a block; ``reason`` names the failed clause."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class MiningTimeoutError(Exception):
    """Nonce search exhausted its trial budget without a satisfying digest.

    ``elapsed`` is the wall time the search took, measured as
    :attr:`MiningResult.elapsed` is."""

    def __init__(self, trials: int, elapsed: float):
        self.trials = trials
        self.elapsed = elapsed
        super().__init__(f"no satisfying nonce within {trials} trials")


def digest_satisfies(digest: bytes, level: DifficultyLevel) -> bool:
    """Leading zero hex nibbles, as one comparison with the level's target."""
    return len(digest) == 32 and digest < level.target


def difficulty_for(credit: float, is_authorized: bool) -> DifficultyLevel:
    """Easy level for authorized nodes and those at or above ``ALPHA_D``."""
    if is_authorized or credit >= ALPHA_D:
        return DL_EASY
    return DL_HARD


@dataclass(frozen=True)
class MiningResult:
    block: Block
    # The sequential count ``nonce + 1``: what a search from zero on one
    # core tries. It is not the number of hashes a split search computes:
    # every process finishes its slice of the winning round, and a helper
    # may have scanned later rounds before it is killed.
    trials: int
    elapsed: float


# Nonces the calling process tries alone before it forks helpers. An easy
# search needs more with probability (15/16)**4096, about 1e-115, so only
# hard-level searches (~65k expected trials) are split.
_SOLO_TRIALS = 4096
# Nonces in one process's slice of a round of the split search.
_ROUND = 2048


def _scan(copy: Callable, target: bytes, start: int, stop: int) -> int:
    """Lowest nonce in ``[start, stop)`` whose digest sorts below ``target``,
    or -1. ``copy`` clones the hash state of the window prefix."""
    # Bound to a local so that a trial makes no attribute or global lookup
    # beyond the hash object's own update and digest.
    pack = pack_nonce
    for nonce in range(start, stop):
        h = copy()
        h.update(pack(nonce))
        if h.digest() < target:
            return nonce
    return -1


def _split_search(copy: Callable, target: bytes, start: int, limit: int) -> int:
    """Lowest satisfying nonce in ``[start, limit)``, or -1, on every core.

    The nonces go out in rounds of one ``_ROUND``-nonce slice per process:
    the calling process scans slice 0 of each round, and forked helper
    ``p`` (see :func:`proxichain._fork.helpers`) scans slice ``p``,
    inheriting the prefix hash state. A helper sends one record per slice
    (its lowest hit, or -1) and stops after a hit or past ``limit``.
    The first round with a hit gives its lowest hit, so the result is the
    nonce a scan from ``start`` would find. With one process the same rounds
    run with no helpers. Every helper is killed and reaped before this
    returns or raises.
    """
    span = _ROUND

    def helper(p: int, procs: int, report: int) -> None:
        for lo in range(start + p * span, limit, procs * span):
            nonce = _scan(copy, target, lo, min(lo + span, limit))
            _fork.send(report, nonce)
            if nonce >= 0:
                break

    with _fork.helpers(helper) as reads:
        stride = (len(reads) + 1) * span
        reports = [_fork.records(fd) for fd in reads]
        for lo in range(start, limit, stride):
            nonce = _scan(copy, target, lo, min(lo + span, limit))
            if nonce >= 0:
                return nonce
            for first, report in zip(range(lo + span, limit, span), reports):
                nonce = next(report, None)
                if nonce is None:
                    raise RuntimeError(f"a mining helper exited without reporting nonces {first}+")
                if nonce >= 0:
                    if not first <= nonce < min(first + span, limit):
                        raise RuntimeError(f"a mining helper reported nonce {nonce} "
                                           f"outside its slice at {first}")
                    return nonce
        return -1


def mine(
    blocks: Sequence[Block],
    candidate: Block,
    level: DifficultyLevel,
    max_trials: Optional[int] = None,
) -> MiningResult:
    """Lowest nonce from zero whose digest meets ``level``, searched on every core.

    The window predecessors and candidate header are hashed once into a
    SHA-256 state (:func:`~proxichain.ledger.whash_state`); each trial
    copies that state, feeds only the 8-byte nonce and compares the digest
    with the level's target. Without this the per-trial cost would grow with
    the window size, which at the hard level (~65k expected trials) is
    prohibitive.

    The calling process first tries nonces below ``_SOLO_TRIALS`` alone; a
    search that outlasts them is split across forked helpers, one per extra
    CPU (see :func:`_split_search`). The nonce, digest, ``trials`` and
    :class:`MiningTimeoutError` are those of a sequential search: ``trials``
    is ``nonce + 1`` and a search that tries ``max_trials`` nonces in vain
    raises. The winning nonce is hashed again here before the block is built
    (:func:`~proxichain.ledger.mined_block`, which encodes no transaction
    again).

    ``elapsed`` starts before the window is hashed: that is the one part of
    the search whose cost grows with the window.
    """
    started = time.perf_counter()
    copy = whash_state(blocks, candidate).copy
    target = level.target
    # range() steps on machine integers only while its stop fits in one,
    # so an unbounded search stops at sys.maxsize (2**63 - 1) trials.
    limit = sys.maxsize if max_trials is None else max_trials
    nonce = _scan(copy, target, 0, min(limit, _SOLO_TRIALS))
    if nonce < 0 and limit > _SOLO_TRIALS:
        nonce = _split_search(copy, target, _SOLO_TRIALS, limit)
    if nonce < 0:
        raise MiningTimeoutError(limit, time.perf_counter() - started)
    h = copy()
    h.update(pack_nonce(nonce))
    digest = h.digest()
    if digest >= target:
        raise RuntimeError(f"nonce {nonce} misses the {level.name} target")
    elapsed = time.perf_counter() - started
    return MiningResult(
        block=mined_block(candidate, nonce, digest), trials=nonce + 1, elapsed=elapsed
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationResult:
    accepted: bool
    reason: Optional[str] = None
    detail: str = ""


def _check_structure(
    blocks: Sequence[Block], block: Block, expected_level: DifficultyLevel
) -> ValidationResult:
    """Every clause but index, linkage and signatures, in order: window,
    size, digest, then prefix or entitlement."""

    def reject(reason: str, detail: str = "") -> ValidationResult:
        return ValidationResult(False, reason, detail)

    try:
        h = whash_state(blocks, block)
    except (WindowDomainError, WindowHistoryError) as exc:
        return reject("window", str(exc))
    if len(encode_block_full(block)) > MAX_BLOCK_BYTES:
        return reject("overflow", "serialized block exceeds 1 MiB")

    h.update(pack_nonce(block.nonce))
    if h.digest() != block.block_hash:
        return reject("digest", "recomputed digest differs from block_hash")

    if not digest_satisfies(block.block_hash, expected_level):
        # A digest that clears the easy prefix but was required to clear the
        # hard one points at a miner working below its assigned difficulty.
        if expected_level.name == DL_HARD.name and digest_satisfies(block.block_hash, DL_EASY):
            return reject("entitlement", "easy-level digest from a hard-level miner")
        return reject("prefix", f"digest misses the {expected_level.name} prefix")
    return ValidationResult(True)


def _check_signatures(block: Block, verdicts: Sequence[bool]) -> ValidationResult:
    """The signature clause: rejects with the first transaction whose
    verdict is False."""
    for tx, ok in zip(block.transactions, verdicts):
        if not ok:
            return ValidationResult(False, "signature", f"transaction from {tx.sender.hex()[:12]}")
    return ValidationResult(True)


def _check_alarms(
    block: Block, below: set[bytes]
) -> tuple[ValidationResult, set[bytes]]:
    """The alarm clause, and the signing digests of the block's TTs.

    Each AT's payload must be the 32-byte
    :func:`~proxichain.ledger.signing_digest` of a TT in ``below`` (those of
    the blocks below) or of one earlier in the block; the first AT that
    names neither rejects the block. The digests cover every TT of the
    block, whatever the result."""
    result = ValidationResult(True)
    named: set[bytes] = set()
    for tx in block.transactions:
        if tx.kind is TxKind.TT:
            named.add(signing_digest(tx))
        elif (
            tx.kind is TxKind.AT
            and result.accepted
            and tx.payload not in below
            and tx.payload not in named
        ):
            size = len(tx.payload)
            what = "no earlier TT" if size == 32 else f"a {size}-byte payload"
            detail = f"AT from {tx.sender.hex()[:12]} names {what}"
            result = ValidationResult(False, "alarm", detail)
    return result, named


def _check_blocks(
    blocks: Sequence[Block],
    batch: Sequence[Block],
    expected_level: DifficultyLevel,
    keys: Optional[dict] = None,
) -> list[ValidationResult]:
    """Every clause but index and linkage, for each block of ``batch``.

    The signatures of the whole batch go to one verify batch, and while its
    chunks run on helper threads the calling thread checks every other
    clause of each block. A block that fails one of those is rejected for
    it; otherwise its first bad signature rejects it. The keys parsed for
    the batch stay in ``keys`` for later batches when it is given, else in
    the tail's ``parsed_keys`` on a :class:`~proxichain.ledger.ChainTail`.
    """
    if keys is None and isinstance(blocks, ChainTail):
        keys = blocks.parsed_keys
    structure: list[ValidationResult] = []
    verdicts = verify_transactions(
        [tx for block in batch for tx in block.transactions],
        meanwhile=lambda: structure.extend(
            _check_structure(blocks, block, expected_level) for block in batch
        ),
        keys=keys,
    )
    results = []
    end = 0
    for block, result in zip(batch, structure):
        start, end = end, end + len(block.transactions)
        results.append(_check_signatures(block, verdicts[start:end]) if result.accepted else result)
    return results


def validate_block(
    blocks: Sequence[Block], block: Block, expected_level: DifficultyLevel
) -> ValidationResult:
    """Accept or reject a block proposed on the current tip.

    Clauses checked in this order, each with its own rejection reason:
    index continuity ("index"), tip linkage ("stale"), window range
    ("window"), size bound ("overflow"), digest recomputation ("digest"),
    difficulty prefix ("prefix" or "entitlement"), transaction signatures
    ("signature"), and every AT naming a TT below it or earlier in the
    block ("alarm"). The TTs below are the tail's ``trace_digests`` on a
    :class:`~proxichain.ledger.ChainTail`, and are hashed from every block
    of any other sequence, which keeps no memo.
    """
    if block.index != len(blocks):
        return ValidationResult(False, "index", f"expected {len(blocks)}, got {block.index}")
    if blocks and block.prev_hash != blocks[-1].block_hash:
        return ValidationResult(False, "stale", "prev_hash does not match the tip")
    result = _check_blocks(blocks, [block], expected_level)[0]
    if not result.accepted:
        return result
    below = blocks.trace_digests if isinstance(blocks, ChainTail) else trace_digests(blocks)
    return _check_alarms(block, below)[0]


def append_block(
    chain: Chain | ChainTail,
    block: Block,
    registry: Optional[AuthorizedRegistry] = None,
    credit: Optional[float] = None,
) -> None:
    """Validate a mined block against the tip and append it.

    When ``credit`` (the miner's credit at append time) is given, the
    miner's difficulty entitlement is checked against it; without it only
    the structural rules apply (offline verification has no credit history).
    Raises :class:`BlockRejectedError` with the failed clause on refusal.
    """
    if credit is not None:
        is_auth = registry.contains(block.miner) if registry is not None else False
        expected = difficulty_for(credit, is_auth)
    else:
        expected = DL_EASY
    result = validate_block(chain, block, expected)
    if not result.accepted:
        raise BlockRejectedError(result.reason, result.detail)
    chain.append(block)


# Most transactions whose signatures verify_chain checks in one batch. A
# batch holds a digest, key and signature per transaction and its sort
# orders, so the size trades memory for time: on the default ct-run --seed 5
# chain (25,729 tx, 85 MB) verify-chain peaked at 132.0-132.2 MB with 3072,
# 132.2-132.6 MB with 4096, 132.8-132.9 MB with 6144 and 137.6-137.7 MB with
# the whole chain in one batch, taking 2.80-3.13, 2.76-3.13, 2.75-3.24 and
# 2.66-2.84 s (five alternating runs each, two CPUs). Most of the peak is
# the loaded chain and its cached encodings. One batch would be ~0.2 s
# faster but 5 MB higher. Segments share their parsed keys, so the size does
# not change how often a key is parsed. The benchmark chain (1,758 tx) is
# one segment.
_SEGMENT_TX = 4096


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
    linkage, window, size, signature and alarm rule applies; a block with a
    broken link is still checked against every other rule, and a block
    whose stored index is wrong against none. The violations are those of
    :func:`validate_block` applied block by block, so an AT may name a TT
    in any block before its own, one that breaks a rule included.

    The blocks are checked in segments of at most ``_SEGMENT_TX``
    transactions (a larger block is a segment of its own). Each segment's
    signatures are checked in one batch split across the CPUs, while the
    calling thread checks the segment's other clauses, so the signature
    jobs held at once are those of one segment. On more than one segment,
    the segments share one store of parsed keys, so each sender's key is
    parsed once per call. The alarm clause then walks the blocks in order,
    each segment's once its other clauses are checked, gathering the TT
    digests below each block as it goes.
    """
    found: list[ChainViolation] = []
    segments: list[list[Block]] = []
    count = 0
    for i in range(1, len(blocks)):
        block = blocks[i]
        if block.index != i:
            found.append(ChainViolation(i, "index", f"stored index {block.index}"))
            continue
        if block.prev_hash != blocks[i - 1].block_hash:
            found.append(ChainViolation(i, "linkage", "prev_hash mismatch"))
        if not segments or count + len(block.transactions) > _SEGMENT_TX:
            segments.append([])
            count = 0
        segments[-1].append(block)
        count += len(block.transactions)

    # A one-segment chain keeps no store: its sorted chunks hold one parsed
    # key at a time.
    keys = {} if len(segments) > 1 else None
    checked = itertools.chain.from_iterable(
        _check_blocks(blocks, segment, DL_EASY, keys) for segment in segments
    )
    traces = trace_digests(blocks[:1])
    for i in range(1, len(blocks)):
        alarms, named = _check_alarms(blocks[i], traces)
        traces |= named
        if blocks[i].index != i:
            continue
        result = next(checked)
        if result.accepted:
            result = alarms
        if not result.accepted:
            found.append(ChainViolation(i, result.reason, result.detail))
    # Stable: a block's linkage violation stays ahead of its other one.
    found.sort(key=lambda violation: violation.index)
    if blocks and blocks[0] != make_genesis():
        found.insert(0, ChainViolation(0, "genesis", "block 0 is not the fixed genesis"))
    return found


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
