"""Transactions, blocks, the chain store and windowed hashing.

Each record has one constructor. :func:`make_transactions` builds and signs
every transaction (:func:`make_transaction` is its one-item form), and
:func:`next_block` builds every unmined block on a chain's tip, which
:func:`proxichain.consensus.mine` then completes with a nonce and digest
(:func:`mined_block`). Only the genesis block and blocks read back from
``chain.jsonl`` are built otherwise.

Two encodings exist side by side and must not be confused:

* a canonical length-prefixed binary layout, used for everything that gets
  hashed or signed (any ambiguity here would let two different records share
  a digest);
* newline-delimited JSON with lowercase hex fields, used for persistence
  (``chain.jsonl``) and for the infected-users snapshot (``iup.json``).

Binary layout, little-endian throughout:

    tx        = kind u8 | len+sender | len+sender_pubkey | timestamp u64
                | len+payload | len+signature
    header    = index u64 | prev_hash 32B | window u8 | timestamp u64
                | len+miner | tx_count u32 | tx...
    full      = header | nonce u64 | block_hash 32B

where ``len+x`` is a u32 byte count followed by the bytes. The mining
preimage for a candidate block is the concatenation of the full encodings of
the window's predecessor blocks (newest first), the candidate's header and
the nonce; see :func:`whash_digest`.

Each :class:`Block` object encodes itself once, on first use, and keeps the
full encoding (``Block._full``); the header is that encoding minus its last
40 bytes. A window is hashed from the cached encodings
(:func:`whash_state`), joined at most 64 KiB at a time. A
:class:`ChainTail` keeps the last window state computed on it until its
next append, so a block mined and then validated on the tail has its window
hashed once.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

# ``verify`` is unused here but stays bound: the benchmark's tracer
# (``perfbench/tracing.py``) wraps ``proxichain.ledger.verify``, as it wraps
# ``.sign`` for every signature :func:`make_transactions` makes.
from .identity import NodeIdentity, node_id_for, sign, verify, verify_many

MAX_BLOCK_BYTES = 1_048_576
WINDOW_MAX = 100
ZERO_HASH = bytes(32)
_U64_MAX = 2**64 - 1
_PUBKEY_BYTES = 33  # compressed P-256 point

# The 8-byte nonce that ends every digest preimage; mining, validation and
# whash_digest all pack it through this one object.
pack_nonce = struct.Struct("<Q").pack


class TxKind(Enum):
    ST = "ST"          # submission of localization data (zone index)
    TT = "TT"          # trace: immediate-distance contact ids + timestamps
    QT = "QT"          # query against the infected-users pool
    RT = "RT"          # request for a trace check
    AT = "AT"          # alarm answering a TT, named by its signing digest
    REGISTRY = "RegistryTX"


_KIND_CODE = {k: i for i, k in enumerate(TxKind)}


class BlockOverflowError(Exception):
    """Serialized block size would exceed the 1 MiB bound."""


class WindowDomainError(Exception):
    """A window draw or window field lies outside [0, 100]."""


class WindowHistoryError(Exception):
    """A window asks for more predecessor blocks than the chain holds."""


def _lp(data: bytes) -> bytes:
    return struct.pack("<I", len(data)) + data


@dataclass(frozen=True)
class Transaction:
    kind: TxKind
    sender: bytes
    sender_pubkey: bytes
    payload: bytes
    timestamp: int
    signature: bytes


def tx_signing_bytes(kind: TxKind, sender: bytes, payload: bytes, timestamp: int) -> bytes:
    return (
        bytes([_KIND_CODE[kind]])
        + _lp(sender)
        + struct.pack("<Q", timestamp)
        + _lp(payload)
    )


def signing_digest(tx: Transaction) -> bytes:
    """SHA-256 of the message ``tx``'s signature covers. It leaves the
    signature out, so a re-signed transaction keeps it; an AT's payload is
    this digest of the TT it answers."""
    return hashlib.sha256(tx_signing_bytes(tx.kind, tx.sender, tx.payload, tx.timestamp)).digest()


def trace_digests(blocks: Iterable[Block]) -> set[bytes]:
    """The :func:`signing_digest` of every TT in ``blocks``: what an AT may
    name."""
    return {
        signing_digest(tx)
        for block in blocks
        for tx in block.transactions
        if tx.kind is TxKind.TT
    }


def make_transaction(
    identity: NodeIdentity, kind: TxKind, payload: bytes, timestamp: int
) -> Transaction:
    """Build and sign one transaction."""
    return make_transactions([(identity, kind, payload)], timestamp)[0]


def make_transactions(
    items: Sequence[tuple[NodeIdentity, TxKind, bytes]], timestamp: int
) -> list[Transaction]:
    """A signed transaction for each ``(identity, kind, payload)``, in order.

    Every transaction the package signs is built here. Signing stays on
    the calling thread: helper threads made no measurable difference to a
    ``ct-run``, whose batches hold ~10-130 signatures.
    """
    return [
        Transaction(
            kind=kind,
            sender=identity.node_id,
            sender_pubkey=identity.public_key,
            payload=payload,
            timestamp=timestamp,
            signature=sign(
                identity, tx_signing_bytes(kind, identity.node_id, payload, timestamp)
            ),
        )
        for identity, kind, payload in items
    ]


def verify_transactions(
    txs: Sequence[Transaction],
    meanwhile: Callable[[], object] = lambda: None,
    keys: Optional[dict] = None,
) -> list[bool]:
    """Per transaction: the sender id matches the embedded key, and the
    signature is valid under that key. Signatures are checked on every CPU
    while the calling thread runs ``meanwhile``, with ``keys`` as the
    caller's store of parsed keys (see
    :func:`proxichain.identity.verify_many`).

    Each job carries the SHA-256 digest of its signed message, taken as the
    job is built, so one signed message exists at a time rather than a copy
    of every payload in the batch."""
    id_ok = [node_id_for(tx.sender_pubkey) == tx.sender for tx in txs]
    verdicts = iter(
        verify_many(
            [
                (tx.sender_pubkey, signing_digest(tx), tx.signature)
                for tx, ok in zip(txs, id_ok)
                if ok
            ],
            meanwhile,
            keys,
        )
    )
    return [ok and next(verdicts) for ok in id_ok]


def encode_transaction(tx: Transaction) -> bytes:
    return (
        bytes([_KIND_CODE[tx.kind]])
        + _lp(tx.sender)
        + _lp(tx.sender_pubkey)
        + struct.pack("<Q", tx.timestamp)
        + _lp(tx.payload)
        + _lp(tx.signature)
    )


def transaction_size(tx: Transaction) -> int:
    """``len(encode_transaction(tx))``, from the field lengths alone: the
    kind byte, four length-prefixed fields and the u64 timestamp."""
    return 25 + len(tx.sender) + len(tx.sender_pubkey) + len(tx.payload) + len(tx.signature)


# Trace payloads are (node_id, tick) pairs and nothing else: no names, no
# positions. Keeping the codec here makes that restriction inspectable. An
# alarm carries no list of its own: its payload is the trace's
# ``signing_digest``.

# One payload record: a 32-byte node id and a u64 tick, 40 bytes unpadded.
_CONTACT_RECORD = np.dtype([("peer", np.uint8, (32,)), ("tick", "<u8")])


def encode_contact_pairs(peers: np.ndarray, ticks: np.ndarray) -> bytes:
    """The payload listing contact ``k`` as node id ``peers[k]`` (a row of
    32 bytes of a ``(count, 32)`` ``uint8`` array) met at ``ticks[k]``,
    after a u32 count; built as one structured array."""
    peers = np.asarray(peers, dtype=np.uint8)
    ticks = np.asarray(ticks, dtype=np.int64)
    if peers.ndim != 2 or peers.shape[1] != 32:
        raise ValueError("contact entries must be 32-byte node ids")
    if ticks.shape != peers.shape[:1] or (ticks < 0).any():
        raise ValueError("contact entries need one tick >= 0 each")
    records = np.empty(len(peers), dtype=_CONTACT_RECORD)
    records["peer"] = peers
    records["tick"] = ticks
    return struct.pack("<I", len(records)) + records.tobytes()


@dataclass(frozen=True)
class Block:
    index: int
    prev_hash: bytes
    whash_window: int
    nonce: int
    transactions: tuple[Transaction, ...]
    miner: bytes
    timestamp: int
    block_hash: bytes

    @cached_property
    def _full(self) -> bytes:
        # Cached per object: ``replace`` builds a new object, so an edited
        # copy of a block is encoded afresh.
        parts = [
            struct.pack("<Q", self.index),
            self.prev_hash,
            bytes([self.whash_window]),
            struct.pack("<Q", self.timestamp),
            _lp(self.miner),
            struct.pack("<I", len(self.transactions)),
        ]
        parts.extend(encode_transaction(tx) for tx in self.transactions)
        parts.append(struct.pack("<Q", self.nonce))
        parts.append(self.block_hash)
        return b"".join(parts)


def encode_block_header(block: Block) -> memoryview:
    """Everything that gets mined over: the block minus nonce and digest,
    as a view of the cached encoding, not a copy."""
    return memoryview(block._full)[: -8 - len(block.block_hash)]


def encode_block_full(block: Block) -> bytes:
    return block._full


# ---------------------------------------------------------------------------
# Windowed hashing
# ---------------------------------------------------------------------------

def whash_window_for(chain_length: int, rng_draw: int) -> int:
    """Resolve a window draw against the available history.

    A draw larger than the current number of blocks cannot be honored, so it
    collapses to zero (plain single-block hashing).
    """
    if not 0 <= rng_draw <= WINDOW_MAX:
        raise WindowDomainError(f"window draw {rng_draw} outside [0, {WINDOW_MAX}]")
    if chain_length < 0:
        raise ValueError("chain_length must be >= 0")
    return rng_draw if rng_draw <= chain_length else 0


def whash_window_parts(
    blocks: Sequence[Block], candidate: Block
) -> list[bytes | memoryview]:
    """The W-Hash preimage before the nonce, part by part: the window
    predecessors' full encodings (newest first), then the candidate header.
    The parts are the cached encodings themselves, not copies.

    The predecessors are ``blocks[candidate.index - 1]`` and older, so
    ``blocks`` may run past the candidate (``verify_chain`` passes the whole
    chain). The nonce is left out so that the expensive prefix can be hashed
    once per candidate instead of once per trial.
    """
    window = candidate.whash_window
    if not 0 <= window <= WINDOW_MAX:
        raise WindowDomainError(f"window {window} outside [0, {WINDOW_MAX}]")
    depth = max(window - 1, 0)
    index = candidate.index
    if depth > index or (depth and index > len(blocks)):
        raise WindowHistoryError(
            f"window {window} of block {index} needs {depth} predecessors, "
            f"the block has {min(index, len(blocks))}"
        )
    parts: list[bytes | memoryview] = [
        encode_block_full(blocks[index - j]) for j in range(1, depth + 1)
    ]
    parts.append(encode_block_header(candidate))
    return parts


# Most bytes joined into one hashlib update. hashlib holds the interpreter
# lock through an update of under 2 KiB, and verify_chain's structural pass
# hashes windows beside the signature threads, so parts shorter than this
# are joined into runs; a part this long is hashed where it lies.
_HASH_RUN = 65536


def whash_state(blocks: Sequence[Block], candidate: Block) -> hashlib._Hash:
    """A SHA-256 state fed the window parts (:func:`whash_window_parts`),
    i.e. everything a digest covers but the nonce: mining copies it once per
    trial, validation adds the block's nonce. Every call returns a state of
    its own.

    On a :class:`ChainTail` the last state computed stays on the tail until
    its next append, with a reference to the candidate's encoding. A later
    call on the same tail reuses it when the candidate has the same index
    and window and every header byte is the same, so validating the block
    just mined there hashes no window; a block changed in any header byte
    misses and is hashed afresh. A :class:`Chain` keeps nothing, since it is
    a plain list that may be edited in place."""
    if not isinstance(blocks, ChainTail):
        return _hash_window(whash_window_parts(blocks, candidate))
    key = (len(blocks), candidate.index, candidate.whash_window)
    header = encode_block_header(candidate)
    memo = blocks._window_memo
    if (
        memo is not None
        and memo[0] == key
        and len(memo[1]) == len(header)
        and candidate._full.startswith(memo[1])
    ):
        return memo[2].copy()
    h = _hash_window(whash_window_parts(blocks, candidate))
    blocks._window_memo = (key, header, h.copy())
    return h


def _hash_window(parts: list[bytes | memoryview]) -> hashlib._Hash:
    """A SHA-256 state fed ``parts`` in order. Besides the parts it holds
    at most one run of ``_HASH_RUN`` bytes."""
    if sum(map(len, parts)) <= _HASH_RUN:
        # One run, skipping the loop's per-part cost: a window of small
        # blocks (mine_bench's empty ones) costs what a plain join does.
        return hashlib.sha256(b"".join(parts))
    h = hashlib.sha256()
    run: list[bytes | memoryview] = []
    size = 0
    for part in parts:
        if run and size + len(part) > _HASH_RUN:
            h.update(b"".join(run))
            run, size = [], 0
        if len(part) >= _HASH_RUN:
            h.update(part)
        else:
            run.append(part)
            size += len(part)
    if run:
        h.update(b"".join(run))
    return h


def whash_preimage_prefix(blocks: Sequence[Block], candidate: Block) -> bytes:
    """The parts of :func:`whash_window_parts` joined: the preimage a digest
    covers before the nonce. Nothing that hashes calls this; it is for
    inspecting a window."""
    return b"".join(whash_window_parts(blocks, candidate))


def whash_digest(blocks: Sequence[Block], candidate: Block, nonce: int) -> bytes:
    """SHA-256 over window predecessors, candidate header and nonce."""
    h = whash_state(blocks, candidate)
    h.update(pack_nonce(nonce))
    return h.digest()


def mined_block(candidate: Block, nonce: int, block_hash: bytes) -> Block:
    """``candidate`` completed with its nonce and digest. Its encoding is
    the candidate's header with the two appended, so the transactions are
    not encoded again."""
    block = replace(candidate, nonce=nonce, block_hash=block_hash)
    # A cached_property lives in the instance dict; this fills it with the
    # bytes the block would encode to.
    vars(block)["_full"] = b"".join(
        (encode_block_header(candidate), pack_nonce(nonce), block_hash)
    )
    return block


# ---------------------------------------------------------------------------
# Chain
# ---------------------------------------------------------------------------

def make_genesis() -> Block:
    base = Block(
        index=0,
        prev_hash=ZERO_HASH,
        whash_window=0,
        nonce=0,
        transactions=(),
        miner=ZERO_HASH,
        timestamp=0,
        block_hash=ZERO_HASH,
    )
    return replace(base, block_hash=whash_digest((), base, 0))


def next_block(
    blocks: Sequence[Block],
    window: int,
    transactions: Sequence[Transaction],
    miner: bytes,
    timestamp: int,
) -> Block:
    """The unmined block on the tip of ``blocks``, for ``mine`` to finish.

    It takes ``window`` as given: resolving a draw against the history is
    :func:`whash_window_for`'s job.
    """
    return Block(
        index=len(blocks),
        prev_hash=blocks[-1].block_hash,
        whash_window=window,
        nonce=0,
        transactions=tuple(transactions),
        miner=miner,
        timestamp=timestamp,
        block_hash=ZERO_HASH,
    )


class Chain(list[Block]):
    """Append-only block list: ``Chain()`` holds the fixed genesis block,
    ``Chain(blocks)`` the blocks given."""

    def __init__(self, blocks: Optional[Iterable[Block]] = None):
        super().__init__([make_genesis()] if blocks is None else blocks)


class HeldBlock:
    """What a :class:`ChainTail` keeps of a block: its index, ``block_hash``
    and full encoding, which is all that :func:`next_block`, a window and
    validation read of a block below the candidate. The block's
    transactions are dropped, so each payload is held once, inside the
    encoding. :func:`encode_block_full` reads it as it reads a block."""

    __slots__ = ("index", "block_hash", "_full")

    def __init__(self, block: Block):
        self.index = block.index
        self.block_hash = block.block_hash
        self._full = block._full


class ChainTail(Sequence[HeldBlock]):
    """The newest ``WINDOW_MAX`` blocks of a chain, under their chain indices.

    A window of w hashes the w - 1 <= 99 blocks below the candidate, and the
    tip is the newest of them, so :func:`next_block`, mining and validation
    on the tip read nothing older. Each block is kept as a
    :class:`HeldBlock`. ``len`` is the height of the whole chain; reading an
    evicted block raises ``IndexError``. Each block, genesis first, is
    written to ``file``, an open text file, as its ``chain.jsonl`` line
    when it is appended, so the file equals :func:`save_chain`'s.

    A tail lasts one run, and it carries three stores for that run: the
    last window state :func:`whash_state` computed on it (dropped on
    append), ``parsed_keys``, the parsed sender keys that validation on the
    tail reads and adds to (see :func:`proxichain.identity.verify_many`),
    and ``trace_digests``, the :func:`trace_digests` of every block
    appended, which the alarm clause reads in place of the evicted blocks.

    ``simulation.run_epoch`` may hand the blocks to a forked process, whose
    copy of the tail appends them and writes their lines to its copy of
    ``file``. The caller's tail then only counts the blocks
    (:meth:`append_elsewhere`), and writes nothing.
    """

    def __init__(self, file: TextIO):
        self.file = file
        self._blocks: list[HeldBlock] = []
        self._height = 0
        self._window_memo: Optional[tuple] = None
        self.parsed_keys: dict = {}
        self.trace_digests: set[bytes] = set()
        self.append(make_genesis())

    def __len__(self) -> int:
        return self._height

    def __getitem__(self, index: int) -> HeldBlock:
        held = self._blocks
        first = self._height - len(held)
        position = index - first if index >= 0 else index + len(held)
        if not 0 <= position < len(held):
            raise IndexError(
                f"block {index} is not held: a tail of height {self._height} "
                f"holds blocks {first} to {self._height - 1}"
            )
        return held[position]

    def __iter__(self) -> Iterator[HeldBlock]:
        # Sequence's default would stop at the first evicted block, as if
        # the chain ended there; this raises instead.
        return (self[i] for i in range(self._height))

    def append(self, block: Block) -> None:
        """Hold ``block`` as the new tip, after writing its line."""
        self.file.write(block_to_json_line(block) + "\n")
        self.trace_digests |= trace_digests((block,))
        self._blocks.append(HeldBlock(block))
        if len(self._blocks) > WINDOW_MAX:
            del self._blocks[0]
        self._height += 1
        self._window_memo = None

    def append_elsewhere(self) -> None:
        """Count one block appended to another process's copy of this tail,
        and hold no block from here on: reading any block then raises
        ``IndexError``, as reading an evicted block does. Nothing is
        written: that process writes the line."""
        self._blocks.clear()
        self._height += 1
        self._window_memo = None


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def transaction_to_dict(tx: Transaction) -> dict:
    return {
        "kind": tx.kind.value,
        "sender": tx.sender.hex(),
        "sender_pubkey": tx.sender_pubkey.hex(),
        "timestamp": tx.timestamp,
        "payload": tx.payload.hex(),
        "signature": tx.signature.hex(),
    }


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _uint(d: dict, key: str, high: int = _U64_MAX) -> int:
    value = d[key]
    if type(value) is not int or not 0 <= value <= high:
        raise ValueError(f"{key} must be an integer in [0, {high}], got {value!r}")
    return value


def _hex(d: dict, key: str, size: Optional[int] = None) -> bytes:
    value = d[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a hex string, got {value!r}")
    raw = bytes.fromhex(value)
    if size is not None and len(raw) != size:
        raise ValueError(f"{key} must be {size} bytes, got {len(raw)}")
    return raw


def transaction_from_dict(d: dict) -> Transaction:
    """Inverse of :func:`transaction_to_dict`; ValueError on malformed input."""
    d = _object(d, "transaction")
    return Transaction(
        kind=TxKind(d["kind"]),
        sender=_hex(d, "sender", 32),
        sender_pubkey=_hex(d, "sender_pubkey", _PUBKEY_BYTES),
        payload=_hex(d, "payload"),
        timestamp=_uint(d, "timestamp"),
        signature=_hex(d, "signature"),
    )


def block_to_dict(block: Block) -> dict:
    return {
        "index": block.index,
        "prev_hash": block.prev_hash.hex(),
        "whash_window": block.whash_window,
        "nonce": block.nonce,
        "timestamp": block.timestamp,
        "miner": block.miner.hex(),
        "block_hash": block.block_hash.hex(),
        "transactions": [transaction_to_dict(tx) for tx in block.transactions],
    }


def block_from_dict(d: dict) -> Block:
    """Inverse of :func:`block_to_dict`; ValueError on malformed input.

    Checks types, byte lengths and integer ranges, so that every block it
    returns can be encoded; whether the block is valid is for
    :func:`proxichain.consensus.verify_chain` to say.
    """
    d = _object(d, "block")
    txs = d["transactions"]
    if not isinstance(txs, list):
        raise ValueError("transactions must be a JSON array")
    return Block(
        index=_uint(d, "index"),
        prev_hash=_hex(d, "prev_hash", 32),
        whash_window=_uint(d, "whash_window", WINDOW_MAX),
        nonce=_uint(d, "nonce"),
        transactions=tuple(transaction_from_dict(t) for t in txs),
        miner=_hex(d, "miner", 32),
        timestamp=_uint(d, "timestamp"),
        block_hash=_hex(d, "block_hash", 32),
    )


def _transaction_json(tx: Transaction) -> str:
    return (
        f'{{"kind":"{tx.kind.value}","payload":"{tx.payload.hex()}",'
        f'"sender":"{tx.sender.hex()}","sender_pubkey":"{tx.sender_pubkey.hex()}",'
        f'"signature":"{tx.signature.hex()}","timestamp":{tx.timestamp}}}'
    )


def block_to_json_line(block: Block) -> str:
    """``json.dumps(block_to_dict(block), sort_keys=True, separators=(",",
    ":"))``, written from a template with the keys in sorted order. Every
    value is an int, a ``TxKind`` value or lowercase hex, none of which
    JSON escapes."""
    txs = ",".join(map(_transaction_json, block.transactions))
    return (
        f'{{"block_hash":"{block.block_hash.hex()}","index":{block.index},'
        f'"miner":"{block.miner.hex()}","nonce":{block.nonce},'
        f'"prev_hash":"{block.prev_hash.hex()}","timestamp":{block.timestamp},'
        f'"transactions":[{txs}],"whash_window":{block.whash_window}}}'
    )


def save_chain(chain: Chain, path: str) -> None:
    with open(path, "w") as fh:
        for block in chain:
            fh.write(block_to_json_line(block))
            fh.write("\n")


def load_chain(path: str) -> Chain:
    """Read a ``save_chain`` file; a line that does not decode raises
    ``ValueError`` naming its 1-based line number, whatever is wrong with it
    (bad UTF-8 or JSON, nesting too deep to parse, a missing field or a bad
    value)."""
    blocks = []
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                line = raw.decode().strip()
                if not line:
                    continue
                blocks.append(block_from_dict(json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"line {number}: missing field {exc}") from exc
            except (ValueError, TypeError, RecursionError) as exc:
                raise ValueError(f"line {number}: {exc}") from exc
    if not blocks:
        raise ValueError(f"{path} holds no blocks")
    return Chain(blocks)


# ---------------------------------------------------------------------------
# Infected users pool
# ---------------------------------------------------------------------------

@dataclass
class InfectedUsersPool:
    """Replicated record of diagnosed node ids with a retention horizon."""

    retention_ticks: int
    entries: set[tuple[bytes, int]] = field(default_factory=set)

    def add(self, node_id: bytes, tick: int) -> None:
        self.entries.add((node_id, tick))

    def prune(self, now: int) -> None:
        horizon = now - self.retention_ticks
        self.entries = {(n, t) for n, t in self.entries if t >= horizon}

    def to_json(self) -> str:
        rows = [
            {"node_id": n.hex(), "tick": t}
            for n, t in sorted(self.entries, key=lambda e: (e[1], e[0]))
        ]
        return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def save_iup(pool: InfectedUsersPool, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(pool.to_json())
        fh.write("\n")
