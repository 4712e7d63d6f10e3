"""Transactions, blocks, the chain store and windowed hashing.

Each record has one constructor. :func:`make_transactions` builds and signs
every transaction (:func:`make_transaction` is its one-item form), and
:func:`next_block` builds every unmined block on a chain's tip, which
:func:`proxichain.consensus.mine` then completes with a nonce and digest.
Only the genesis block and blocks read back from ``chain.jsonl`` are built
otherwise.

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
40 bytes, and every window preimage is joined from the cached encodings.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

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
    AT = "AT"          # alarm pushed to exposed contacts
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


def verify_transactions(txs: Sequence[Transaction]) -> list[bool]:
    """Per transaction: the sender id matches the embedded key, and the
    signature is valid under that key. Signatures are checked on every CPU."""
    id_ok = [node_id_for(tx.sender_pubkey) == tx.sender for tx in txs]
    verdicts = iter(
        verify_many(
            [
                (
                    tx.sender_pubkey,
                    tx_signing_bytes(tx.kind, tx.sender, tx.payload, tx.timestamp),
                    tx.signature,
                )
                for tx, ok in zip(txs, id_ok)
                if ok
            ]
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


# Trace/alarm payloads are (node_id, tick) pairs and nothing else: no names,
# no positions. Keeping the codec here makes that restriction inspectable.

def encode_contact_pairs(pairs: Sequence[tuple[bytes, int]]) -> bytes:
    out = [struct.pack("<I", len(pairs))]
    for peer, tick in pairs:
        if len(peer) != 32:
            raise ValueError("contact entries must be 32-byte node ids")
        out.append(peer + struct.pack("<Q", tick))
    return b"".join(out)


def decode_contact_pairs(payload: bytes) -> list[tuple[bytes, int]]:
    (count,) = struct.unpack_from("<I", payload, 0)
    pairs = []
    offset = 4
    for _ in range(count):
        peer = payload[offset : offset + 32]
        (tick,) = struct.unpack_from("<Q", payload, offset + 32)
        pairs.append((peer, tick))
        offset += 40
    return pairs


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


def encode_block_header(block: Block) -> bytes:
    """Everything that gets mined over: the block minus nonce and digest."""
    return block._full[: -8 - len(block.block_hash)]


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


def whash_preimage_prefix(blocks: Sequence[Block], candidate: Block) -> bytes:
    """Window predecessors (newest first) plus the candidate header.

    The predecessors are ``blocks[candidate.index - 1]`` and older, so
    ``blocks`` may run past the candidate (``verify_chain`` passes the whole
    chain). The nonce is appended separately by the mining loop so the
    expensive prefix can be hashed once per candidate instead of once per
    trial.
    """
    window = candidate.whash_window
    if not 0 <= window <= WINDOW_MAX:
        raise WindowDomainError(f"window {window} outside [0, {WINDOW_MAX}]")
    depth = max(window - 1, 0)
    index = candidate.index
    if depth > index or (depth and index > len(blocks)):
        raise WindowHistoryError(
            f"window {window} of block {index} needs {depth} predecessors, "
            f"chain has {len(blocks)} blocks"
        )
    parts = [encode_block_full(blocks[index - j]) for j in range(1, depth + 1)]
    parts.append(encode_block_header(candidate))
    return b"".join(parts)


def whash_digest(blocks: Sequence[Block], candidate: Block, nonce: int) -> bytes:
    """SHA-256 over window predecessors, candidate header and nonce."""
    prefix = whash_preimage_prefix(blocks, candidate)
    return hashlib.sha256(prefix + pack_nonce(nonce)).digest()


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


@dataclass
class Chain(Sequence[Block]):
    """Append-only block list rooted at a fixed genesis block."""

    blocks: list[Block] = field(default_factory=lambda: [make_genesis()])

    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, index):
        return self.blocks[index]

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def append(self, block: Block) -> None:
        self.blocks.append(block)


class ChainTail(Sequence[Block]):
    """The newest ``WINDOW_MAX`` blocks of a chain, under their chain indices.

    A window of w hashes the w - 1 <= 99 blocks below the candidate, and the
    tip is the newest of them, so :func:`next_block`, mining and validation
    on the tip read nothing older. ``len`` is the height of the whole chain;
    reading an evicted block raises ``IndexError``. Each block, genesis
    first, is handed to ``write`` as its ``chain.jsonl`` line when it is
    appended, so a file written through it equals :func:`save_chain`'s.
    """

    def __init__(self, write: Callable[[str], object]):
        self._write = write
        self._blocks: list[Block] = []
        self._height = 0
        self.append(make_genesis())

    def __len__(self) -> int:
        return self._height

    def __getitem__(self, index: int) -> Block:
        held = self._blocks
        first = self._height - len(held)
        position = index - first if index >= 0 else index + len(held)
        if not 0 <= position < len(held):
            raise IndexError(
                f"block {index} is not held: a tail of height {self._height} "
                f"holds blocks {first} to {self._height - 1}"
            )
        return held[position]

    def __iter__(self) -> Iterator[Block]:
        # Sequence's default would stop at the first evicted block, as if
        # the chain ended there; this raises instead.
        return (self[i] for i in range(self._height))

    def append(self, block: Block) -> None:
        self._write(block_to_json_line(block) + "\n")
        self._blocks.append(block)
        if len(self._blocks) > WINDOW_MAX:
            del self._blocks[0]
        self._height += 1


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


def block_to_json_line(block: Block) -> str:
    return json.dumps(block_to_dict(block), sort_keys=True, separators=(",", ":"))


def save_chain(chain: Chain, path: str) -> None:
    with open(path, "w") as fh:
        for block in chain.blocks:
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
    return Chain(blocks=blocks)


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

    def contains(self, node_id: bytes) -> bool:
        return any(n == node_id for n, _ in self.entries)

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
