"""Property tests for chain verification over a small windowed chain, and
for the transaction size that block batching budgets with.

The chain is built once per module. Every example either edits one block in
memory and checks exactly which digests fail, or mangles the saved
``chain.jsonl`` and checks that ``verify-chain`` keeps its exit codes.
"""

import dataclasses
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxichain import cli
from proxichain.consensus import DL_EASY, append_block, mine, verify_chain
from proxichain.identity import Role, generate_identity
from proxichain.ledger import (
    Chain,
    Transaction,
    TxKind,
    block_to_json_line,
    encode_transaction,
    make_transaction,
    next_block,
    transaction_size,
)

SENDERS = [generate_identity(Role.LIGHT, seed=s) for s in (701, 702)]
MINER = generate_identity(Role.LIGHT, seed=703)
# Window of block i (i >= 1); each stays within the i blocks before it, and
# several reach two or more blocks back.
WINDOWS = (2, 3, 1, 5, 0, 4, 7, 2, 5, 9, 3)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _build_chain() -> Chain:
    chain = Chain()
    for i, window in enumerate(WINDOWS, 1):
        txs = tuple(
            make_transaction(SENDERS[k], TxKind.ST, bytes([i, k, 7, 9]), i) for k in range(2)
        )
        candidate = next_block(chain, window, txs, MINER.node_id, i)
        append_block(chain, mine(chain, candidate, DL_EASY).block)
    return chain


@pytest.fixture(scope="module")
def chain() -> Chain:
    return _build_chain()


@pytest.fixture(scope="module")
def chain_lines(chain) -> list[str]:
    return [block_to_json_line(block) for block in chain.blocks]


def _covering(j: int) -> set[int]:
    """Later blocks whose window hashes block j."""
    return {k for k, w in enumerate(WINDOWS, 1) if 1 <= k - j <= max(w - 1, 0)}


@SETTINGS
@given(data=st.data())
def test_one_changed_block_fails_exactly_the_windows_over_it(chain, data):
    j = data.draw(st.integers(1, len(WINDOWS)), label="block")
    block = chain.blocks[j]
    if data.draw(st.booleans(), label="timestamp"):
        changed = dataclasses.replace(block, timestamp=block.timestamp + 1)
    else:
        t = data.draw(st.integers(0, len(block.transactions) - 1), label="tx")
        tx = block.transactions[t]
        at = data.draw(st.integers(0, len(tx.payload) - 1), label="byte")
        mask = data.draw(st.integers(1, 255), label="mask")
        payload = bytearray(tx.payload)
        payload[at] ^= mask
        txs = list(block.transactions)
        txs[t] = dataclasses.replace(tx, payload=bytes(payload))
        changed = dataclasses.replace(block, transactions=tuple(txs))
    blocks = list(chain.blocks)
    blocks[j] = changed
    reported = [(v.index, v.reason) for v in verify_chain(blocks)]
    expected = {(j, "digest")} | {(k, "digest") for k in _covering(j)}
    assert len(reported) == len(set(reported))
    assert set(reported) == expected


def _truncated(lines: list[str], data) -> str:
    # Cut strictly inside a line: a cut on a line boundary leaves a valid
    # shorter chain.
    row = data.draw(st.integers(0, len(lines) - 1), label="line")
    cut = data.draw(st.integers(1, len(lines[row]) - 1), label="cut")
    return "".join(line + "\n" for line in lines[:row]) + lines[row][:cut]


def _bit_flipped(lines: list[str], data) -> bytes:
    raw = bytearray("".join(line + "\n" for line in lines).encode())
    at = data.draw(st.integers(0, len(raw) - 1), label="byte")
    bit = data.draw(st.integers(0, 7), label="bit")
    # Upper-case hex decodes to the same bytes, so that flip changes nothing.
    assume(not (raw[at] in b"abcdef" and bit == 5))
    raw[at] ^= 1 << bit
    return bytes(raw)


def _reordered(lines: list[str], data) -> str:
    order = data.draw(st.permutations(range(len(lines))), label="order")
    assume(order != list(range(len(lines))))
    return "".join(lines[i] + "\n" for i in order)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _json_kind(value) -> type:
    return type(value) if not isinstance(value, float) else float


def _type_mangled(lines: list[str], data) -> str:
    blocks = [json.loads(line) for line in lines]
    row = data.draw(st.integers(0, len(blocks) - 1), label="line")
    target = blocks[row]
    if target["transactions"] and data.draw(st.booleans(), label="in_tx"):
        target = data.draw(st.sampled_from(target["transactions"]), label="tx")
    key = data.draw(st.sampled_from(sorted(target)), label="key")
    value = data.draw(
        _JSON_VALUES.filter(lambda v: _json_kind(v) is not _json_kind(target[key])), label="value"
    )
    target[key] = value
    return "".join(json.dumps(b) + "\n" for b in blocks)


@SETTINGS
@given(data=st.data(), mangle=st.sampled_from([_truncated, _bit_flipped, _reordered, _type_mangled]))
def test_mangled_chain_file_exits_2_or_3(chain_lines, tmp_path_factory, data, mangle):
    content = mangle(chain_lines, data)
    path = tmp_path_factory.getbasetemp() / "mangled_chain.jsonl"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert cli.main(["verify-chain", str(path)]) in (cli.EXIT_VALIDATION, cli.EXIT_CONFIG)


# Empty, one-byte and past-64-KiB payloads, plus anything short.
_PAYLOADS = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=1),
    st.integers(64 * 1024 + 1, 70_000).map(lambda n: bytes([n % 251]) * n),
    st.binary(max_size=300),
)


@SETTINGS
@given(
    kind=st.sampled_from(TxKind),
    sender=st.binary(max_size=40),
    pubkey=st.binary(max_size=80),
    payload=_PAYLOADS,
    timestamp=st.integers(0, 2**64 - 1),
    signature=st.binary(max_size=80),
)
def test_transaction_size_is_the_encoded_length(kind, sender, pubkey, payload, timestamp, signature):
    tx = Transaction(kind, sender, pubkey, payload, timestamp, signature)
    assert transaction_size(tx) == len(encode_transaction(tx))


@pytest.mark.parametrize("kind", list(TxKind), ids=lambda kind: kind.name)
@pytest.mark.parametrize("size", [0, 1, 64 * 1024 + 1], ids=["empty", "one-byte", "past-64KiB"])
def test_signed_transaction_size_is_the_encoded_length(kind, size):
    tx = make_transaction(SENDERS[0], kind, b"\x5a" * size, 3)
    assert transaction_size(tx) == len(encode_transaction(tx))
