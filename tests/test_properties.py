"""Property tests for chain verification over a small windowed chain, for
the transaction size that block batching budgets with, and for one tick of
the exposure kernel against the all-pairs rule.

The chain is built once per module. Every example either edits one block in
memory and checks exactly which digests fail, or mangles the saved
``chain.jsonl`` and checks that ``verify-chain`` keeps its exit codes.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from proxichain.simulation import SimConfig, _spread_tick, build_world

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
    return [block_to_json_line(block) for block in chain]


def _covering(j: int) -> set[int]:
    """Later blocks whose window hashes block j."""
    return {k for k, w in enumerate(WINDOWS, 1) if 1 <= k - j <= max(w - 1, 0)}


@SETTINGS
@given(data=st.data())
def test_one_changed_block_fails_exactly_the_windows_over_it(chain, data):
    j = data.draw(st.integers(1, len(WINDOWS)), label="block")
    block = chain[j]
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
    blocks = list(chain)
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


def _all_pairs_tick(points, masks, draws, p_inf):
    """Newly infected agents per radius: a susceptible agent whose draw is
    below ``p_inf`` and that lies within the radius of an agent infected
    before the tick. Distances are compared squared, in integers."""
    newly = {}
    for radius, mask in masks.items():
        newly[radius] = [
            i for i, (xi, yi) in enumerate(points)
            if not mask[i] and draws[i] < p_inf
            and any(mask[j] and (xi - xj) ** 2 + (yi - yj) ** 2 <= radius**2
                    for j, (xj, yj) in enumerate(points))
        ]
    return newly


_GRID = st.tuples(st.integers(0, 10), st.integers(0, 10))


@SETTINGS
@given(
    agents=st.lists(st.tuples(_GRID, st.booleans(), st.booleans(), st.booleans()),
                    min_size=2, max_size=14),
    radius=st.sampled_from([2.0, 3.0, 5.0]),
    p_inf=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
# Exact ties: (3, 4) and (0, 2) lie 5.0 and 2.0 from the origin.
@example(
    agents=[((0, 0), True, True, True), ((3, 4), False, False, False),
            ((0, 2), False, False, False), ((4, 4), False, True, False)],
    radius=2.0, p_inf=1.0, seed=0,
)
def test_spread_tick_is_the_all_pairs_rule(agents, radius, p_inf, seed):
    """On integer-grid positions, with infected masks that need not nest
    across radii, one tick infects exactly whom the all-pairs rule does,
    ties at the radius included, and returns the newly infected at the
    configured radius in ascending order."""
    n = len(agents)
    world = build_world(
        SimConfig(n_agents=n, ticks=1, p_inf=p_inf, infection_radius=radius, seed=seed), False
    )
    points = [point for point, *_ in agents]
    world.positions[:] = points
    for r, column in zip(sorted(world.infections), range(1, 4)):
        world.infections[r][:] = [agent[column] for agent in agents]
    masks = {r: mask.copy() for r, mask in world.infections.items()}
    draws = copy.deepcopy(world.streams["infection"]).random(n)
    expected = _all_pairs_tick(points, masks, draws, p_inf)

    returned = _spread_tick(world)
    for r, mask in masks.items():
        assert np.flatnonzero(world.infections[r] & ~mask).tolist() == expected[r]
        assert (world.infections[r] >= mask).all()
    assert returned.tolist() == expected[radius]
