import dataclasses
import hashlib
import io
import json
import struct
import threading
import tracemalloc

import numpy as np
import pytest

import proxichain.consensus as consensus
import proxichain.identity as identity
import proxichain.ledger as ledger
from proxichain import simulation
from proxichain.consensus import (
    DL_EASY,
    BlockRejectedError,
    append_block,
    mine,
    validate_block,
    verify_chain,
)
from proxichain.identity import NodeIdentity, Role, SigningCapabilityError, generate_identity
from proxichain.ledger import (
    MAX_BLOCK_BYTES,
    WINDOW_MAX,
    Block,
    Chain,
    ChainTail,
    InfectedUsersPool,
    TxKind,
    WindowDomainError,
    WindowHistoryError,
    block_to_dict,
    block_to_json_line,
    encode_block_full,
    encode_block_header,
    encode_contact_pairs,
    encode_transaction,
    load_chain,
    make_genesis,
    make_transaction,
    make_transactions,
    next_block,
    save_chain,
    signing_digest,
    tx_signing_bytes,
    verify_transactions,
    whash_digest,
    whash_preimage_prefix,
    whash_state,
    whash_window_for,
)

MINER = generate_identity(Role.LIGHT, seed=501)
SENDER = generate_identity(Role.LIGHT, seed=502)


def _tx(payload: bytes, ts: int = 1):
    return make_transaction(SENDER, TxKind.ST, payload, ts)


def _mine_next(chain: Chain, window: int, txs=(), timestamp: int = 10) -> Block:
    return mine(chain, next_block(chain, window, txs, MINER.node_id, timestamp), DL_EASY).block


def _grow(length: int, window: int = 0) -> Chain:
    chain = Chain()
    for i in range(length):
        block = _mine_next(chain, whash_window_for(len(chain), window), timestamp=i + 1)
        append_block(chain, block)
    return chain


class TestWindowResolution:
    def test_draw_above_chain_length_collapses_to_zero(self):
        assert whash_window_for(5, 14) == 0

    def test_draw_within_history_is_kept(self):
        assert whash_window_for(100, 14) == 14

    def test_zero_draw(self):
        assert whash_window_for(0, 0) == 0

    def test_draw_equal_to_length_is_kept(self):
        assert whash_window_for(14, 14) == 14

    def test_draw_out_of_domain(self):
        with pytest.raises(WindowDomainError):
            whash_window_for(10, 101)
        with pytest.raises(WindowDomainError):
            whash_window_for(10, -1)

    def test_negative_chain_length(self):
        with pytest.raises(ValueError):
            whash_window_for(-1, 0)


class TestWindowedDigest:
    def test_window_zero_and_one_ignore_predecessors(self):
        chain_a = _grow(5)
        chain_b = Chain()
        for i in range(5):
            append_block(chain_b, _mine_next(chain_b, 0, timestamp=100 + i))
        assert chain_a[-1].block_hash != chain_b[-1].block_hash

        for window in (0, 1):
            cand = Block(
                index=6,
                prev_hash=b"\xaa" * 32,
                whash_window=window,
                nonce=7,
                transactions=(),
                miner=MINER.node_id,
                timestamp=77,
                block_hash=b"\x00" * 32,
            )
            da = whash_digest(chain_a, cand, 7)
            db = whash_digest(chain_b, cand, 7)
            assert da == db

    def test_deeper_window_sees_predecessors(self):
        chain = _grow(6)
        cand = dataclasses.replace(chain[-1], index=6, whash_window=3, prev_hash=chain[-1].block_hash)
        reference = whash_digest(chain, cand, 0)

        tampered = list(chain)
        tampered[5] = dataclasses.replace(tampered[5], timestamp=9999)
        assert whash_digest(tampered, cand, 0) != reference

        outside = list(chain)
        outside[2] = dataclasses.replace(outside[2], timestamp=9999)
        assert whash_digest(outside, cand, 0) == reference

    def test_windows_wider_than_history_rejected(self):
        chain = _grow(2)
        cand = Block(
            index=3,
            prev_hash=chain[-1].block_hash,
            whash_window=50,
            nonce=0,
            transactions=(),
            miner=MINER.node_id,
            timestamp=5,
            block_hash=b"\x00" * 32,
        )
        with pytest.raises(WindowHistoryError):
            whash_preimage_prefix(chain, cand)

    def test_history_past_the_candidate_is_ignored(self):
        chain = _grow(6, window=3)
        for block in chain[1:]:
            assert whash_preimage_prefix(chain, block) == whash_preimage_prefix(
                chain[: block.index], block
            )

    def test_candidate_beyond_the_history_rejected(self):
        chain = _grow(3)
        cand = dataclasses.replace(chain[-1], index=5, whash_window=2)
        with pytest.raises(WindowHistoryError):
            whash_preimage_prefix(chain, cand)

    def test_nonce_changes_digest(self):
        chain = _grow(3)
        cand = dataclasses.replace(chain[-1], index=3, prev_hash=chain[-1].block_hash)
        assert whash_digest(chain, cand, 1) != whash_digest(chain, cand, 2)

    @pytest.mark.parametrize("run", [64, 300, 65536])
    def test_state_hashes_the_joined_prefix(self, run, monkeypatch):
        """Hashing the parts gives the digest of the joined prefix, whether
        the window is one run, or its parts are joined into runs, flushed
        early by a longer part, or hashed where they lie."""
        monkeypatch.setattr(ledger, "_HASH_RUN", run)
        chain = Chain()
        for k in range(8):
            txs = [_tx(bytes([k]) * (37 * k * k), ts=k)] if k % 3 else []
            append_block(chain, _mine_next(chain, whash_window_for(len(chain), k), txs, k))
        for block in chain[1:]:
            prefix = whash_preimage_prefix(chain, block)
            state = whash_state(chain, block)
            assert state.copy().digest() == hashlib.sha256(prefix).digest()
            state.update(block.nonce.to_bytes(8, "little"))
            assert state.digest() == block.block_hash


class TestBlockEncoding:
    def test_cached_encoding_does_not_survive_replace(self):
        block = _mine_next(_grow(2), 2, txs=[_tx(b"abc")], timestamp=5)
        full = encode_block_full(block)
        assert encode_block_full(block) is full
        moved = dataclasses.replace(block, timestamp=6)
        assert encode_block_full(moved) != full
        assert encode_block_header(moved) != encode_block_header(block)
        assert encode_block_full(dataclasses.replace(moved, timestamp=5)) == full

    def test_mined_block_reuses_the_candidate_encoding(self, monkeypatch):
        """mine encodes the candidate's transactions once and builds the
        mined block's encoding from the candidate's header: it equals a
        fresh encoding of the same block."""
        chain = _grow(3)
        candidate = next_block(chain, 3, [_tx(b"abc"), _tx(b"de", ts=2)], MINER.node_id, 9)
        encoded = []
        original = ledger.encode_transaction
        monkeypatch.setattr(ledger, "encode_transaction", lambda tx: encoded.append(tx) or original(tx))
        block = mine(chain, candidate, DL_EASY).block
        full = encode_block_full(block)
        assert encoded == list(candidate.transactions)
        # replace builds a new object, which encodes its transactions afresh.
        assert full == encode_block_full(dataclasses.replace(block))
        assert len(encoded) == 4

    def test_full_encoding_is_header_nonce_digest(self):
        block = _mine_next(_grow(2), 2, txs=[_tx(b"abc")], timestamp=5)
        assert encode_block_full(block) == (
            bytes(encode_block_header(block))
            + block.nonce.to_bytes(8, "little")
            + block.block_hash
        )

    def test_verify_chain_encodes_each_transaction_once(self, monkeypatch):
        import proxichain.ledger as ledger

        chain = Chain()
        for i in range(6):
            txs = [_tx(bytes([i, k]), ts=i) for k in range(2)]
            window = whash_window_for(len(chain), 4)
            append_block(chain, _mine_next(chain, window, txs, timestamp=i + 1))
        loaded = Chain([dataclasses.replace(b) for b in chain])
        calls = []
        original = ledger.encode_transaction
        monkeypatch.setattr(ledger, "encode_transaction", lambda tx: calls.append(tx) or original(tx))
        assert verify_chain(loaded) == []
        assert len(calls) == 12


class TestNextBlock:
    def test_every_field_is_set_on_the_tip(self):
        chain = _grow(3)  # genesis plus three
        txs = [_tx(b"a"), _tx(b"b")]
        block = next_block(chain, 2, txs, MINER.node_id, 77)
        assert (block.index, block.prev_hash, block.whash_window) == (4, chain[-1].block_hash, 2)
        assert type(block.transactions) is tuple and block.transactions == tuple(txs)
        assert (block.miner, block.timestamp) == (MINER.node_id, 77)
        assert (block.nonce, block.block_hash) == (0, bytes(32))
        assert next_block(chain, 2, txs, MINER.node_id, 77) == block

    def test_window_is_taken_as_given(self):
        # whash_window_for(2, 50) would collapse the draw to 0.
        assert next_block(_grow(2), 50, (), MINER.node_id, 1).whash_window == 50

    def test_mined_block_is_appended(self):
        chain = _grow(3)
        candidate = next_block(chain, 2, [_tx(b"x")], MINER.node_id, 9)
        mined = mine(chain, candidate, DL_EASY).block
        append_block(chain, mined)
        assert chain[-1] is mined and len(chain) == 5
        assert verify_chain(chain) == []


class TestAppend:
    def test_genesis_is_fixed_point(self):
        assert make_genesis() == make_genesis()
        assert make_genesis().index == 0

    def test_happy_path(self):
        chain = Chain()
        block = _mine_next(chain, 0, txs=[_tx(b"hello")])
        append_block(chain, block)
        assert len(chain) == 2
        assert chain[-1] is block

    def test_stale_prev_hash_rejected(self):
        chain = _grow(3)
        stale = dataclasses.replace(chain[1])
        fork = Block(
            index=len(chain),
            prev_hash=stale.block_hash,
            whash_window=0,
            nonce=0,
            transactions=(),
            miner=MINER.node_id,
            timestamp=50,
            block_hash=b"\x00" * 32,
        )
        mined = mine(Chain(chain), dataclasses.replace(fork, prev_hash=chain[-1].block_hash), DL_EASY).block
        bad = dataclasses.replace(mined, prev_hash=stale.block_hash)
        with pytest.raises(BlockRejectedError) as err:
            append_block(chain, bad)
        assert err.value.reason == "stale"

    def test_wrong_digest_rejected(self):
        chain = _grow(2)
        block = _mine_next(chain, 0)
        forged = dataclasses.replace(block, block_hash=b"\x00" * 32)
        with pytest.raises(BlockRejectedError) as err:
            append_block(chain, forged)
        assert err.value.reason == "digest"

    def test_wrong_index_rejected(self):
        chain = _grow(2)
        block = _mine_next(chain, 0)
        shifted = dataclasses.replace(block, index=9)
        with pytest.raises(BlockRejectedError) as err:
            append_block(chain, shifted)
        assert err.value.reason == "index"

    def test_bad_tx_signature_rejected(self):
        chain = Chain()
        tx = _tx(b"payload")
        bad_tx = dataclasses.replace(tx, payload=b"other")
        block = _mine_next(chain, 0, txs=[bad_tx])
        with pytest.raises(BlockRejectedError) as err:
            append_block(chain, block)
        assert err.value.reason == "signature"


SENDERS = [generate_identity(Role.LIGHT, seed=600 + k) for k in range(9)]


@pytest.fixture(params=[1, 2, 5], ids=["one-chunk", "two-chunks", "five-chunks"])
def cores(request, monkeypatch):
    """Split every verify batch into this many chunks, however small."""
    monkeypatch.setattr(identity, "_CORES", request.param)
    monkeypatch.setattr(identity, "_MIN_VERIFY_CHUNK", 1)
    return request.param


class TestBatchSignatures:
    """Verify batches are split into contiguous chunks, one per CPU. With 9
    transactions, position 0 is in the first chunk, 8 in the last, and 4
    starts the second chunk of two or sits inside the middle chunk of five.
    Signing stays on the calling thread."""

    def _items(self):
        return [(ident, TxKind.ST if k % 2 else TxKind.QT, bytes([k]) * (k + 1))
                for k, ident in enumerate(SENDERS)]

    def test_batch_equals_one_at_a_time(self, cores):
        batch = make_transactions(self._items(), 42)
        single = [make_transaction(ident, kind, payload, 42) for ident, kind, payload in self._items()]
        assert batch == single
        assert [encode_transaction(tx) for tx in batch] == [encode_transaction(tx) for tx in single]

    @pytest.mark.parametrize("bad", [(0,), (4,), (8,), (4, 8), (0, 4, 8)])
    def test_first_bad_sender_is_reported(self, cores, bad):
        txs = make_transactions(self._items(), 3)
        for k in bad:
            txs[k] = dataclasses.replace(txs[k], payload=b"forged")
        assert verify_transactions(txs) == [k not in bad for k in range(len(txs))]
        chain = Chain()
        block = _mine_next(chain, 0, txs)
        result = validate_block(chain, block, DL_EASY)
        assert (result.reason, result.detail) == (
            "signature", f"transaction from {SENDERS[bad[0]].node_id.hex()[:12]}"
        )
        assert [(v.index, v.reason, v.detail) for v in verify_chain(chain + [block])] == [
            (1, "signature", result.detail)
        ]

    def test_sender_id_mismatch_keeps_later_verdicts_aligned(self, cores):
        txs = make_transactions(self._items(), 3)
        txs[2] = dataclasses.replace(txs[2], sender=SENDERS[3].node_id)
        txs[6] = dataclasses.replace(txs[6], signature=txs[5].signature)
        assert verify_transactions(txs) == [k not in (2, 6) for k in range(len(txs))]

    def test_keyless_identity_in_any_chunk_raises(self, cores):
        items = self._items()
        keyless = NodeIdentity(SENDERS[8].node_id, SENDERS[8].public_key, Role.LIGHT)
        items[-1] = (keyless, TxKind.ST, b"x")
        with pytest.raises(SigningCapabilityError):
            make_transactions(items, 1)

    def test_chain_batch_keeps_each_block_aligned(self, cores, monkeypatch):
        """verify_chain checks the signatures of a segment in one batch (this
        chain is one segment); each block must still get its own verdicts.
        Forged transactions sit first, last and after a sender-id mismatch
        (which the batch skips), around an empty block, and inside a block
        whose stored index is wrong (never reported as a signature failure,
        and left out of the batch)."""
        def forge(txs, k):
            txs[k] = dataclasses.replace(txs[k], payload=b"forged")

        bodies = [make_transactions(self._items()[:n], ts) for ts, n in enumerate([9, 0, 9, 5, 9, 9, 3])]
        forge(bodies[0], 0)
        forge(bodies[2], 8)
        bodies[3][1] = dataclasses.replace(bodies[3][1], sender=SENDERS[7].node_id)
        forge(bodies[3], 3)
        forge(bodies[4], 4)
        forge(bodies[6], 2)
        chain = Chain()
        for k, txs in enumerate(bodies):
            chain.append(_mine_next(chain, 0, txs, timestamp=k + 1))
        chain[5] = dataclasses.replace(chain[5], index=50)

        calls = []

        def counted(txs, meanwhile, keys):
            calls.append(len(txs))
            return verify_transactions(txs, meanwhile, keys)

        def sent(ident):
            return f"transaction from {ident.node_id.hex()[:12]}"

        monkeypatch.setattr(consensus, "verify_transactions", counted)
        assert [(v.index, v.reason, v.detail) for v in verify_chain(chain)] == [
            (1, "signature", sent(SENDERS[0])),
            (3, "signature", sent(SENDERS[8])),
            (4, "signature", sent(SENDERS[7])),
            (5, "index", "stored index 50"),
            (7, "signature", sent(SENDERS[2])),
        ]
        assert calls == [sum(map(len, bodies)) - len(bodies[4])]

    def test_empty_batch(self):
        assert make_transactions([], 0) == []
        assert verify_transactions([]) == []


class _TipLinkedTo(list):
    """A chain prefix whose tip, as the stale clause reads it (``[-1]``),
    carries ``tip_hash``; the window reads the real blocks by index."""

    def __init__(self, blocks, tip_hash):
        super().__init__(blocks)
        self.tip_hash = tip_hash

    def __getitem__(self, k):
        block = super().__getitem__(k)
        return dataclasses.replace(block, block_hash=self.tip_hash) if k == -1 else block


def _sequential_violations(blocks):
    """verify_chain's contract written block by block: index and linkage
    checks, then validate_block on the blocks before it (a broken link is
    reported and the block is checked as if it were linked)."""
    found = []
    for i in range(1, len(blocks)):
        block = blocks[i]
        if block.index != i:
            found.append((i, "index", f"stored index {block.index}"))
            continue
        before = list(blocks[:i])
        if block.prev_hash != blocks[i - 1].block_hash:
            found.append((i, "linkage", "prev_hash mismatch"))
            before = _TipLinkedTo(before, block.prev_hash)
        result = validate_block(before, block, DL_EASY)
        if not result.accepted:
            found.append((i, result.reason, result.detail))
    return found


class TestChainSegments:
    """verify_chain checks the chain in segments of at most _SEGMENT_TX
    transactions (patched to 20 here), one signature batch per segment,
    while the calling thread checks every other clause."""

    SEGMENT = 20

    @pytest.fixture(scope="class")
    def chain(self):
        """Eleven blocks with windows of up to 3 reaching across segment
        boundaries. Block 3 is re-mined on a zeroed prev_hash (so block 4
        links to it and only 3 breaks linkage); block 7's stored index is
        wrong; block 2 is empty; forged transactions sit in blocks 1, 3, 5,
        6, 8 and 11."""
        items = [(ident, TxKind.ST, bytes([k]) * (k + 1)) for k, ident in enumerate(SENDERS)]
        bodies = [make_transactions(items[:n], ts)
                  for ts, n in enumerate([9, 0, 9, 2, 9, 9, 3, 7, 9, 4, 9])]
        for k, pos in ((0, 8), (2, 0), (4, 4), (5, 0), (7, 6), (10, 2)):
            bodies[k][pos] = dataclasses.replace(bodies[k][pos], payload=b"forged")
        chain = Chain()
        for k, txs in enumerate(bodies):
            window = whash_window_for(len(chain), 3)
            candidate = next_block(chain, window, txs, MINER.node_id, k + 1)
            if k == 2:
                candidate = dataclasses.replace(candidate, prev_hash=bytes(32))
            chain.append(mine(chain, candidate, DL_EASY).block)
        chain[7] = dataclasses.replace(chain[7], index=70)
        return chain

    @pytest.fixture
    def batches(self, monkeypatch):
        """The size of every signature batch verify_chain starts."""
        calls = []

        def counted(txs, meanwhile, keys):
            calls.append(len(txs))
            return verify_transactions(txs, meanwhile, keys)

        monkeypatch.setattr(consensus, "_SEGMENT_TX", self.SEGMENT)
        monkeypatch.setattr(consensus, "verify_transactions", counted)
        return calls

    def test_equals_the_sequential_reference(self, cores, chain, batches):
        reference = _sequential_violations(chain)
        batches.clear()
        got = [(v.index, v.reason, v.detail) for v in verify_chain(chain)]
        assert got == reference

        def sent(k):
            return f"transaction from {SENDERS[k].node_id.hex()[:12]}"

        assert got == [
            (1, "signature", sent(8)),
            (3, "linkage", "prev_hash mismatch"),
            (3, "signature", sent(0)),
            (5, "signature", sent(4)),
            (6, "signature", sent(0)),
            (7, "index", "stored index 70"),
            (8, "digest", "recomputed digest differs from block_hash"),
            (9, "digest", "recomputed digest differs from block_hash"),
            (11, "signature", sent(2)),
        ]
        # Blocks 1-4 (20 tx, the limit), 5-6 (18), 8-10 (20), 11 (9): block
        # 7 is left out, and forged transactions lie on both sides of every
        # boundary (block 8's is masked by its digest violation).
        assert batches == [20, 18, 20, 9]

    def test_each_sender_key_is_parsed_once_per_call(self, chain, batches, monkeypatch):
        """The four segments share one store of parsed keys. One chunk per
        batch: two chunks may both parse a key they share before either
        stores it."""
        monkeypatch.setattr(identity, "_CORES", 1)
        reference = _sequential_violations(chain)
        batches.clear()
        parsed = []
        parse = identity._public_key

        def counted(key):
            parsed.append(key)
            return parse(key)

        monkeypatch.setattr(identity, "_public_key", counted)
        for _ in range(2):
            parsed.clear()
            got = [(v.index, v.reason, v.detail) for v in verify_chain(chain)]
            assert got == reference
            assert sorted(parsed) == sorted(s.public_key for s in SENDERS)
        assert batches == [20, 18, 20, 9] * 2

    def test_no_helper_thread_outlives_the_call(self, cores, chain, batches):
        verify_chain(chain)
        alive = [t.name for t in threading.enumerate() if t.name.startswith("proxichain-ecdsa")]
        assert alive == []

    def test_error_in_the_structural_pass(self, cores, chain, batches, monkeypatch):
        """A clause that raises mid-pass propagates once the segment's
        chunks are done, and leaves no thread behind."""
        calls = []
        state = consensus.whash_state

        def fails_on_the_fifth(blocks, block):
            calls.append(block.index)
            if len(calls) == 5:
                raise RuntimeError("window read failed")
            return state(blocks, block)

        monkeypatch.setattr(consensus, "whash_state", fails_on_the_fifth)
        with pytest.raises(RuntimeError, match="window read failed"):
            verify_chain(chain)
        assert calls == [1, 2, 3, 4, 5]
        assert batches == [20, 18]
        alive = [t.name for t in threading.enumerate() if t.name.startswith("proxichain-ecdsa")]
        assert alive == []


def test_verify_chain_holds_no_window_and_no_signed_messages(tmp_path):
    """Past the loaded chain and its cached encodings, verify_chain holds
    neither a joined window nor the batch's signed messages: windows are
    hashed as they are read, and each signature job carries a 32-byte
    digest. Twelve blocks of eight 19 KB trace payloads, each block's window
    reaching back to block 1: a joined window of the tip alone is ~1.7 MB,
    and the batch's signed messages are ~1.8 MB."""
    chain = Chain()
    for k in range(12):
        items = [(sender, TxKind.TT, bytes([k, j]) * 9600) for j, sender in enumerate(SENDERS[:8])]
        window = whash_window_for(len(chain), len(chain))
        append_block(chain, _mine_next(chain, window, make_transactions(items, k), k))
    save_chain(chain, str(tmp_path / "chain.jsonl"))
    loaded = load_chain(str(tmp_path / "chain.jsonl"))
    signing = sum(
        len(tx_signing_bytes(tx.kind, tx.sender, tx.payload, tx.timestamp))
        for block in loaded
        for tx in block.transactions
    )
    # The first call caches each block's encoding, as any verify does, and
    # imports the thread pool; the second shows what a verify adds on top.
    assert verify_chain(loaded) == []
    tracemalloc.start()
    try:
        assert verify_chain(loaded) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Measured: 48 KB; with joined windows and copied messages, 3.9 MB.
    assert peak < signing // 16


class TestSerialization:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        chain = Chain()
        for i in range(4):
            txs = [_tx(bytes([i, j]), ts=i * 10 + j) for j in range(3)]
            append_block(chain, _mine_next(chain, whash_window_for(len(chain), i), txs, timestamp=i + 1))

        path = tmp_path / "chain.jsonl"
        save_chain(chain, str(path))
        first = path.read_bytes()

        restored = load_chain(str(path))
        assert restored == chain
        assert verify_chain(restored) == []

        save_chain(restored, str(path))
        assert path.read_bytes() == first

    def test_loaded_chain_preserves_tx_validity(self, tmp_path):
        chain = Chain()
        append_block(chain, _mine_next(chain, 0, txs=[_tx(b"x", ts=3)]))
        path = tmp_path / "c.jsonl"
        save_chain(chain, str(path))
        restored = load_chain(str(path))
        assert all(verify_transactions(restored[-1].transactions))


def _template_cases():
    """Genesis, an empty block, a block holding every kind, a block near
    the size bound and every block of a tiny seeded run."""
    chain = Chain()
    append_block(chain, _mine_next(chain, 0))
    # The AT names the TT before it in the block, as the alarm clause asks.
    kinds = []
    for k, kind in enumerate(TxKind):
        payload = signing_digest(kinds[1]) if kind is TxKind.AT else bytes([k])
        kinds.append(make_transaction(SENDER, kind, payload, 7))
    assert kinds[1].kind is TxKind.TT
    append_block(chain, _mine_next(chain, 1, kinds, timestamp=11))
    big = _tx(bytes(MAX_BLOCK_BYTES - 600), ts=12)
    append_block(chain, _mine_next(chain, 2, [big], timestamp=12))
    config = simulation.SimConfig(
        n_agents=20, ticks=6, seed=3, p_inf=0.2, tx_per_block_mean=20, n_blocks=6
    )
    _, run, _ = simulation.run_epoch(simulation.build_world(config), Chain())
    named = dict(zip(["genesis", "empty", "every-kind", "near-bound"], chain))
    return named, run


class TestJsonLine:
    @pytest.fixture(scope="class")
    def cases(self):
        return _template_cases()

    def test_cases_cover_what_they_name(self, cases):
        named, run = cases
        assert {tx.kind for tx in named["every-kind"].transactions} == set(TxKind)
        assert not named["empty"].transactions
        size = len(encode_block_full(named["near-bound"]))
        assert MAX_BLOCK_BYTES - 1024 < size <= MAX_BLOCK_BYTES
        assert len(run) > 3 and {TxKind.TT, TxKind.AT} <= {
            tx.kind for block in run for tx in block.transactions
        }

    @pytest.mark.parametrize("name", ["genesis", "empty", "every-kind", "near-bound", "run"])
    def test_template_is_the_json_dump_and_loads_back(self, cases, name, tmp_path):
        named, run = cases
        blocks = run if name == "run" else [named[name]]
        for block in blocks:
            dumped = json.dumps(block_to_dict(block), sort_keys=True, separators=(",", ":"))
            assert block_to_json_line(block) == dumped
        path = tmp_path / "chain.jsonl"
        save_chain(Chain(blocks), str(path))
        restored = load_chain(str(path))
        assert list(restored) == list(blocks)
        assert [block_to_json_line(b) for b in restored] == [block_to_json_line(b) for b in blocks]


class TestChainTail:
    """A tail holding only the window stands in for the whole chain."""

    @pytest.fixture(scope="class")
    def grown(self):
        """Tail, whole chain, the tail's lines, and every block on which the
        two disagreed about the window prefix, mining or validation."""
        lines = io.StringIO()
        tail, full = ChainTail(lines), Chain()
        disagreed = []
        for k in range(2 * WINDOW_MAX + 20):
            window = whash_window_for(len(tail) - 1, (37 * k) % (WINDOW_MAX + 1))
            candidate = next_block(tail, window, [_tx(bytes([k % 256]), ts=k)], MINER.node_id, k)
            block = mine(tail, candidate, DL_EASY).block
            # Altered after mining, each keeping the mined digest: the tail's
            # window state of the mined candidate must serve only a block
            # whose header bytes are all the candidate's.
            (tx,) = block.transactions
            flipped = dataclasses.replace(tx, payload=bytes([tx.payload[0] ^ 1]))
            tampered = [
                dataclasses.replace(block, nonce=block.nonce + 1),
                dataclasses.replace(block, timestamp=block.timestamp + 1),
                dataclasses.replace(block, transactions=(flipped,)),
            ]
            if (
                next_block(full, window, candidate.transactions, MINER.node_id, k) != candidate
                or whash_preimage_prefix(tail, block) != whash_preimage_prefix(full, block)
                or mine(full, candidate, DL_EASY).block != block
                or validate_block(tail, block, DL_EASY) != validate_block(full, block, DL_EASY)
                or any(
                    validate_block(tail, altered, DL_EASY)
                    != validate_block(full, altered, DL_EASY)
                    or validate_block(full, altered, DL_EASY).reason != "digest"
                    for altered in tampered
                )
            ):
                disagreed.append(k)
            append_block(tail, block)
            append_block(full, block)
        return tail, full, lines.getvalue(), disagreed

    def test_checks_agree_with_the_whole_chain(self, grown):
        tail, full, _, disagreed = grown
        assert disagreed == []
        assert max(block.whash_window for block in full) == WINDOW_MAX
        assert verify_chain(full) == []

    def test_tip_and_height_are_the_whole_chain(self, grown):
        tail, full, _, _ = grown
        assert len(tail) == len(full) == 2 * WINDOW_MAX + 21

        def same(held, block):
            """The record keeps the block's index, hash and its very
            encoding object, and none of its transactions."""
            return (
                (held.index, held.block_hash) == (block.index, block.block_hash)
                and encode_block_full(held) is encode_block_full(block)
                and not hasattr(held, "transactions")
            )

        assert same(tail[-1], full[-1])
        assert same(tail[len(tail) - 1], full[-1])
        oldest = len(full) - WINDOW_MAX
        assert same(tail[oldest], full[oldest]) and same(tail[-WINDOW_MAX], full[oldest])

    def test_evicted_block_raises(self, grown):
        tail, full, _, _ = grown
        for index in (0, 1, len(full) - WINDOW_MAX - 1, -WINDOW_MAX - 1, len(full), -len(full) - 1):
            with pytest.raises(IndexError):
                tail[index]
        # Iteration reaches block 0 first and fails there instead of ending.
        with pytest.raises(IndexError):
            list(tail)

    def test_lines_are_the_saved_chain(self, grown, tmp_path):
        _, full, lines, _ = grown
        save_chain(full, str(tmp_path / "chain.jsonl"))
        assert lines == (tmp_path / "chain.jsonl").read_text()


def _peer_array(pairs):
    """The node ids of ``(node_id, tick)`` pairs as a (count, 32) byte array."""
    return np.frombuffer(b"".join(peer for peer, _ in pairs), dtype=np.uint8).reshape(-1, 32)


def _packed(pairs):
    """The payload layout spelled out: a u32 count, then for each contact its
    32-byte id and its u64 tick."""
    return struct.pack("<I", len(pairs)) + b"".join(
        peer + struct.pack("<Q", tick) for peer, tick in pairs
    )


class TestContactPairs:
    def test_payload_is_count_then_records(self):
        pairs = [(bytes([i]) * 32, i * 1000) for i in range(5)]
        ticks = np.array([tick for _, tick in pairs], dtype=np.int32)
        assert encode_contact_pairs(_peer_array(pairs), ticks) == _packed(pairs)

    def test_empty(self):
        assert encode_contact_pairs(_peer_array([]), []) == struct.pack("<I", 0)

    def test_record_width_is_forty_bytes(self):
        blob = encode_contact_pairs(_peer_array([(b"\x01" * 32, 7)]), [7])
        assert len(blob) == 4 + 40

    def test_bad_id_length_rejected(self):
        with pytest.raises(ValueError):
            encode_contact_pairs(np.zeros((1, 5), dtype=np.uint8), [1])

    def test_bad_ticks_rejected(self):
        peers = _peer_array([(b"\x02" * 32, 0)] * 2)
        for ticks in ([1], [1, -1]):
            with pytest.raises(ValueError):
                encode_contact_pairs(peers, ticks)

    def test_array_payload_is_the_packed_layout(self):
        """The structured array writes what packing pair by pair writes, also
        from a gathered (fancy-indexed) id array, as a trace builds."""
        ids = (np.arange(12 * 32) % 251).astype(np.uint8).reshape(12, 32)
        picked = np.array([0, 3, 4, 9])
        ticks = np.array([0, 1, 2**31 - 1, 5], dtype=np.int32)
        pairs = [(ids[k].tobytes(), int(t)) for k, t in zip(picked, ticks)]
        assert encode_contact_pairs(ids[picked], ticks) == _packed(pairs)


class TestInfectedUsersPool:
    def test_retention_prunes_old_entries(self):
        pool = InfectedUsersPool(retention_ticks=100)
        pool.add(b"\x01" * 32, tick=10)
        pool.add(b"\x02" * 32, tick=150)
        pool.prune(now=200)
        assert pool.entries == {(b"\x02" * 32, 150)}

    def test_entry_on_horizon_survives(self):
        pool = InfectedUsersPool(retention_ticks=50)
        pool.add(b"\x03" * 32, tick=150)
        pool.prune(now=200)
        assert pool.entries == {(b"\x03" * 32, 150)}

    def test_json_roundtrip(self):
        pool = InfectedUsersPool(retention_ticks=10)
        pool.add(b"\x04" * 32, tick=1)
        pool.add(b"\x05" * 32, tick=2)
        rows = json.loads(pool.to_json())
        assert [row["tick"] for row in rows] == [1, 2]
        assert {(bytes.fromhex(row["node_id"]), row["tick"]) for row in rows} == pool.entries
