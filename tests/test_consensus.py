import dataclasses

import numpy as np
import pytest
from scipy import stats

from proxichain.consensus import (
    DL_EASY,
    DL_HARD,
    LEVELS_BY_NAME,
    BlockRejectedError,
    MiningTimeoutError,
    append_block,
    attack_cost_model,
    difficulty_for,
    digest_satisfies,
    mine,
    validate_block,
    verify_chain,
)
from proxichain.identity import Role, generate_identity, publish_registry
from proxichain.ledger import (
    Block,
    Chain,
    TxKind,
    make_transaction,
    next_block,
    whash_window_for,
)

MINER = generate_identity(Role.LIGHT, seed=601)


def _candidate(chain: Chain, window: int = 0, txs=(), timestamp: int = 10) -> Block:
    return next_block(chain, window, txs, MINER.node_id, timestamp)


def _grow(length: int) -> Chain:
    chain = Chain()
    for i in range(length):
        window = whash_window_for(len(chain.blocks), i % 3)
        append_block(chain, mine(chain, _candidate(chain, window, timestamp=i + 1), DL_EASY).block)
    return chain


class TestDigestPrefix:
    def test_easy_level_accepts_one_zero_nibble(self):
        assert digest_satisfies(b"\x0f" + b"\xff" * 31, DL_EASY)
        assert not digest_satisfies(b"\x10" + b"\xff" * 31, DL_EASY)

    def test_hard_level_needs_four_zero_nibbles(self):
        assert digest_satisfies(b"\x00\x00" + b"\xff" * 30, DL_HARD)
        assert not digest_satisfies(b"\x00\x0f" + b"\xff" * 30, DL_HARD)
        assert not digest_satisfies(b"\x00\x10" + b"\xff" * 30, DL_HARD)

    def test_hard_implies_easy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            digest = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
            if digest_satisfies(digest, DL_HARD):
                assert digest_satisfies(digest, DL_EASY)

    def test_level_registry(self):
        assert LEVELS_BY_NAME["DL_e"] is DL_EASY
        assert LEVELS_BY_NAME["DL_h"] is DL_HARD


class TestEntitlement:
    def test_credit_at_threshold_gets_easy(self):
        assert difficulty_for(0.0, 0.0, is_authorized=False) is DL_EASY

    def test_credit_below_threshold_gets_hard(self):
        assert difficulty_for(-1e-9, 0.0, is_authorized=False) is DL_HARD

    def test_authorized_overrides_any_credit(self):
        assert difficulty_for(-1e6, 0.0, is_authorized=True) is DL_EASY

    def test_threshold_is_relative(self):
        assert difficulty_for(5.0, 10.0, is_authorized=False) is DL_HARD
        assert difficulty_for(15.0, 10.0, is_authorized=False) is DL_EASY


class TestMine:
    def test_result_validates_on_tip(self):
        chain = _grow(3)
        result = mine(chain, _candidate(chain), DL_EASY)
        assert digest_satisfies(result.block.block_hash, DL_EASY)
        assert validate_block(chain, result.block, DL_EASY).accepted

    def test_mined_block_reports_trial_count(self):
        chain = Chain()
        result = mine(chain, _candidate(chain), DL_EASY)
        assert result.trials == result.block.nonce + 1

    def test_every_window_size_validates(self):
        chain = _grow(6)
        for window in range(len(chain.blocks) + 1):
            block = mine(chain, _candidate(chain, window), DL_EASY).block
            result = validate_block(chain, block, DL_EASY)
            assert result.accepted, (window, result.reason)

    def test_timeout_budget(self):
        chain = Chain()
        for timestamp in range(100):
            cand = _candidate(chain, timestamp=timestamp)
            trials = mine(chain, cand, DL_EASY).trials
            if trials > 1:
                break
        assert mine(chain, cand, DL_EASY, max_trials=trials).trials == trials
        with pytest.raises(MiningTimeoutError):
            mine(chain, cand, DL_EASY, max_trials=trials - 1)

    def test_hard_block_clears_easy_prefix_too(self):
        chain = Chain()
        block = mine(chain, _candidate(chain), DL_HARD).block
        assert digest_satisfies(block.block_hash, DL_HARD)
        assert digest_satisfies(block.block_hash, DL_EASY)

    def test_easy_trials_follow_geometric_law(self):
        """Trial counts over many blocks should fit Geometric(p = 2^-4).

        Chi-square on coarse bins at the 1% level; with p = 1/16 the mean
        sits near 16 and the tail decays fast enough for five bins.
        """
        chain = Chain()
        trials = []
        for i in range(300):
            result = mine(chain, _candidate(chain, timestamp=i + 1), DL_EASY)
            trials.append(result.trials)
            append_block(chain, result.block)
        trials = np.asarray(trials)

        p = 1.0 / 16.0
        edges = [(1, 5), (6, 11), (12, 18), (19, 30), (31, None)]
        observed = []
        expected = []
        for lo, hi in edges:
            if hi is None:
                observed.append(np.sum(trials >= lo))
                expected.append(len(trials) * (1 - p) ** (lo - 1))
            else:
                observed.append(np.sum((trials >= lo) & (trials <= hi)))
                expected.append(
                    len(trials) * ((1 - p) ** (lo - 1) - (1 - p) ** hi)
                )
        statistic, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.01, (statistic, pvalue, observed, expected)


class TestRejectionReasons:
    def test_window_out_of_range(self):
        chain = _grow(2)
        bad = dataclasses.replace(_candidate(chain), whash_window=101)
        result = validate_block(chain, bad, DL_EASY)
        assert (result.accepted, result.reason) == (False, "window")

    def test_window_past_chain_start(self):
        chain = _grow(2)
        bad = dataclasses.replace(_candidate(chain), whash_window=50)
        result = validate_block(chain, bad, DL_EASY)
        assert (result.accepted, result.reason) == (False, "window")

    def test_oversized_block(self):
        chain = Chain()
        sender = generate_identity(Role.LIGHT, seed=602)
        big = make_transaction(sender, TxKind.ST, b"\x00" * 1_100_000, 1)
        bad = _candidate(chain, txs=[big])
        result = validate_block(chain, bad, DL_EASY)
        assert (result.accepted, result.reason) == (False, "overflow")

    def test_prefix_miss(self):
        from proxichain.ledger import whash_digest

        chain = _grow(2)
        cand = _candidate(chain)
        nonce = 0
        while digest_satisfies(whash_digest(chain.blocks, cand, nonce), DL_EASY):
            nonce += 1
        honest_digest = whash_digest(chain.blocks, cand, nonce)
        block = dataclasses.replace(cand, nonce=nonce, block_hash=honest_digest)
        result = validate_block(chain, block, DL_EASY)
        assert (result.accepted, result.reason) == (False, "prefix")

    def test_easy_digest_where_hard_was_required(self):
        chain = _grow(2)
        easy = mine(chain, _candidate(chain), DL_EASY).block
        if digest_satisfies(easy.block_hash, DL_HARD):
            easy = mine(chain, _candidate(chain, timestamp=999), DL_EASY).block
        result = validate_block(chain, easy, DL_HARD)
        assert (result.accepted, result.reason) == (False, "entitlement")

    @pytest.mark.parametrize(
        "level, registered, credit, reason",
        [
            (DL_EASY, False, -1.0, "entitlement"),
            (DL_EASY, True, -1.0, None),
            (DL_EASY, False, 0.0, None),
            (DL_HARD, False, -1.0, None),
        ],
        ids=["easy-low-credit", "easy-registered", "easy-credit-at-threshold", "hard-low-credit"],
    )
    def test_append_block_entitlement(self, level, registered, credit, reason):
        chain = _grow(2)
        timestamp = 10
        block = mine(chain, _candidate(chain, timestamp=timestamp), level).block
        while level is DL_EASY and digest_satisfies(block.block_hash, DL_HARD):
            timestamp += 1
            block = mine(chain, _candidate(chain, timestamp=timestamp), level).block
        registry = None
        if registered:
            manager = generate_identity(Role.MANAGER, seed=603)
            registry = publish_registry(manager, [MINER.public_key])
        rejected = None
        try:
            append_block(chain, block, registry, lambda node: credit, alpha_d=0.0)
        except BlockRejectedError as exc:
            rejected = exc.reason
        assert rejected == reason
        assert len(chain) == (3 if reason else 4)


class TestVerifyChain:
    def test_clean_chain_has_no_violations(self):
        assert verify_chain(_grow(8)) == []

    def test_tampered_timestamp_is_caught(self):
        chain = _grow(8)
        chain.blocks[4] = dataclasses.replace(chain.blocks[4], timestamp=424242)
        reasons = {(v.index, v.reason) for v in verify_chain(chain)}
        assert (4, "digest") in reasons

    def test_tampered_hash_breaks_linkage(self):
        chain = _grow(8)
        chain.blocks[4] = dataclasses.replace(chain.blocks[4], block_hash=b"\x11" * 32)
        reasons = {(v.index, v.reason) for v in verify_chain(chain)}
        assert (4, "digest") in reasons
        assert (5, "linkage") in reasons

    def test_tampered_genesis_is_caught(self):
        for change in ({"timestamp": 1}, {"whash_window": 5}):
            chain = _grow(3)
            chain.blocks[0] = dataclasses.replace(chain.blocks[0], **change)
            reasons = {(v.index, v.reason) for v in verify_chain(chain)}
            assert (0, "genesis") in reasons

    def test_bad_link_does_not_hide_other_checks(self):
        # Block 3 re-mined with a zeroed prev_hash and a forged signature:
        # the broken link must not mask the signature failure.
        chain = Chain()
        for i in range(6):
            tx = make_transaction(MINER, TxKind.ST, bytes([i]), i)
            candidate = _candidate(chain, window=min(i, 2), txs=[tx], timestamp=i + 1)
            append_block(chain, mine(chain, candidate, DL_EASY).block)
        block = chain.blocks[3]
        tx = block.transactions[0]
        sig = bytearray(tx.signature)
        sig[len(sig) // 2] ^= 0x01
        forged = dataclasses.replace(
            block,
            prev_hash=bytes(32),
            transactions=(dataclasses.replace(tx, signature=bytes(sig)),) + block.transactions[1:],
        )
        chain.blocks[3] = mine(chain.blocks[:3], forged, DL_EASY).block
        reasons = {(v.index, v.reason) for v in verify_chain(chain)}
        assert {(3, "linkage"), (3, "signature")} <= reasons


class TestAnalyticModel:
    def test_attack_cost_ratio_is_window_size(self):
        for n_wh in (1, 14, 100):
            honest, attacker = attack_cost_model(n_wh, bits_b=16)
            assert honest == n_wh * 2.0 ** 16
            assert attacker / honest == pytest.approx(n_wh)

    def test_attack_cost_guard(self):
        with pytest.raises(ValueError):
            attack_cost_model(0, bits_b=4)
