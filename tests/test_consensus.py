import dataclasses
import hashlib
import io
import itertools
import os
import pickle
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from proxichain import _fork, consensus, experiments, identity, simulation
from proxichain.consensus import (
    DL_EASY,
    DL_HARD,
    LEVELS_BY_NAME,
    BlockRejectedError,
    DifficultyLevel,
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
    WINDOW_MAX,
    Block,
    Chain,
    ChainTail,
    TxKind,
    encode_transaction,
    make_transaction,
    next_block,
    signing_digest,
    whash_digest,
    whash_window_for,
)

MINER = generate_identity(Role.LIGHT, seed=601)


def _candidate(chain: Chain, window: int = 0, txs=(), timestamp: int = 10) -> Block:
    return next_block(chain, window, txs, MINER.node_id, timestamp)


def _nibble_rule(digest: bytes, prefix_nibbles: int) -> bool:
    """Reference rule: the first ``prefix_nibbles`` hex nibbles are zero."""
    full, half = divmod(prefix_nibbles, 2)
    if digest[:full] != bytes(full):
        return False
    return half == 0 or digest[full] < 16


def _grow(length: int) -> Chain:
    chain = Chain()
    for i in range(length):
        window = whash_window_for(len(chain), i % 3)
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


class TestTarget:
    """The target comparison against the nibble rule it replaces."""

    @pytest.mark.parametrize("prefix_nibbles", [1, 2, 3, 4])
    def test_every_two_byte_prefix(self, prefix_nibbles):
        level = DifficultyLevel("t", prefix_nibbles)
        for head in range(1 << 16):
            for tail in (bytes(30), b"\xff" * 30):
                digest = head.to_bytes(2, "big") + tail
                assert digest_satisfies(digest, level) == _nibble_rule(digest, prefix_nibbles), digest

    def test_random_digests(self):
        rng = np.random.default_rng(16)
        for prefix_nibbles in range(1, 9):
            level = DifficultyLevel("t", prefix_nibbles)
            seen = set()
            for _ in range(2000):
                # Shift a random digest right by 0-10 nibbles so that both
                # sides of every level's boundary are reached.
                shift = 4 * int(rng.integers(0, 11))
                value = int.from_bytes(rng.bytes(32), "big") >> shift
                digest = value.to_bytes(32, "big")
                expected = _nibble_rule(digest, prefix_nibbles)
                assert digest_satisfies(digest, level) == expected, digest.hex()
                seen.add(expected)
            assert seen == {True, False}

    def test_literal_targets(self):
        assert DL_EASY.target == b"\x10" + bytes(31)
        assert DL_HARD.target == b"\x00\x01" + bytes(30)
        assert DifficultyLevel("t", 64).target == bytes(31) + b"\x01"

    def test_only_32_byte_digests_satisfy(self):
        for digest in (b"", b"\x00", bytes(2), bytes(31), bytes(33), bytes(64)):
            for level in (DL_EASY, DL_HARD, DifficultyLevel("t", 64)):
                assert not digest_satisfies(digest, level), (len(digest), level.name)

    @pytest.mark.parametrize("prefix_nibbles", [-1, 0, 65, 256])
    def test_out_of_range_levels_are_refused(self, prefix_nibbles):
        with pytest.raises(ValueError, match="prefix_nibbles"):
            DifficultyLevel("t", prefix_nibbles)


class TestEntitlement:
    def test_credit_at_threshold_gets_easy(self):
        assert difficulty_for(0.0, is_authorized=False) is DL_EASY

    def test_credit_below_threshold_gets_hard(self):
        assert difficulty_for(-1e-9, is_authorized=False) is DL_HARD

    def test_authorized_overrides_any_credit(self):
        assert difficulty_for(-1e6, is_authorized=True) is DL_EASY

    def test_threshold_is_relative(self, monkeypatch):
        monkeypatch.setattr(consensus, "ALPHA_D", 10.0)
        assert difficulty_for(5.0, is_authorized=False) is DL_HARD
        assert difficulty_for(15.0, is_authorized=False) is DL_EASY


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
        for window in range(len(chain) + 1):
            block = mine(chain, _candidate(chain, window), DL_EASY).block
            result = validate_block(chain, block, DL_EASY)
            assert result.accepted, (window, result.reason)

    @pytest.mark.parametrize(
        "window, level", [(0, DL_EASY), (1, DL_EASY), (5, DL_EASY), (1, DL_HARD)]
    )
    def test_matches_a_reference_search(self, window, level):
        chain = _grow(6)
        cand = _candidate(chain, window)
        nonce = 0
        while not _nibble_rule(whash_digest(chain, cand, nonce), level.prefix_nibbles):
            nonce += 1
        result = mine(chain, cand, level)
        assert result.block.nonce == nonce
        assert result.block.block_hash == whash_digest(chain, cand, nonce)
        assert result.trials == nonce + 1

    def test_elapsed_counts_the_window_prefix(self, monkeypatch):
        build = consensus.whash_state

        def slow_build(blocks, candidate):
            time.sleep(0.05)
            return build(blocks, candidate)

        monkeypatch.setattr(consensus, "whash_state", slow_build)
        chain = Chain()
        assert mine(chain, _candidate(chain), DL_EASY).elapsed >= 0.05

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


# Two zero nibbles (~256 expected trials): a reference search takes
# moments, and the winning nonce leaves room for several small slices.
DL_TWO = DifficultyLevel("DL_2", prefix_nibbles=2)
ROUND = 4
# Where the winning nonce sits, as its offset from the end of the solo
# prefix, for ``procs`` searching processes. Each round holds ``procs``
# slices of ROUND nonces; slice 0 belongs to the calling process.
PLACEMENTS = {
    "inside-the-solo-prefix": lambda procs: -3,
    "last-solo-nonce": lambda procs: -1,
    "first-of-the-callers-slice": lambda procs: 0,
    "inside-the-callers-slice": lambda procs: 2,
    "last-of-the-callers-slice": lambda procs: ROUND - 1,
    "first-of-a-helpers-slice": lambda procs: ROUND,
    "last-of-the-last-slice": lambda procs: procs * ROUND - 1,
    "callers-slice-in-round-two": lambda procs: procs * ROUND + 1,
    "helpers-slice-in-round-two": lambda procs: (procs + 1) * ROUND + 2,
}


def _reference_nonce(chain: Chain, cand: Block, level: DifficultyLevel) -> int:
    nonce = 0
    while not _nibble_rule(whash_digest(chain, cand, nonce), level.prefix_nibbles):
        nonce += 1
    return nonce


@pytest.fixture(scope="module")
def far_case():
    """A candidate whose first DL_TWO nonce lies past every placement."""
    chain = _grow(3)
    for timestamp in itertools.count():
        cand = _candidate(chain, 2, timestamp=timestamp)
        nonce = _reference_nonce(chain, cand, DL_TWO)
        if nonce >= 40:
            return chain, cand, nonce


@pytest.fixture(params=[1, 2, 3], ids=["one-core", "two-cores", "three-cores"])
def procs(request, monkeypatch):
    """Search with this many processes and ROUND-nonce slices. One core
    must not fork at all."""
    monkeypatch.setattr(identity, "_CORES", request.param)
    monkeypatch.setattr(consensus, "_ROUND", ROUND)
    if request.param == 1:

        def no_fork():
            raise AssertionError("a one-core search forked")

        monkeypatch.setattr(os, "fork", no_fork)
    return request.param


def _assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSplitSearch:
    """A search past the solo prefix is split across forked helpers; nonce,
    digest, trial count and timeout must be those of the sequential search."""

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_matches_the_sequential_search(self, procs, far_case, monkeypatch, placement):
        chain, cand, nonce = far_case
        monkeypatch.setattr(consensus, "_SOLO_TRIALS", nonce - PLACEMENTS[placement](procs))
        result = mine(chain, cand, DL_TWO)
        assert result.block.nonce == nonce
        assert result.block.block_hash == whash_digest(chain, cand, nonce)
        assert result.trials == nonce + 1

    def test_budget_ending_in_a_helpers_slice(self, procs, far_case, monkeypatch):
        chain, cand, nonce = far_case
        # The winner is two nonces into helper 1's slice of the first round,
        # so a budget of ``nonce`` trials stops one nonce after that slice's
        # start.
        monkeypatch.setattr(consensus, "_SOLO_TRIALS", nonce - ROUND - 2)
        with pytest.raises(MiningTimeoutError) as err:
            mine(chain, cand, DL_TWO, max_trials=nonce)
        assert err.value.trials == nonce
        assert mine(chain, cand, DL_TWO, max_trials=nonce + 1).block.nonce == nonce

    def test_no_fork_available(self, far_case, monkeypatch):
        chain, cand, nonce = far_case
        monkeypatch.setattr(identity, "_CORES", 2)
        monkeypatch.setattr(consensus, "_SOLO_TRIALS", 1)
        monkeypatch.setattr(consensus, "_ROUND", ROUND)
        monkeypatch.delattr(os, "fork")
        assert mine(chain, cand, DL_TWO).block.nonce == nonce

    def test_no_fork_beside_other_threads(self, procs, far_case, monkeypatch):
        chain, cand, nonce = far_case
        monkeypatch.setattr(consensus, "_SOLO_TRIALS", 1)

        def no_fork():
            raise AssertionError("forked while another thread ran")

        monkeypatch.setattr(os, "fork", no_fork)
        with ThreadPoolExecutor(1) as pool:
            result = pool.submit(mine, chain, cand, DL_TWO).result()
        assert result.block.nonce == nonce


class TestSearchHelpers:
    """Every helper is killed and reaped before ``mine`` returns or raises,
    and only a nonce the calling process has re-hashed is ever returned."""

    @pytest.fixture(autouse=True)
    def two_processes(self, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 2)
        monkeypatch.setattr(consensus, "_ROUND", ROUND)

    def test_reaped_after_success(self, far_case, forked, monkeypatch):
        chain, cand, nonce = far_case
        monkeypatch.setattr(consensus, "_SOLO_TRIALS", nonce - ROUND)
        assert mine(chain, cand, DL_TWO).block.nonce == nonce
        assert forked
        _assert_reaped(forked)

    def test_reaped_after_timeout(self, far_case, forked, monkeypatch):
        chain, cand, nonce = far_case
        monkeypatch.setattr(consensus, "_SOLO_TRIALS", 1)
        with pytest.raises(MiningTimeoutError):
            mine(chain, cand, DL_TWO, max_trials=nonce)
        assert forked
        _assert_reaped(forked)

    def test_reaped_after_an_error_in_the_caller(self, far_case, forked, monkeypatch):
        chain, cand, nonce = far_case
        monkeypatch.setattr(consensus, "_SOLO_TRIALS", 1)
        caller, scan = os.getpid(), consensus._scan

        class Interrupted(Exception):
            pass

        def caller_fails_after_the_fork(copy, target, start, stop):
            if os.getpid() == caller and forked:
                raise Interrupted
            return scan(copy, target, start, stop)

        monkeypatch.setattr(consensus, "_scan", caller_fails_after_the_fork)
        with pytest.raises(Interrupted):
            mine(chain, cand, DL_TWO)
        assert forked
        _assert_reaped(forked)

    def test_busy_helper_is_killed(self, far_case, forked, monkeypatch):
        chain, cand, nonce = far_case
        # The winner opens the caller's first slice; the helper would take
        # a minute over its own.
        monkeypatch.setattr(consensus, "_SOLO_TRIALS", nonce)
        caller, scan = os.getpid(), consensus._scan

        def helper_stalls(copy, target, start, stop):
            if os.getpid() != caller:
                time.sleep(60)
            return scan(copy, target, start, stop)

        monkeypatch.setattr(consensus, "_scan", helper_stalls)
        with _deadline(10.0):
            assert mine(chain, cand, DL_TWO).block.nonce == nonce
        assert forked
        _assert_reaped(forked)

    def test_helper_that_exits_without_reporting(self, far_case, forked, monkeypatch):
        chain, cand, nonce = far_case
        # The winner opens the helper's first slice: only the helper could
        # report it.
        monkeypatch.setattr(consensus, "_SOLO_TRIALS", nonce - ROUND)
        caller, scan = os.getpid(), consensus._scan

        def helper_dies(copy, target, start, stop):
            if os.getpid() != caller:
                os._exit(1)
            return scan(copy, target, start, stop)

        monkeypatch.setattr(consensus, "_scan", helper_dies)
        with _deadline(10.0), pytest.raises(RuntimeError, match="without reporting"):
            mine(chain, cand, DL_TWO)
        _assert_reaped(forked)

    def test_helper_that_cuts_its_record_short(self, far_case, forked, cut_send,
                                               monkeypatch):
        chain, cand, nonce = far_case
        # As above: only the helper could report the winner, and it dies
        # part-way through the record of its first slice.
        monkeypatch.setattr(identity, "_CORES", 2)
        monkeypatch.setattr(consensus, "_SOLO_TRIALS", nonce - ROUND)
        with _deadline(10.0), pytest.raises(RuntimeError, match="without reporting nonces"):
            mine(chain, cand, DL_TWO)
        assert forked
        _assert_reaped(forked)

    def test_unchecked_helper_nonce_is_refused(self, far_case, forked, monkeypatch):
        chain, cand, nonce = far_case
        # No nonce of the first round satisfies DL_TWO, so the helper's
        # claim that its first nonce does is false.
        monkeypatch.setattr(consensus, "_SOLO_TRIALS", nonce - 3 * ROUND)
        caller, scan = os.getpid(), consensus._scan

        def helper_lies(copy, target, start, stop):
            if os.getpid() != caller:
                return start
            return scan(copy, target, start, stop)

        monkeypatch.setattr(consensus, "_scan", helper_lies)
        with pytest.raises(RuntimeError, match="misses the DL_2 target"):
            mine(chain, cand, DL_TWO)
        _assert_reaped(forked)


def test_forked_helper_that_raises_exits_without_a_record(forked, monkeypatch):
    """The shared fork helper, driven directly: a body that fails after
    one record exits without another, and the caller still reaps it."""
    monkeypatch.setattr(identity, "_CORES", 2)

    def body(p, procs, report):
        _fork.send(report, (p, procs))
        raise ValueError("the helper's work failed")

    with _fork.helpers(body) as reads:
        assert len(reads) == 1
        assert list(_fork.records(reads[0])) == [(1, 2)]
    assert len(forked) == 1
    _assert_reaped(forked)


def test_forked_helper_with_an_inbound_pipe(forked, monkeypatch):
    """``inbound`` forks one helper whatever the CPU count, and gives it a
    pipe from the caller, whose write end the block yields."""
    monkeypatch.setattr(identity, "_CORES", 3)

    def body(p, procs, report, feed):
        _fork.send(report, (p, procs, next(_fork.records(feed))[::-1]))

    with _fork.helpers(body, inbound=True) as ends:
        assert len(ends) == 1
        (status, feed), = ends
        _fork.send(feed, b"abc")
        assert list(_fork.records(status)) == [(1, 2, b"cba")]
    assert len(forked) == 1
    _assert_reaped(forked)


def _job_record() -> tuple:
    """A ``(job, credit)`` record as ct-run feeds its block process."""
    tx = make_transaction(MINER, TxKind.ST, b"payload", 7)
    return ((tx,), MINER.node_id, 12, 7, "DL_e"), 0.25


RECORDS = {
    "nonce": lambda: -1,
    "verdict": lambda: ["signature", "transaction 0 of block 3"],
    "share": lambda: np.arange(12.0).reshape(2, 1, 6),
    "job": _job_record,
}


@pytest.mark.parametrize("kind", RECORDS)
def test_records_end_at_every_cut_record(kind, sent_bytes, forked, monkeypatch):
    """A helper that writes part of a record and exits ends its records
    without raising, at every cut point: the whole records before the cut
    one come through, and the cut one does not."""
    monkeypatch.setattr(identity, "_CORES", 2)
    record = RECORDS[kind]()
    data = sent_bytes(record)
    for cut in range(len(data) + 1):

        def body(p, procs, report):
            _fork.send(report, "before")
            os.write(report, data[:cut])  # one write: the pipe holds it all

        with _fork.helpers(body) as reads:
            received = list(_fork.records(reads[0]))
        assert received[0] == "before"
        if cut < len(data):
            assert len(received) == 1, cut
        else:
            assert len(received) == 2
            assert pickle.dumps(received[1]) == pickle.dumps(record)
    assert len(forked) == len(data) + 1
    _assert_reaped(forked)


def _affinity_recorded(tmp_path, func):
    """``func`` made to write, in a forked helper only, the CPUs that helper
    may run on to a file named by its pid, before it runs."""
    caller = os.getpid()

    def recording(*args, **kwargs):
        if os.getpid() != caller:
            cpus = ",".join(map(str, sorted(os.sched_getaffinity(0))))
            (tmp_path / str(os.getpid())).write_text(cpus)
        return func(*args, **kwargs)

    return recording


def _run_validated_epoch(monkeypatch, tmp_path):
    monkeypatch.setattr(
        simulation, "_build_blocks", _affinity_recorded(tmp_path, simulation._build_blocks)
    )
    config = simulation.SimConfig(n_agents=20, ticks=3, seed=1, tx_per_block_mean=20, n_blocks=6)
    with open(tmp_path / "chain.jsonl", "w") as fh:
        simulation.run_epoch(simulation.build_world(config), simulation.ChainTail(fh))


def _run_loc_eval(monkeypatch, tmp_path):
    monkeypatch.setattr(
        experiments, "_loc_trials", _affinity_recorded(tmp_path, experiments._loc_trials)
    )
    experiments.run_localization_eval([None], trials=30, seed=1)


def _run_split_search(monkeypatch, tmp_path, far_case):
    chain, cand, nonce = far_case
    monkeypatch.setattr(consensus, "_ROUND", ROUND)
    monkeypatch.setattr(consensus, "_SOLO_TRIALS", nonce - PLACEMENTS["last-of-the-last-slice"](2))
    monkeypatch.setattr(consensus, "_scan", _affinity_recorded(tmp_path, consensus._scan))
    assert mine(chain, cand, DL_TWO).block.nonce == nonce


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="needs an affinity of two CPUs or more",
)
@pytest.mark.parametrize("kind", ["validator", "loc-eval", "split-search"])
def test_every_forked_helper_leaves_the_callers_cpu(kind, far_case, tmp_path, forked,
                                                    monkeypatch):
    """Each kind of forked helper (ct-run's block process, a share of the
    localization eval, a slice of a nonce search) takes out of its affinity
    the one CPU this process last ran on, and keeps the rest."""
    monkeypatch.setattr(identity, "_CORES", 2)
    mine_cpus = os.sched_getaffinity(0)
    if kind == "validator":
        _run_validated_epoch(monkeypatch, tmp_path)
    elif kind == "loc-eval":
        _run_loc_eval(monkeypatch, tmp_path)
    else:
        _run_split_search(monkeypatch, tmp_path, far_case)
    assert len(forked) == 1
    _assert_reaped(forked)
    seen = {int(cpu) for cpu in (tmp_path / str(forked[0])).read_text().split(",")}
    assert seen < mine_cpus and len(seen) == len(mine_cpus) - 1


def _nested_helpers() -> tuple[set[int], set[int], list[str]]:
    """Fork a helper that forks a helper in turn, as ct-run's block process
    does for a long nonce search. Returns the CPUs each may run on, and
    which of the ends the first was given the second still holds."""

    def outer(p, procs, report):
        given = {"report": report}

        def inner(p, procs, inner_report):
            held = []
            for name, fd in given.items():
                try:
                    os.fstat(fd)
                    held.append(name)
                except OSError:
                    pass
            _fork.send(inner_report, (os.sched_getaffinity(0), held))

        with _fork.helpers(inner) as reads:
            inner_cpus, held = next(_fork.records(reads[0]))
        _fork.send(report, (os.sched_getaffinity(0), inner_cpus, held))

    with _fork.helpers(outer) as reads:
        outer_cpus, inner_cpus, held = next(_fork.records(reads[0]))
    return outer_cpus, inner_cpus, held


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="needs an affinity of two CPUs or more",
)
def test_a_helpers_helper_runs_on_every_cpu_but_its_callers(forked, monkeypatch):
    """A helper forked by a helper leaves only its own caller's CPU out of
    the CPUs the program started with, not out of the fewer its caller was
    left: on two CPUs the two helpers run on different CPUs."""
    monkeypatch.setattr(identity, "_CORES", 2)
    outer, inner, _ = _nested_helpers()
    start = identity._AFFINITY
    assert len(outer) == len(inner) == len(start) - 1
    assert inner | outer == start
    assert len(forked) == 1
    _assert_reaped(forked)


def test_a_helpers_helper_holds_none_of_its_callers_ends(forked, monkeypatch):
    """The pipe ends a helper was given belong to it alone: a helper it
    forks closes them, as it closes every end its caller holds."""
    monkeypatch.setattr(identity, "_CORES", 2)
    _, _, held = _nested_helpers()
    assert held == []
    assert len(forked) == 1
    _assert_reaped(forked)


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
        while digest_satisfies(whash_digest(chain, cand, nonce), DL_EASY):
            nonce += 1
        honest_digest = whash_digest(chain, cand, nonce)
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
            append_block(chain, block, registry, credit)
        except BlockRejectedError as exc:
            rejected = exc.reason
        assert rejected == reason
        assert len(chain) == (3 if reason else 4)


class TestVerifyChain:
    def test_clean_chain_has_no_violations(self):
        assert verify_chain(_grow(8)) == []

    def test_tampered_timestamp_is_caught(self):
        chain = _grow(8)
        chain[4] = dataclasses.replace(chain[4], timestamp=424242)
        reasons = {(v.index, v.reason) for v in verify_chain(chain)}
        assert (4, "digest") in reasons

    def test_tampered_hash_breaks_linkage(self):
        chain = _grow(8)
        chain[4] = dataclasses.replace(chain[4], block_hash=b"\x11" * 32)
        reasons = {(v.index, v.reason) for v in verify_chain(chain)}
        assert (4, "digest") in reasons
        assert (5, "linkage") in reasons

    def test_tampered_genesis_is_caught(self):
        for change in ({"timestamp": 1}, {"whash_window": 5}):
            chain = _grow(3)
            chain[0] = dataclasses.replace(chain[0], **change)
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
        block = chain[3]
        tx = block.transactions[0]
        sig = bytearray(tx.signature)
        sig[len(sig) // 2] ^= 0x01
        forged = dataclasses.replace(
            block,
            prev_hash=bytes(32),
            transactions=(dataclasses.replace(tx, signature=bytes(sig)),) + block.transactions[1:],
        )
        chain[3] = mine(chain[:3], forged, DL_EASY).block
        reasons = {(v.index, v.reason) for v in verify_chain(chain)}
        assert {(3, "linkage"), (3, "signature")} <= reasons


ALARMER = generate_identity(Role.MANAGER, seed=604)
TRACER = generate_identity(Role.LIGHT, seed=605)


def _trace(k: int):
    return make_transaction(TRACER, TxKind.TT, b"contacts" + bytes([k]), k)


def _alarm(payload: bytes):
    return make_transaction(ALARMER, TxKind.AT, payload, 50)


def _mined(chain, *txs):
    return mine(chain, _candidate(chain, txs=txs, timestamp=len(chain)), DL_EASY).block


@pytest.fixture(params=["chain", "tail"])
def store(request):
    """An empty chain as a plain Chain or as a ChainTail, which keeps the
    TT digests of its evicted blocks."""
    return Chain() if request.param == "chain" else ChainTail(io.StringIO())


class TestAlarmClause:
    """An AT's payload is the signing digest of a TT earlier in the chain or
    earlier in its own block."""

    def test_alarm_after_its_trace_in_the_block_is_accepted(self, store):
        trace = _trace(1)
        append_block(store, _mined(store, trace, _alarm(signing_digest(trace))))
        assert len(store) == 2

    def test_alarm_before_its_trace_in_the_block_is_refused(self, store):
        trace = _trace(1)
        with pytest.raises(BlockRejectedError, match="^alarm: AT from .* names no earlier TT$"):
            append_block(store, _mined(store, _alarm(signing_digest(trace)), trace))
        assert len(store) == 1

    def test_alarm_of_an_evicted_block_is_accepted(self, store):
        # Past WINDOW_MAX blocks the tail no longer holds the trace's block.
        trace = _trace(1)
        append_block(store, _mined(store, trace))
        for _ in range(WINDOW_MAX):
            append_block(store, _mined(store))
        if isinstance(store, ChainTail):
            with pytest.raises(IndexError):
                store[1]
        append_block(store, _mined(store, _alarm(signing_digest(trace))))

    def test_alarm_naming_a_later_trace_is_refused(self, store):
        trace = _trace(1)
        with pytest.raises(BlockRejectedError, match="^alarm: "):
            append_block(store, _mined(store, _alarm(signing_digest(trace))))
        # Nor does a refused block's trace count for a later alarm.
        with pytest.raises(BlockRejectedError, match="^alarm: "):
            append_block(store, _mined(store, trace, _alarm(bytes(32))))
        with pytest.raises(BlockRejectedError, match="^alarm: "):
            append_block(store, _mined(store, _alarm(signing_digest(trace))))
        assert len(store) == 1

    @pytest.mark.parametrize(
        "payload, named",
        [(bytes(32), "no earlier TT"), (b"\x07", "a 1-byte payload"), (b"", "a 0-byte payload")],
        ids=["unknown-digest", "one-byte", "empty"],
    )
    def test_alarm_naming_no_trace_is_refused(self, store, payload, named):
        append_block(store, _mined(store, _trace(1)))
        block = _mined(store, _alarm(payload))
        result = validate_block(store, block, DL_EASY)
        assert (result.accepted, result.reason) == (False, "alarm")
        assert result.detail == f"AT from {ALARMER.node_id.hex()[:12]} names {named}"

    def test_trace_is_named_by_its_signing_digest(self):
        # Not by the digest of its encoding, which covers the signature: a
        # re-signed trace keeps every alarm that names it.
        trace = _trace(1)
        resigned = dataclasses.replace(trace, signature=bytes(64))
        assert signing_digest(resigned) == signing_digest(trace)
        chain = Chain()
        append_block(chain, _mined(chain, trace))
        append_block(chain, _mined(chain, _alarm(signing_digest(resigned))))
        wrong = hashlib.sha256(encode_transaction(trace)).digest()
        result = validate_block(chain, _mined(chain, _alarm(wrong)), DL_EASY)
        assert result.reason == "alarm"

    def test_signature_clause_comes_first(self):
        chain = Chain()
        forged = dataclasses.replace(_alarm(bytes(32)), payload=bytes([1]) * 32)
        result = validate_block(chain, _mined(chain, forged), DL_EASY)
        assert result.reason == "signature"


class TestVerifyChainAlarms:
    def _chain(self):
        """Block 1 traces, block 2 alarms it, block 3 alarms the trace of
        block 4 and block 5 alarms it again, block 6 alarms nothing any
        trace has."""
        early, late = _trace(1), _trace(2)
        chain = Chain()
        for txs in (
            [early, _trace(3)],
            [_alarm(signing_digest(early))],
            [_alarm(signing_digest(late))],
            [late],
            [_alarm(signing_digest(late))],
            [_alarm(bytes(32))],
        ):
            chain.append(_mined(chain, *txs))
        return chain

    def test_each_misnamed_alarm_is_reported(self):
        manager = ALARMER.node_id.hex()[:12]
        assert [(v.index, v.reason, v.detail) for v in verify_chain(self._chain())] == [
            (3, "alarm", f"AT from {manager} names no earlier TT"),
            (6, "alarm", f"AT from {manager} names no earlier TT"),
        ]

    def test_traces_carry_across_segments(self, monkeypatch):
        monkeypatch.setattr(consensus, "_SEGMENT_TX", 1)
        assert [(v.index, v.reason) for v in verify_chain(self._chain())] == [
            (3, "alarm"), (6, "alarm"),
        ]

    def test_a_trace_in_a_block_that_breaks_a_rule_still_counts(self):
        # Block 1's stored index and block 4's timestamp are wrong; the
        # alarms of blocks 2 and 5 still name their traces.
        chain = self._chain()
        chain[1] = dataclasses.replace(chain[1], index=9)
        chain[4] = dataclasses.replace(chain[4], timestamp=999)
        assert [(v.index, v.reason) for v in verify_chain(chain)] == [
            (1, "index"), (3, "alarm"), (4, "digest"), (6, "alarm"),
        ]


class TestAnalyticModel:
    def test_attack_cost_ratio_is_window_size(self):
        for n_wh in (1, 14, 100):
            honest, attacker = attack_cost_model(n_wh, bits_b=16)
            assert honest == n_wh * 2.0 ** 16
            assert attacker / honest == pytest.approx(n_wh)

    def test_attack_cost_guard(self):
        with pytest.raises(ValueError):
            attack_cost_model(0, bits_b=4)
