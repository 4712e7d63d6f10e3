import csv
import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from proxichain import aoa, cli, consensus, experiments, identity, simulation
from proxichain.consensus import DL_EASY, BlockRejectedError, mine, verify_chain
from proxichain.experiments import (
    ConfigError,
    ExperimentSpec,
    attack_window_experiment,
    load_spec,
    run_ct_experiment,
    run_localization_eval,
    run_mining_benchmark,
    spec_from_json,
    spec_to_json,
    write_bench_csv,
    write_loc_eval_csv,
)
from proxichain.identity import Role, generate_identity, node_id_for
from proxichain.ledger import (
    WINDOW_MAX,
    Block,
    ChainTail,
    HeldBlock,
    TxKind,
    block_from_dict,
    block_to_dict,
    encode_block_full,
    load_chain,
    make_transaction,
    tx_signing_bytes,
)
from proxichain.simulation import SimConfig, run_epoch

TINY_SIM = SimConfig(
    n_agents=15, ticks=20, p_inf=0.15, seed=5, tx_per_block_mean=15, n_blocks=4
)


def _tiny_spec(out_dir: str, name: str = "tiny") -> ExperimentSpec:
    return ExperimentSpec(name=name, sim=TINY_SIM, whash_values=(0,), output_dir=out_dir)


class TestSpec:
    def test_json_roundtrip(self, tmp_path):
        spec = _tiny_spec(str(tmp_path), name="roundtrip")
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_bad_whash_value(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(whash_values=(0, 37))

    def test_empty_whash(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(whash_values=())

    def test_unknown_level(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(levels=("DL_x",))

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError):
            spec_from_json("{not json")

    def test_bad_sim_field(self):
        with pytest.raises(ConfigError):
            spec_from_json(json.dumps({"sim": {"n_agents": 1}}))

    def test_unknown_sim_field(self):
        with pytest.raises(ConfigError):
            spec_from_json(json.dumps({"sim": {"agents": 5}}))

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_spec(str(tmp_path / "absent.json"))

    def test_load_spec_file_roundtrip(self, tmp_path):
        spec = _tiny_spec(str(tmp_path))
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(spec))
        assert load_spec(str(path)) == spec


class TestMiningBenchmark:
    def test_row_grid_and_summary(self):
        spec = ExperimentSpec(
            sim=SimConfig(n_agents=2, ticks=1, n_blocks=6, seed=1),
            whash_values=(0, 20),
            levels=("DL_e",),
        )
        rows, summary = run_mining_benchmark(spec)
        assert len(rows) == 12
        assert {r.whash for r in rows} == {0, 20}
        assert set(summary) == {(0, "DL_e"), (20, "DL_e")}
        for cell in summary.values():
            assert cell["blocks"] == 6
            assert cell["min_trials"] >= 1
            assert cell["min_trials"] <= cell["mean_trials"] <= cell["max_trials"]

    def test_truncated_rows_are_excluded_from_summary(self):
        spec = ExperimentSpec(
            sim=SimConfig(n_agents=2, ticks=1, n_blocks=3, seed=1),
            whash_values=(0,),
            levels=("DL_h",),
        )
        rows, summary = run_mining_benchmark(spec, max_trials=1)
        assert all(r.truncated for r in rows)
        assert summary == {}

    def test_attempt_after_a_truncated_one_searches_a_new_candidate(self):
        spec = ExperimentSpec(
            sim=SimConfig(n_agents=2, ticks=1, n_blocks=8, seed=1),
            whash_values=(0,),
            levels=("DL_h",),
        )
        rows, summary = run_mining_benchmark(spec, max_trials=20000)
        kept = [r for r in rows if not r.truncated]
        # Repeating the first candidate would truncate all eight attempts.
        assert kept
        assert [r.block_index for r in kept] == list(range(101, 101 + len(kept)))
        assert summary[(0, "DL_h")]["blocks"] == len(kept)

    def test_truncated_rows_keep_their_flag_and_search_time(self, tmp_path):
        spec = ExperimentSpec(
            sim=SimConfig(n_agents=2, ticks=1, n_blocks=8, seed=1),
            whash_values=(0,),
            levels=("DL_h",),
        )
        rows, summary = run_mining_benchmark(spec, max_trials=20000)
        cut = [r for r in rows if r.truncated]
        assert cut and len(cut) < len(rows)
        # Each cut search tried all 20000 nonces, which takes real time.
        assert all(r.trials == 20000 and r.elapsed_s > 0 for r in cut)
        write_bench_csv(rows, summary, str(tmp_path))
        with open(tmp_path / "mining_metrics.csv") as fh:
            written = list(csv.DictReader(fh))
        assert [row["truncated"] for row in written] == [str(int(r.truncated)) for r in rows]
        assert all(float(row["elapsed_s"]) > 0 for row in written)

    def test_csv_outputs(self, tmp_path):
        spec = ExperimentSpec(
            sim=SimConfig(n_agents=2, ticks=1, n_blocks=4, seed=2),
            whash_values=(0,),
            levels=("DL_e",),
        )
        rows, summary = run_mining_benchmark(spec)
        write_bench_csv(rows, summary, str(tmp_path))
        with open(tmp_path / "mining_metrics.csv") as fh:
            reader = list(csv.reader(fh))
        assert reader[0] == ["index", "level", "n_wh", "trials", "elapsed_s", "truncated"]
        assert len(reader) == 1 + len(rows)
        with open(tmp_path / "mining_summary.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[:3] == ["n_wh", "level", "blocks"]


class TestCtExperiment:
    def test_artifacts_and_verification(self, tmp_path):
        paths, stats = run_ct_experiment(_tiny_spec(str(tmp_path)))

        for path in (
            paths.metrics_csv,
            paths.credits_csv,
            paths.contacts_jsonl,
            paths.chain_jsonl,
            paths.iup_json,
            paths.spec_json,
        ):
            assert os.path.exists(path)
        assert not os.path.exists(os.path.join(str(tmp_path), ".partial"))

        with open(paths.metrics_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == TINY_SIM.ticks
        assert stats["blocks_total"] == sum(int(r["blocks_mined"]) for r in rows)

        with open(paths.credits_csv) as fh:
            for row in csv.DictReader(fh):
                total = float(row["total"])
                assert total == float(row["prox_credit"]) + float(row["neg_credit"])

        with open(paths.contacts_jsonl) as fh:
            for line in fh:
                json.loads(line)

        chain = load_chain(paths.chain_jsonl)
        assert verify_chain(chain) == []

        restored = load_spec(paths.spec_json)
        assert restored == _tiny_spec(str(tmp_path))

    def test_same_seed_artifacts_are_byte_identical(self, tmp_path):
        paths_a, _ = run_ct_experiment(_tiny_spec(str(tmp_path / "a")))
        paths_b, _ = run_ct_experiment(_tiny_spec(str(tmp_path / "b")))
        for field in ("metrics_csv", "credits_csv", "contacts_jsonl", "chain_jsonl", "iup_json"):
            with open(getattr(paths_a, field), "rb") as fh:
                blob_a = fh.read()
            with open(getattr(paths_b, field), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, field

    @pytest.mark.parametrize(
        "extra, pinned",
        [
            (
                dict(seed=0),
                dict(metrics_csv="05e0a063", credits_csv="e0eadf36", contacts_jsonl="7ffce712",
                     chain_jsonl="c6785b0d", iup_json="bf8b3b0b"),
            ),
            (
                dict(seed=3),
                dict(metrics_csv="12ddbcf5", credits_csv="9f8d4f67", contacts_jsonl="b03825e9",
                     chain_jsonl="dbe60a99", iup_json="fc4c522d"),
            ),
        ],
        ids=["seed0", "seed3"],
    )
    def test_artifacts_are_pinned(self, tmp_path, extra, pinned):
        sim = SimConfig(
            n_agents=300, ticks=25, p_inf=0.05, tx_per_block_mean=10, n_blocks=120,
            attacker_id=5, attack_tick=10, false_claimer_id=6, false_claim_tick=12, **extra,
        )
        paths, _ = run_ct_experiment(ExperimentSpec(sim=sim, output_dir=str(tmp_path)))
        for field, prefix in pinned.items():
            with open(getattr(paths, field), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest()[:8] == prefix, field

    def test_crash_leaves_partial_marker(self, tmp_path, monkeypatch):
        import proxichain.experiments as exp

        def boom(world, chain, trace_sink):
            raise RuntimeError("kaput")

        monkeypatch.setattr(exp, "run_epoch", boom)
        with pytest.raises(RuntimeError):
            run_ct_experiment(_tiny_spec(str(tmp_path)))
        assert os.path.exists(tmp_path / ".partial")

    def test_run_holds_the_window_not_the_run(self, tmp_path, monkeypatch):
        """On one CPU the run's tail keeps one record per window block and
        no Block (with its transactions) at all. On two the block process
        keeps those records, and this process keeps neither. Only objects
        made after the run starts count: those that earlier tests left alive
        are held here, so no new object can take one's id."""
        import proxichain.experiments as exp

        live, build = [], simulation._build_blocks
        gc.collect()
        earlier = [o for o in gc.get_objects() if isinstance(o, (HeldBlock, Block))]
        earlier_ids = {id(o) for o in earlier}

        def objects_live():
            objects = [o for o in gc.get_objects() if id(o) not in earlier_ids]
            return [
                sum(isinstance(o, HeldBlock) for o in objects),
                sum(isinstance(o, Block) for o in objects),
            ]

        def counting_epoch(*args):
            result = run_epoch(*args)
            live.append(objects_live())
            return result

        def counting_build(*args):
            build(*args)
            (tmp_path / "block-process.json").write_text(json.dumps(objects_live()))

        monkeypatch.setattr(exp, "run_epoch", counting_epoch)
        monkeypatch.setattr(simulation, "_build_blocks", counting_build)
        sim = SimConfig(
            n_agents=200, ticks=400, p_inf=0.05, seed=1, tx_per_block_mean=5, n_blocks=400
        )
        monkeypatch.setattr(identity, "_CORES", 1)
        tracemalloc.start()
        try:
            paths, stats = run_ct_experiment(
                ExperimentSpec(sim=sim, output_dir=str(tmp_path / "one"))
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats["blocks_total"] > 4 * WINDOW_MAX
        assert live == [[WINDOW_MAX, 0]]
        # A run that kept its whole chain and every trace record until the
        # end peaked at 7.8 MiB here, above the 4.5 MiB it wrote.
        streamed = os.path.getsize(paths.chain_jsonl) + os.path.getsize(paths.contacts_jsonl)
        assert peak < streamed

        monkeypatch.setattr(identity, "_CORES", 2)
        run_ct_experiment(ExperimentSpec(sim=sim, output_dir=str(tmp_path / "two")))
        assert live[1] == [0, 0]
        assert json.loads((tmp_path / "block-process.json").read_text()) == [WINDOW_MAX, 0]

    @staticmethod
    def _assert_crashed_mid_run(out):
        # Neither streamed artifact appears under its final name.
        assert not os.path.exists(out / "chain.jsonl")
        assert not os.path.exists(out / "contacts.jsonl")
        assert os.path.exists(out / ".partial")
        assert not [name for name in os.listdir(out) if name.endswith(".tmp")]

    def test_crash_during_chain_write_leaves_no_chain(self, tmp_path, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 1)
        written = self.failing_chain_file(monkeypatch)
        with pytest.raises(OSError):
            run_ct_experiment(_tiny_spec(str(tmp_path)))
        # Genesis and two mined blocks went out before the failing write.
        assert [json.loads(line)["index"] for line in written] == [0, 1, 2]
        self._assert_crashed_mid_run(tmp_path)

    @staticmethod
    def failing_chain_file(monkeypatch) -> list[str]:
        """Make ct-run's chain file raise ``OSError("disk full")`` at its
        fourth line. Returns the lines written before it, as the process
        that writes them sees them."""
        import proxichain.experiments as exp

        written = []

        class FailingFile:
            def __init__(self, fh):
                self.flush = fh.flush
                self._write = fh.write

            def write(self, line):
                if len(written) == 3:
                    raise OSError("disk full")
                written.append(line)
                self._write(line)

        monkeypatch.setattr(exp, "ChainTail", lambda fh: ChainTail(FailingFile(fh)))
        return written

    def test_crash_during_contacts_write_leaves_neither_stream(self, tmp_path, monkeypatch):
        import proxichain.experiments as exp

        written = []

        def failing_epoch(world, chain, trace_sink):
            def fail_after_one(line):
                if written:
                    raise OSError("disk full")
                written.append(line)
                trace_sink(line)

            return run_epoch(world, chain, fail_after_one)

        monkeypatch.setattr(exp, "run_epoch", failing_epoch)
        with pytest.raises(OSError):
            run_ct_experiment(_tiny_spec(str(tmp_path)))
        # The tiny run reports two traces; the second write fails.
        assert len(written) == 1
        self._assert_crashed_mid_run(tmp_path)


# Each run with the consensus.ALPHA_D it is made at: the tiny run with both
# kinds of scripted misbehaviour, and a run of 40 agents with a high alpha_d:
# its first four light-miner blocks come from miners below it, whose DL_h
# searches fork helpers while the validator lives, and its last seven from
# miners above it, which mine DL_e. So the validator's entitlement verdicts
# depend on the credit sent with a block.
AGREEMENT_SIMS = {
    "tiny-misbehaving": (
        replace(TINY_SIM, attacker_id=3, attack_tick=5, false_claimer_id=4, false_claim_tick=6),
        consensus.ALPHA_D,
    ),
    "high-alpha-d": (
        SimConfig(n_agents=40, ticks=10, p_inf=0.15, seed=2, tx_per_block_mean=4, n_blocks=15),
        500.0,
    ),
}
CT_ARTIFACTS = ("metrics_csv", "credits_csv", "contacts_jsonl", "chain_jsonl", "iup_json",
                "spec_json")


def _signature_flipped(candidate: Block) -> Block:
    """``candidate`` with one byte of its first transaction's signature
    flipped, for the miner to mine as if it were sound."""
    first, *rest = candidate.transactions
    signature = bytearray(first.signature)
    signature[-1] ^= 1
    return replace(candidate, transactions=(replace(first, signature=bytes(signature)), *rest))


def _miner_tampering_at(monkeypatch, index: int, then=None) -> list[int]:
    """Make ct-run's miner flip a signature byte of block ``index`` and
    re-mine it; ``then`` edits each later candidate before it is mined.
    Returns a list that gets the tick at which block ``index`` is mined, if
    it is mined in this process (on two CPUs the block process mines)."""
    honest, tampered_at = simulation.mine, []

    def tampering(blocks, candidate, level):
        if candidate.index == index:
            tampered_at.append(candidate.timestamp)
            candidate = _signature_flipped(candidate)
        elif then is not None and candidate.index > index:
            candidate = then(candidate)
        return honest(blocks, candidate, level)

    monkeypatch.setattr(simulation, "mine", tampering)
    return tampered_at


def _block_ticks(spec: ExperimentSpec, monkeypatch) -> list[int]:
    """The tick at which each block of ``spec``'s chain is mined, read from
    the chain of a dry run on one CPU."""
    monkeypatch.setattr(identity, "_CORES", 1)
    paths, _ = run_ct_experiment(spec)
    return [block.timestamp for block in load_chain(paths.chain_jsonl)]


def _tick_counter(monkeypatch, pause: float = 0.0) -> list[int]:
    """The number of ticks ``run_epoch`` has started, as a one-item list;
    each tick first sleeps ``pause`` seconds."""
    started, step = [0], simulation.step_mobility

    def counting(world):
        started[0] += 1
        time.sleep(pause)
        return step(world)

    monkeypatch.setattr(simulation, "step_mobility", counting)
    return started


@pytest.fixture
def within_60_s():
    """Fail a test still running after 60 s, rather than hang the suite."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestCtValidator:
    """On more than one CPU, ct-run builds, mines and validates its blocks
    in a forked block process; on one, in process. The outcome must not
    differ."""

    @pytest.mark.parametrize(
        "sim, alpha_d", list(AGREEMENT_SIMS.values()), ids=list(AGREEMENT_SIMS)
    )
    def test_artifacts_do_not_depend_on_the_core_count(self, sim, alpha_d, tmp_path, forked,
                                                        monkeypatch):
        monkeypatch.setattr(consensus, "ALPHA_D", alpha_d)
        spec = ExperimentSpec(name="agree", sim=sim, output_dir=str(tmp_path))
        written = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(identity, "_CORES", cores)
            before = len(forked)
            paths, _ = run_ct_experiment(spec)
            if cores == 1:
                assert len(forked) == before
            for field in CT_ARTIFACTS:
                with open(getattr(paths, field), "rb") as fh:
                    written.setdefault(field, []).append(fh.read())
        for field, blobs in written.items():
            assert blobs[0] == blobs[1] == blobs[2], field
        assert verify_chain(load_chain(paths.chain_jsonl)) == []
        assert forked
        _assert_reaped(forked)

    def test_nonce_search_helpers_hold_no_validator_pipe(self, tmp_path, forked, monkeypatch):
        """A nonce search that the block process splits forks its helpers
        from there, and they close the block process's ends to this
        process, which only the block process may hold."""
        monkeypatch.setattr(identity, "_CORES", 2)
        build, scan = simulation._build_blocks, consensus._scan
        block_process, report = [], tmp_path / "held.txt"

        def recorded_build(chain, registry, status, feed):
            block_process.extend((os.getpid(), status, feed))
            build(chain, registry, status, feed)

        def checking_scan(copy, target, start, stop):
            if block_process and os.getpid() != block_process[0]:
                held = []
                for fd in block_process[1:]:
                    try:
                        os.fstat(fd)
                        held.append(fd)
                    except OSError:
                        pass
                with open(report, "a") as fh:
                    fh.write(f"{os.getppid() == block_process[0]} {held}\n")
            return scan(copy, target, start, stop)

        monkeypatch.setattr(simulation, "_build_blocks", recorded_build)
        monkeypatch.setattr(consensus, "_scan", checking_scan)
        sim, alpha_d = AGREEMENT_SIMS["high-alpha-d"]
        monkeypatch.setattr(consensus, "ALPHA_D", alpha_d)
        run_ct_experiment(ExperimentSpec(sim=sim, output_dir=str(tmp_path / "out")))
        lines = report.read_text().splitlines()
        assert lines and set(lines) == {"True []"}
        assert len(forked) == 1
        _assert_reaped(forked)

    @pytest.mark.parametrize("cores", [1, 2], ids=["in-process", "validator"])
    def test_refused_block_exits_2_naming_the_reason(self, cores, tmp_path, capsys, forked,
                                                      monkeypatch):
        monkeypatch.setattr(identity, "_CORES", cores)
        _miner_tampering_at(monkeypatch, 3)
        out = tmp_path / "run"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_to_json(_tiny_spec(str(out))))
        assert cli.main(["ct-run", "--config", str(spec_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("block rejected: signature: "), err
        TestCtExperiment._assert_crashed_mid_run(out)
        assert len(forked) == cores - 1
        _assert_reaped(forked)

    def test_refusal_is_polled_once_per_tick(self, tmp_path, forked, monkeypatch):
        """With ticks long enough for the block process to add a block, a
        refusal ends the run at the end of the tick after the one that sent
        the block, at the latest, not only after the last tick. The block
        process mines the block, so its tick comes from a dry run."""
        ticks = _block_ticks(_tiny_spec(str(tmp_path / "dry")), monkeypatch)
        monkeypatch.setattr(identity, "_CORES", 2)
        _miner_tampering_at(monkeypatch, 3)
        started = _tick_counter(monkeypatch, pause=0.05)
        with pytest.raises(BlockRejectedError, match="^signature: "):
            run_ct_experiment(_tiny_spec(str(tmp_path / "run")))
        assert started[0] <= ticks[3] + 2 < TINY_SIM.ticks
        _assert_reaped(forked)

    def test_killed_validator_raises_without_hanging(self, tmp_path, forked, monkeypatch,
                                                     within_60_s):
        monkeypatch.setattr(identity, "_CORES", 2)
        started, step = [0], simulation.step_mobility

        def killing_at_tick_10(world):
            started[0] += 1
            if started[0] == 10:
                assert len(forked) == 1
                os.kill(forked[0], signal.SIGKILL)
            return step(world)

        monkeypatch.setattr(simulation, "step_mobility", killing_at_tick_10)
        with pytest.raises(RuntimeError, match="block process exited without a verdict"):
            run_ct_experiment(_tiny_spec(str(tmp_path)))
        TestCtExperiment._assert_crashed_mid_run(tmp_path)
        _assert_reaped(forked)

    def test_cut_verdict_raises_without_a_verdict(self, tmp_path, forked, cut_send,
                                                   monkeypatch):
        """A block process that dies part-way through its verdict's record
        leaves the run without a verdict."""
        monkeypatch.setattr(identity, "_CORES", 2)
        world = simulation.build_world(TINY_SIM)
        with open(tmp_path / "chain.jsonl", "w") as fh:
            with pytest.raises(RuntimeError, match="block process exited without a verdict"):
                run_epoch(world, simulation.ChainTail(fh))
        assert len(forked) == 1
        _assert_reaped(forked)

    def test_crash_during_chain_write_reaps_the_validator(self, tmp_path, forked, monkeypatch):
        """The block process writes the chain file, so its failed write
        ends the run with an error that names it."""
        monkeypatch.setattr(identity, "_CORES", 2)
        TestCtExperiment.failing_chain_file(monkeypatch)
        with pytest.raises(RuntimeError, match="^the block process failed: OSError: disk full$"):
            run_ct_experiment(_tiny_spec(str(tmp_path)))
        TestCtExperiment._assert_crashed_mid_run(tmp_path)
        assert len(forked) == 1
        _assert_reaped(forked)

    def test_refusal_beats_a_send_blocked_on_a_large_block(self, tmp_path, forked, monkeypatch,
                                                            within_60_s):
        """A job larger than the feed pipe, sent after a block the block
        process refuses, waits until the block process has exited; the
        refusal, not the broken pipe, ends the run, within the tick that
        sent it."""
        sim, _ = AGREEMENT_SIMS["tiny-misbehaving"]
        spec = ExperimentSpec(name="big", sim=sim, output_dir=str(tmp_path / "dry"))
        ticks = _block_ticks(spec, monkeypatch)
        # The first block after the registry's whose successor shares its tick.
        index = next(i for i in range(2, len(ticks) - 1) if ticks[i] == ticks[i + 1])

        sender = generate_identity(Role.LIGHT, seed=99)
        big = make_transaction(sender, TxKind.ST, bytes(1_100_000), 0)
        send, sent = simulation._BlockProcess.send, [0]

        def padded(self, job, credit):
            sent[0] += 1  # the index of the block the job decides
            if sent[0] > index:
                batch, *rest = job
                job = ((*batch, big), *rest)
            send(self, job, credit)

        monkeypatch.setattr(identity, "_CORES", 2)
        monkeypatch.setattr(simulation._BlockProcess, "send", padded)
        _miner_tampering_at(monkeypatch, index)
        started = _tick_counter(monkeypatch)
        with pytest.raises(BlockRejectedError, match="^signature: "):
            run_ct_experiment(replace(spec, output_dir=str(tmp_path / "run")))
        assert sent[0] == index + 1
        assert started[0] == ticks[index] + 1
        _assert_reaped(forked)

    def test_blocks_near_1_mib_come_back_whole(self, tmp_path, forked, monkeypatch, within_60_s):
        """Four blocks near 1 MiB in one tick: each job fills the feed, and
        the block process writes each ~2 MiB line to the chain file itself.
        The artifacts equal one CPU's."""
        sim = replace(TINY_SIM, tx_per_block_mean=1, n_blocks=40)
        sender = generate_identity(Role.LIGHT, seed=98)
        heavy = [make_transaction(sender, TxKind.ST, bytes([k]) * 1_000_000, 5) for k in range(4)]
        started, step = [0], simulation.step_mobility

        def heavy_tick(world):
            started[0] += 1
            if started[0] == 6:
                world.pending.extend(heavy)
            return step(world)

        monkeypatch.setattr(simulation, "step_mobility", heavy_tick)
        written = {}
        for cores in (1, 2):
            monkeypatch.setattr(identity, "_CORES", cores)
            started[0] = 0
            paths, _ = run_ct_experiment(
                ExperimentSpec(name="heavy", sim=sim, output_dir=str(tmp_path / "run"))
            )
            for field in CT_ARTIFACTS:
                with open(getattr(paths, field), "rb") as fh:
                    written.setdefault(field, []).append(fh.read())
        for field, blobs in written.items():
            assert blobs[0] == blobs[1], field
        chain = load_chain(paths.chain_jsonl)
        assert sum(len(encode_block_full(block)) > 1_000_000 for block in chain) == 4
        assert verify_chain(chain) == []
        assert len(forked) == 1
        _assert_reaped(forked)

    def test_benchmark_size_chain_is_pinned(self, tmp_path, forked, monkeypatch):
        """The benchmark's seed-1 ``ct_run`` spec writes the same
        ``chain.jsonl`` on one CPU and on two; the specs above are tiny."""
        sim = SimConfig(
            n_agents=1000, ticks=12, tx_per_block_mean=10, n_blocks=150, p_inf=0.02, seed=1,
            attacker_id=500, attack_tick=3, false_claimer_id=501, false_claim_tick=2,
        )
        for cores in (1, 2):
            monkeypatch.setattr(identity, "_CORES", cores)
            paths, _ = run_ct_experiment(
                ExperimentSpec(sim=sim, output_dir=str(tmp_path / str(cores)))
            )
            with open(paths.chain_jsonl, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert digest == "77c2fd5741664cc14edf6b3f4180f0a0a9d2ba9fcff8be6e0cb480182b8550f9"
        assert len(forked) == 1
        _assert_reaped(forked)


class TestLocalizationEval:
    def test_minimum_trial_count(self):
        with pytest.raises(ValueError):
            run_localization_eval([None], trials=10)

    def test_noiseless_bearings_are_sharp(self, tmp_path):
        rows = run_localization_eval([None], trials=30, seed=1)
        assert len(rows) == 1
        assert rows[0].snr_db is None
        assert rows[0].mean_abs_azimuth_error_deg <= 1.0
        assert rows[0].position_rmse_m < 1.0

        path = write_loc_eval_csv(rows, str(tmp_path))
        with open(path) as fh:
            reader = list(csv.DictReader(fh))
        assert reader[0]["snr_db"] == "inf"

    def test_rows_are_pinned(self):
        """Exact floats recorded before bearing estimation was batched per fix."""
        rows = run_localization_eval([None, 20.0, 10.0], trials=30, seed=1)
        assert [
            (r.snr_db, r.mean_abs_azimuth_error_deg, r.position_rmse_m, r.dropped_trials)
            for r in rows
        ] == [
            (None, 0.277632334138855, 0.020133033388870042, 0),
            (20.0, 0.2875621478846115, 0.02255876607216437, 0),
            (10.0, 1.7737359549747505, 0.0341988001735763, 0),
        ]

    def test_benchmark_size_rows_are_pinned(self):
        """The rows the loc_eval benchmark hashes at seed 1 (digest
        9acad9cc9b096a2b), recorded before a trial's SNR rows were batched."""
        rows = run_localization_eval([None, 20.0, 10.0], trials=150, seed=1)
        assert [
            (r.snr_db, r.mean_abs_azimuth_error_deg, r.position_rmse_m, r.dropped_trials)
            for r in rows
        ] == [
            (None, 0.32731736053189486, 0.02809918095861398, 0),
            (20.0, 1.2214125117862864, 0.029959160427418852, 0),
            (10.0, 1.573877308423764, 0.03593864659448492, 0),
        ]

    def test_empty_snr_list_is_rejected(self):
        with pytest.raises(ValueError, match="SNR point"):
            run_localization_eval([], trials=30)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_is_rejected_before_synthesis(self, bad, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("synthesis ran before the SNR list was checked")

        monkeypatch.setattr(aoa, "synthesize_snapshots", unreachable)
        with pytest.raises(ValueError, match="finite"):
            run_localization_eval([20.0, bad], trials=30)

    def test_geometry_is_shared_across_snr_rows(self):
        lone = run_localization_eval([None], trials=30, seed=2)
        paired = run_localization_eval([20.0, None], trials=30, seed=2)
        assert paired[1].mean_abs_azimuth_error_deg == pytest.approx(
            lone[0].mean_abs_azimuth_error_deg
        )


SPLIT_SNRS = [None, 20.0, 10.0]
# 31 trials cut unevenly into two (15 + 16) and three (10 + 10 + 11) shares.
SPLIT_TRIALS = 31


def _hex_rows(rows) -> list[tuple]:
    return [
        (r.snr_db, r.mean_abs_azimuth_error_deg.hex(), r.position_rmse_m.hex(), r.dropped_trials)
        for r in rows
    ]


def _split_eval() -> list[tuple]:
    return _hex_rows(run_localization_eval(SPLIT_SNRS, trials=SPLIT_TRIALS, seed=3))


def _assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _no_fork():
    raise AssertionError("forked where the eval must run in one process")


@pytest.fixture(scope="module")
def sequential_rows() -> list[tuple]:
    """The split eval's rows from one process, with ``os.fork`` gone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identity, "_CORES", 1)
        mp.delattr(os, "fork")
        return _split_eval()


class TestSplitLocalizationEval:
    """The trials are cut into one share per CPU, helpers run every share
    but the first, and the rows must be those of one process, bit for bit."""

    @pytest.mark.parametrize("cores", [1, 2, 3], ids=["one-core", "two-cores", "three-cores"])
    def test_rows_do_not_depend_on_the_core_count(self, cores, forked, sequential_rows,
                                                    monkeypatch):
        monkeypatch.setattr(identity, "_CORES", cores)
        assert _split_eval() == sequential_rows
        assert len(forked) == cores - 1
        _assert_reaped(forked)

    def test_one_core_never_forks(self, sequential_rows, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 1)
        monkeypatch.setattr(os, "fork", _no_fork)
        assert _split_eval() == sequential_rows

    def test_no_fork_beside_other_threads(self, sequential_rows, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 2)
        monkeypatch.setattr(os, "fork", _no_fork)
        with ThreadPoolExecutor(1) as pool:
            assert pool.submit(_split_eval).result() == sequential_rows

    def test_no_fork_available(self, sequential_rows, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 2)
        monkeypatch.delattr(os, "fork")
        assert _split_eval() == sequential_rows

    def test_error_in_a_helpers_share_surfaces_unchanged(self, forked, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 2)
        caller, trial_geometry = os.getpid(), experiments._loc_geometry
        run_here = []

        def fails_at_trial_20(seed, trial, *args):
            if os.getpid() == caller:
                run_here.append(trial)
            if trial == 20:
                raise aoa.NumericalRankError("injected at trial 20")
            return trial_geometry(seed, trial, *args)

        monkeypatch.setattr(experiments, "_loc_geometry", fails_at_trial_20)
        with pytest.raises(aoa.NumericalRankError, match="^injected at trial 20$"):
            run_localization_eval(SPLIT_SNRS, trials=SPLIT_TRIALS, seed=3)
        # The caller ran its share (0-14), then redid the helper's share
        # (15-30), which had failed, up to the trial a sequential run stops at.
        assert run_here == list(range(21))
        assert len(forked) == 1
        _assert_reaped(forked)

    def test_share_of_a_helper_that_dies_is_redone(self, forked, sequential_rows, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 3)
        caller, trial_geometry = os.getpid(), experiments._loc_geometry

        def helper_dies(seed, trial, *args):
            if os.getpid() != caller and trial == 25:
                os._exit(1)
            return trial_geometry(seed, trial, *args)

        monkeypatch.setattr(experiments, "_loc_geometry", helper_dies)
        assert _split_eval() == sequential_rows
        assert len(forked) == 2
        _assert_reaped(forked)

    def test_share_of_a_helper_that_cuts_its_record_is_redone(self, forked, sequential_rows,
                                                              cut_send, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", 3)
        assert _split_eval() == sequential_rows
        assert len(forked) == 2
        _assert_reaped(forked)

    # Rows recorded before trials were synthesized four at a time. At 31
    # and 37 trials the last group of every share is short, at one CPU and
    # at two (shares of 15 + 16 and 18 + 19 trials).
    PINNED_HEX_ROWS = {
        31: [
            (None, "0x1.49e32418af7efp-2", "0x1.7c9c6797ecbabp-6", 0),
            (20.0, "0x1.6818e28013204p-2", "0x1.bbf4aa2004bf1p-6", 0),
            (10.0, "0x1.8a09257b21cc6p-2", "0x1.151dcf6410b43p-5", 0),
        ],
        37: [
            (None, "0x1.83e8fa8674b45p-2", "0x1.20fe7b08e17bdp-5", 0),
            (20.0, "0x1.ac3e5525fd37ep-2", "0x1.45a5d2a3995a5p-5", 0),
            (10.0, "0x1.aa13cab4481b7p+0", "0x1.ad4721c33b46dp-5", 0),
        ],
    }

    @pytest.mark.parametrize("cores", [1, 2], ids=["one-core", "two-cores"])
    @pytest.mark.parametrize("trials", sorted(PINNED_HEX_ROWS))
    def test_rows_of_short_groups_are_pinned(self, trials, cores, forked, monkeypatch):
        monkeypatch.setattr(identity, "_CORES", cores)
        rows = run_localization_eval(SPLIT_SNRS, trials=trials, seed=3)
        assert _hex_rows(rows) == self.PINNED_HEX_ROWS[trials]
        assert len(forked) == cores - 1
        _assert_reaped(forked)

    def test_cli_csv_bytes_do_not_depend_on_the_core_count(self, tmp_path, monkeypatch):
        written = []
        for cores in (1, 2):
            monkeypatch.setattr(identity, "_CORES", cores)
            out = tmp_path / f"cores-{cores}"
            argv = ["loc-eval", "--snr", "inf,20,10", "--trials", str(SPLIT_TRIALS),
                    "--seed", "3", "--out", str(out)]
            assert cli.main(argv) == cli.EXIT_OK
            written.append((out / "loc_eval.csv").read_bytes())
        assert written[0] == written[1]

    def test_every_group_of_a_share_writes_into_one_block(self, sequential_rows, monkeypatch):
        """The groups of one share, the short last one included, are
        synthesized into leading slices of one block, allocated once."""
        monkeypatch.setattr(identity, "_CORES", 1)
        synthesize, blocks = aoa.synthesize_snapshots, []

        def spy(*args, out, **kwargs):
            blocks.append(out)
            return synthesize(*args, out=out, **kwargs)

        monkeypatch.setattr(aoa, "synthesize_snapshots", spy)
        assert _split_eval() == sequential_rows
        assert [len(block) for block in blocks] == [4] * 7 + [3]
        base = blocks[0].base
        assert base is not None and len(base) == experiments._LOC_GROUP
        for block in blocks:
            assert block.base is base and block.ctypes.data == base.ctypes.data


# Shifts the C heap before and after the import, runs two warm-up evals and
# prints the minor faults of the next two, in this process and in the
# helpers it reaped.
_LAYOUT_PROBE = """
import resource
held = [bytearray(100_000)]
from proxichain.experiments import run_localization_eval
held += [bytes(1000) for _ in range(3000)]


def faults():
    return [resource.getrusage(who).ru_minflt
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]


for _ in range(2):
    run_localization_eval([None, 20.0, 10.0], 150, seed=1)
for _ in range(2):
    before = faults()
    run_localization_eval([None, 20.0, 10.0], 150, seed=1)
    print(*(after - first for after, first in zip(faults(), before)))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="counts the minor faults of glibc's heap on Linux"
)
def test_eval_page_faults_do_not_depend_on_the_heap_layout():
    """With the heap shifted so that a block freed after each group would
    be trimmed off the heap top, an eval call still takes only the faults
    of its fork and its one block (~1.3k here and ~1.6k in the helper on
    two CPUs), not ~8.8k and ~9.1k."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(experiments.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = subprocess.run(
        [sys.executable, "-c", _LAYOUT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    calls = [tuple(map(int, line.split())) for line in probe.stdout.splitlines()]
    assert len(calls) == 2
    for caller, helpers in calls:
        assert caller < 3000 and helpers < 3000, calls


def test_window_attack_cost_grows_with_window_count():
    result = attack_window_experiment(chain_length=10, reps=12, seed=0)
    assert result["window_count"] == 10
    assert 4.0 <= result["measured_ratio"] <= 25.0


class TestCli:
    def test_mine_bench_exit_ok(self, tmp_path, capsys):
        code = cli.main(
            ["mine-bench", "--whash", "0", "--blocks", "3", "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_OK
        assert (tmp_path / "mining_metrics.csv").exists()
        assert "DL_e" in capsys.readouterr().out

    def test_mine_bench_bad_whash_is_config_error(self, tmp_path):
        code = cli.main(["mine-bench", "--whash", "7", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_ct_run_roundtrip_through_verify(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_to_json(_tiny_spec(str(tmp_path))))
        assert cli.main(["ct-run", "--config", str(spec_path)]) == cli.EXIT_OK
        chain_path = tmp_path / "chain.jsonl"
        assert cli.main(["verify-chain", str(chain_path)]) == cli.EXIT_OK
        assert "chain ok" in capsys.readouterr().out

    def test_verify_chain_flags_tampering(self, tmp_path, capsys):
        run_ct_experiment(_tiny_spec(str(tmp_path)))
        chain_path = tmp_path / "chain.jsonl"
        lines = chain_path.read_text().splitlines()
        body = json.loads(lines[2])
        body["timestamp"] += 1
        lines[2] = json.dumps(body, sort_keys=True, separators=(",", ":"))
        chain_path.write_text("\n".join(lines) + "\n")

        code = cli.main(["verify-chain", str(chain_path)])
        assert code == cli.EXIT_VALIDATION
        assert "violation" in capsys.readouterr().err

    def test_verify_chain_missing_file(self, tmp_path):
        code = cli.main(["verify-chain", str(tmp_path / "nope.jsonl")])
        assert code == cli.EXIT_CONFIG

    def test_ct_run_invalid_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli.main(["ct-run", "--config", str(bad)]) == cli.EXIT_CONFIG

    def test_loc_eval_exit_ok(self, tmp_path, capsys):
        code = cli.main(
            ["loc-eval", "--snr", "inf", "--trials", "30", "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_OK
        assert (tmp_path / "loc_eval.csv").exists()
        assert "snr= inf" in capsys.readouterr().out

    @pytest.mark.parametrize("out", ["taken", "taken/out"], ids=["is-a-file", "under-a-file"])
    def test_loc_eval_unusable_out_exits_3_before_work(self, tmp_path, capsys, monkeypatch, out):
        (tmp_path / "taken").write_text("")
        monkeypatch.setattr(cli, "run_localization_eval", pytest.fail)
        argv = ["loc-eval", "--snr", "inf", "--trials", "30", "--out", str(tmp_path / out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_loc_eval_noiseless_token_ignores_case(self, tmp_path):
        written = []
        for snr in ("inf,20", "Inf,20", "NONE,20"):
            out = tmp_path / snr.replace(",", "-")
            argv = ["loc-eval", "--snr", snr, "--trials", "30", "--out", str(out)]
            assert cli.main(argv) == cli.EXIT_OK
            written.append((out / "loc_eval.csv").read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    def test_loc_eval_bad_snr_list(self):
        assert cli.main(["loc-eval", "--snr", "abc"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "snr, named", [("nan", "nan"), ("inf,-inf", "-inf"), ("20,1e400", "inf")]
    )
    def test_loc_eval_non_finite_snr(self, snr, named, capsys, tmp_path):
        argv = ["loc-eval", "--snr", snr, "--trials", "30", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and f"got {named}" in err
        assert "or inf or none for noiseless" in err

    def test_loc_eval_too_few_trials(self, tmp_path):
        argv = ["loc-eval", "--snr", "inf", "--trials", "5", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, body, flags",
        [
            ("ct-run", [], []),
            ("ct-run", {}, ["--seed", "-1"]),
            ("mine-bench", {}, ["--seed", "-1"]),
            ("ct-run", {"sim": {"n_agents": 20.5}}, []),
            ("ct-run", {"sim": {"p_inf": "x"}}, []),
            ("ct-run", {"sim": {"step_std": 0.5}}, []),
            ("ct-run", {"sim": {"distance_noise_std": 0.3}}, []),
            ("ct-run", {"sim": {"violator_id": 7}}, []),
            ("ct-run", {"sim": {"policy": {"alpha_d": 0.0}}}, []),
            ("ct-run", {"sim": {"policy": {"omega_na": "x"}}}, []),
            ("ct-run", {"sim": {"attacker_id": 500, "attack_tick": 1}}, []),
            ("ct-run", {}, ["--blocks", "-3"]),
            ("ct-run", {}, ["--radius", "nan"]),
            ("mine-bench", {"whash_values": [0.0]}, []),
            ("ct-run", {"output_dir": 5}, []),
            ("mine-bench", {}, ["--max-trials", "0"]),
            ("mine-bench", {}, ["--max-trials", "-5"]),
            ("mine-bench", {}, ["--max-trials", "0", "--out", "{tmp}/mb"]),
            ("ct-run", b"\xff\xfe{}", []),
            ("mine-bench", b"[" * 200_000 + b"]" * 200_000, []),
            ("ct-run", {"sim": {"attacker_id": 5}}, []),
            ("ct-run", {"sim": {"false_claim_tick": 1}}, []),
            ("ct-run", {}, ["--out", "{tmp}/spec.json"]),
            ("ct-run", {}, ["--out", "{tmp}/spec.json/out"]),
            ("mine-bench", {}, ["--out", "{tmp}/spec.json"]),
            ("mine-bench", {}, ["--out", "{tmp}/spec.json/out"]),
            ("ct-run", {}, ["--bogus", "1"]),
            ("ct-run", {}, ["--seed", "abc"]),
            ("loc-eval", {}, ["--trials", "x"]),
            ("loc-eval", {}, ["--seed", "-1", "--out", "{tmp}/lo"]),
            ("loc-eval", {}, ["--trials", "10", "--out", "{tmp}/lo"]),
            ("ct-run", {}, ["--whash", "0"]),
            ("mine-bench", {}, ["--radius", "2"]),
            ("ct-run", {}, ["--seed", "10000000000000"]),
            ("mine-bench", {}, ["--seed", "9223372036854775808"]),
        ],
        ids=[
            "spec-not-object", "ct-run-negative-seed", "mine-bench-negative-seed",
            "fractional-n_agents", "string-p_inf", "removed-step_std",
            "removed-distance_noise_std", "removed-violator_id",
            "removed-policy-alpha_d", "string-omega_na", "attacker_id-out-of-range",
            "negative-blocks",
            "nan-radius", "float-whash", "numeric-output_dir", "zero-max-trials",
            "negative-max-trials", "zero-max-trials-new-out", "spec-not-utf8",
            "spec-nested-too-deep",
            "attack-without-tick", "false-claim-without-claimer",
            "ct-run-out-is-a-file", "ct-run-out-under-a-file",
            "mine-bench-out-is-a-file", "mine-bench-out-under-a-file",
            "unknown-flag", "non-integer-seed", "non-integer-trials",
            "loc-eval-negative-seed", "loc-eval-too-few-trials",
            "ct-run-whash", "mine-bench-radius", "ct-run-seed-past-key-range",
            "mine-bench-seed-past-key-range",
        ],
    )
    def test_malformed_config_exits_3(self, tmp_path, capsys, command, body, flags):
        # The stderr line names one of the sim and policy fields the case sets.
        named = []
        if isinstance(body, dict):
            case_sim = body.get("sim", {})
            named = [k for k in case_sim if k != "policy"] + list(case_sim.get("policy", {}))
            sim = {"n_agents": 20, "ticks": 2, "tx_per_block_mean": 5, "n_blocks": 1}
            body = {"whash_values": [0], **body, "sim": {**sim, **case_sim}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(body if isinstance(body, bytes) else json.dumps(body).encode())
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        spec_flags = [] if command == "loc-eval" else ["--config", str(spec_path)]
        argv = [command, *spec_flags, "--out", str(tmp_path), *flags]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not named or any(name in err for name in named), named
        for flag in ("--seed", "--trials"):
            if flag in flags:
                assert flag[2:] in err, flag
        # Refused before any output file or directory, the .partial marker
        # included, is made.
        assert os.listdir(tmp_path) == ["spec.json"]

    def test_missing_subcommand_exits_3_with_usage(self, capsys):
        assert cli.main([]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "usage: proxichain" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["ct-run", "--help"])
        assert exit_.value.code == cli.EXIT_OK
        assert "--radius" in capsys.readouterr().out


@pytest.fixture(scope="module")
def tiny_chain_blocks(tmp_path_factory) -> list[dict]:
    out = tmp_path_factory.mktemp("tiny_chain")
    paths, _ = run_ct_experiment(_tiny_spec(str(out)))
    with open(paths.chain_jsonl) as fh:
        return [json.loads(line) for line in fh]


def _set(index: int, key: str, value):
    def mangle(blocks: list) -> list:
        blocks[index] = dict(blocks[index], **{key: value})
        return blocks
    return mangle


def _drop(index: int, key: str):
    def mangle(blocks: list) -> list:
        del blocks[index][key]
        return blocks
    return mangle


def _array_line(blocks: list) -> list:
    blocks[1] = [1, 2, 3]
    return blocks


def _deep_line(blocks: list) -> list:
    blocks[1] = "[" * 100_000 + "]" * 100_000  # raw line: too deep for json.loads
    return blocks


def _write_mangled(blocks: list, mangle, tmp_path):
    blocks = mangle(json.loads(json.dumps(blocks)))
    path = tmp_path / "chain.jsonl"
    path.write_text(
        "".join((b if isinstance(b, str) else json.dumps(b)) + "\n" for b in blocks)
    )
    return path


def _resign_on_secp256k1(blocks: list[dict]) -> list[dict]:
    """The chain as a file written before the switch to P-256: each sender
    holds a secp256k1 key, and every block is re-mined over the new bytes."""
    keys = {}
    mined = [block_from_dict(blocks[0])]
    for body in blocks[1:]:
        block = block_from_dict(body)
        txs = []
        for tx in block.transactions:
            key = keys.setdefault(
                tx.sender, ec.derive_private_key(len(keys) + 1, ec.SECP256K1())
            )
            pub = key.public_key().public_bytes(Encoding.X962, PublicFormat.CompressedPoint)
            sender = node_id_for(pub)
            message = tx_signing_bytes(tx.kind, sender, tx.payload, tx.timestamp)
            signature = key.sign(message, ec.ECDSA(hashes.SHA256(), deterministic_signing=True))
            txs.append(replace(tx, sender=sender, sender_pubkey=pub, signature=signature))
        candidate = replace(block, prev_hash=mined[-1].block_hash, transactions=tuple(txs))
        mined.append(mine(mined, candidate, DL_EASY).block)
    return [block_to_dict(b) for b in mined]


class TestVerifyChainMalformed:
    """verify-chain keeps its exit codes on hostile chain files: a line that
    does not load is a configuration problem (3), a loaded chain that breaks
    a rule is a validation failure (2); neither may raise."""

    @pytest.mark.parametrize(
        "mangle, load_error",
        [
            (_set(1, "index", None), "line 2: "),
            (_set(1, "transactions", None), "line 2: "),
            (_drop(1, "transactions"), "line 2: missing field 'transactions'"),
            (_array_line, "line 2: "),
            (_deep_line, "line 2: "),
            (_set(2, "whash_window", 300), "line 3: "),
            (_set(1, "nonce", -1), "line 2: "),
            (_set(0, "whash_window", 5), None),
        ],
        ids=["index-null", "transactions-null", "transactions-missing", "array-line",
             "deep-nesting", "window-300", "nonce-negative", "genesis-window"],
    )
    def test_probe_exit_code(self, tiny_chain_blocks, tmp_path, capsys, mangle, load_error):
        """``load_error`` starts the message a chain that does not load must
        print, naming the line; None for a chain that loads and fails
        validation."""
        path = _write_mangled(tiny_chain_blocks, mangle, tmp_path)
        code = cli.main(["verify-chain", str(path)])
        err = capsys.readouterr().err
        if load_error is None:
            assert code == cli.EXIT_VALIDATION
            assert "block 0: genesis" in err
        else:
            assert code == cli.EXIT_CONFIG
            assert f"cannot load chain: {load_error}" in err

    def test_secp256k1_chain_fails_every_signature(self, tiny_chain_blocks, tmp_path, capsys):
        blocks = _resign_on_secp256k1(tiny_chain_blocks)
        path = _write_mangled(blocks, lambda b: b, tmp_path)
        assert cli.main(["verify-chain", str(path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        signed = [k for k, b in enumerate(blocks) if b["transactions"]]
        assert len(signed) >= 2
        reported = [line.split(" ", 3)[1:3] for line in err.splitlines() if line.startswith("block ")]
        assert reported == [[f"{k}:", "signature"] for k in signed]
        assert err.splitlines()[-1] == (
            f"{len(signed)} violation(s) in {len(blocks)} blocks: signature {len(signed)}"
        )
        assert "Traceback" not in err

    def test_summary_counts_each_reason(self, tiny_chain_blocks, tmp_path, capsys):
        def mangle(blocks):
            blocks[1]["prev_hash"] = "00" * 32
            blocks[2]["timestamp"] += 1
            return blocks

        path = _write_mangled(tiny_chain_blocks, mangle, tmp_path)
        assert cli.main(["verify-chain", str(path)]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        reasons = Counter(line.split(" ")[2] for line in lines[:-1])
        assert all(line.startswith("block ") for line in lines[:-1])
        assert {"linkage", "digest"} <= set(reasons)
        assert lines[-1] == (
            f"{len(lines) - 1} violation(s) in {len(tiny_chain_blocks)} blocks: "
            + ", ".join(f"{r} {reasons[r]}" for r in sorted(reasons))
        )

    def test_window_past_the_history_counts_the_block_predecessors(
        self, tiny_chain_blocks, tmp_path, capsys
    ):
        """A window deeper than its block's history is reported against the
        predecessors that block has, not the length of the whole file."""
        assert len(tiny_chain_blocks) > 3
        path = _write_mangled(tiny_chain_blocks, _set(2, "whash_window", 99), tmp_path)
        assert cli.main(["verify-chain", str(path)]) == cli.EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert "block 2: window window 99 of block 2 needs 98 predecessors, the block has 2" in lines

    def test_load_error_names_the_line(self, tiny_chain_blocks, tmp_path, capsys):
        path = _write_mangled(tiny_chain_blocks, _set(2, "nonce", -1), tmp_path)
        assert cli.main(["verify-chain", str(path)]) == cli.EXIT_CONFIG
        assert "line 3: nonce" in capsys.readouterr().err

    def test_non_utf8_byte_names_the_line(self, tiny_chain_blocks, tmp_path, capsys):
        path = _write_mangled(tiny_chain_blocks, lambda blocks: blocks, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"\n") + 20] ^= 0x80  # bit 7 of a byte on line 2
        path.write_bytes(bytes(raw))
        assert cli.main(["verify-chain", str(path)]) == cli.EXIT_CONFIG
        assert "line 2: 'utf-8' codec can't decode" in capsys.readouterr().err
