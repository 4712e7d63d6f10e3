import csv
import gc
import hashlib
import json
import os
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from proxichain import aoa, cli
from proxichain.consensus import DL_EASY, mine, verify_chain
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
from proxichain.identity import node_id_for
from proxichain.ledger import (
    WINDOW_MAX,
    Block,
    ChainTail,
    HeldBlock,
    block_from_dict,
    block_to_dict,
    load_chain,
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
                dict(seed=3, violator_id=7, distance_noise_std=0.3),
                dict(metrics_csv="12ddbcf5", credits_csv="cbd72c63", contacts_jsonl="dbce8cf5",
                     chain_jsonl="d0a94124", iup_json="fc4c522d"),
            ),
        ],
        ids=["seed0", "seed3-noisy"],
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
        import proxichain.experiments as exp

        live = []

        def counting_epoch(*args):
            result = run_epoch(*args)
            objects = gc.get_objects()
            live.append((
                sum(isinstance(o, HeldBlock) for o in objects),
                sum(isinstance(o, Block) for o in objects),
            ))
            return result

        monkeypatch.setattr(exp, "run_epoch", counting_epoch)
        sim = SimConfig(
            n_agents=200, ticks=400, p_inf=0.05, seed=1, tx_per_block_mean=5, n_blocks=400
        )
        tracemalloc.start()
        try:
            paths, stats = run_ct_experiment(ExperimentSpec(sim=sim, output_dir=str(tmp_path)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats["blocks_total"] > 4 * WINDOW_MAX
        # The tail keeps one record per window block and no Block (with
        # its transactions) at all.
        assert live == [(WINDOW_MAX, 0)]
        # A run that kept its whole chain and every trace record until the
        # end peaked at 7.8 MiB here, above the 4.5 MiB it wrote.
        streamed = os.path.getsize(paths.chain_jsonl) + os.path.getsize(paths.contacts_jsonl)
        assert peak < streamed

    @staticmethod
    def _assert_crashed_mid_run(out):
        # Neither streamed artifact appears under its final name.
        assert not os.path.exists(out / "chain.jsonl")
        assert not os.path.exists(out / "contacts.jsonl")
        assert os.path.exists(out / ".partial")
        assert not [name for name in os.listdir(out) if name.endswith(".tmp")]

    def test_crash_during_chain_write_leaves_no_chain(self, tmp_path, monkeypatch):
        import proxichain.experiments as exp

        written = []

        def failing_tail(write):
            def fail_after_three(line):
                if len(written) == 3:
                    raise OSError("disk full")
                written.append(line)
                write(line)

            return ChainTail(fail_after_three)

        monkeypatch.setattr(exp, "ChainTail", failing_tail)
        with pytest.raises(OSError):
            run_ct_experiment(_tiny_spec(str(tmp_path)))
        # Genesis and two mined blocks went out before the failing write.
        assert [json.loads(line)["index"] for line in written] == [0, 1, 2]
        self._assert_crashed_mid_run(tmp_path)

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
            ("ct-run", {"sim": {"policy": {"lambda_plus": "x"}}}, []),
            ("ct-run", {"sim": {"track_agents": [500]}}, []),
            ("ct-run", {"sim": {"attacker_id": 500, "attack_tick": 1}}, []),
            ("ct-run", {}, ["--blocks", "-3"]),
            ("ct-run", {}, ["--radius", "nan"]),
            ("mine-bench", {"whash_values": [0.0]}, []),
            ("ct-run", {"output_dir": 5}, []),
            ("mine-bench", {}, ["--max-trials", "0"]),
            ("mine-bench", {}, ["--max-trials", "-5"]),
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
            ("ct-run", {}, ["--whash", "0"]),
            ("mine-bench", {}, ["--radius", "2"]),
        ],
        ids=[
            "spec-not-object", "ct-run-negative-seed", "mine-bench-negative-seed",
            "fractional-n_agents", "string-p_inf", "string-lambda_plus",
            "track_agents-out-of-range", "attacker_id-out-of-range", "negative-blocks",
            "nan-radius", "float-whash", "numeric-output_dir", "zero-max-trials",
            "negative-max-trials", "spec-not-utf8", "spec-nested-too-deep",
            "attack-without-tick", "false-claim-without-claimer",
            "ct-run-out-is-a-file", "ct-run-out-under-a-file",
            "mine-bench-out-is-a-file", "mine-bench-out-under-a-file",
            "unknown-flag", "non-integer-seed", "non-integer-trials",
            "ct-run-whash", "mine-bench-radius",
        ],
    )
    def test_malformed_config_exits_3(self, tmp_path, capsys, command, body, flags):
        if isinstance(body, dict):
            sim = {"n_agents": 20, "ticks": 2, "tx_per_block_mean": 5, "n_blocks": 1}
            body = {"whash_values": [0], **body, "sim": {**sim, **body.get("sim", {})}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(body if isinstance(body, bytes) else json.dumps(body).encode())
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        spec_flags = [] if command == "loc-eval" else ["--config", str(spec_path)]
        argv = [command, *spec_flags, "--out", str(tmp_path), *flags]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

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
