import csv
import json
import os

import pytest

from proxichain import cli
from proxichain.consensus import verify_chain
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
from proxichain.ledger import block_to_json_line, load_chain
from proxichain.simulation import SimConfig

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
        assert reader[0] == ["index", "level", "n_wh", "trials", "elapsed_s"]
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

    def test_crash_leaves_partial_marker(self, tmp_path, monkeypatch):
        import proxichain.experiments as exp

        def boom(world, chain):
            raise RuntimeError("kaput")

        monkeypatch.setattr(exp, "run_epoch", boom)
        with pytest.raises(RuntimeError):
            run_ct_experiment(_tiny_spec(str(tmp_path)))
        assert os.path.exists(tmp_path / ".partial")

    def test_crash_during_chain_write_leaves_no_chain(self, tmp_path, monkeypatch):
        import proxichain.experiments as exp

        def fail_halfway(chain, path):
            with open(path, "w") as fh:
                fh.write(block_to_json_line(chain.blocks[0]) + "\n")
            raise OSError("disk full")

        monkeypatch.setattr(exp, "save_chain", fail_halfway)
        with pytest.raises(OSError):
            run_ct_experiment(_tiny_spec(str(tmp_path)))
        assert not os.path.exists(tmp_path / "chain.jsonl")
        assert os.path.exists(tmp_path / ".partial")
        assert os.path.exists(tmp_path / "contacts.jsonl")
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


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

    def test_loc_eval_bad_snr_list(self):
        assert cli.main(["loc-eval", "--snr", "abc"]) == cli.EXIT_CONFIG

    def test_loc_eval_too_few_trials(self):
        assert cli.main(["loc-eval", "--snr", "inf", "--trials", "5"]) == cli.EXIT_CONFIG


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


class TestVerifyChainMalformed:
    """verify-chain keeps its exit codes on hostile chain files: a line that
    does not load is a configuration problem (3), a loaded chain that breaks
    a rule is a validation failure (2); neither may raise."""

    @pytest.mark.parametrize(
        "mangle, expected",
        [
            (_set(1, "index", None), cli.EXIT_CONFIG),
            (_set(1, "transactions", None), cli.EXIT_CONFIG),
            (_array_line, cli.EXIT_CONFIG),
            (_deep_line, cli.EXIT_CONFIG),
            (_set(2, "whash_window", 300), cli.EXIT_CONFIG),
            (_set(1, "nonce", -1), cli.EXIT_CONFIG),
            (_set(0, "whash_window", 5), cli.EXIT_VALIDATION),
        ],
        ids=["index-null", "transactions-null", "array-line", "deep-nesting", "window-300",
             "nonce-negative", "genesis-window"],
    )
    def test_probe_exit_code(self, tiny_chain_blocks, tmp_path, capsys, mangle, expected):
        path = _write_mangled(tiny_chain_blocks, mangle, tmp_path)
        assert cli.main(["verify-chain", str(path)]) == expected
        err = capsys.readouterr().err
        if expected == cli.EXIT_VALIDATION:
            assert "block 0: genesis" in err
        else:
            assert "cannot load chain" in err

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
