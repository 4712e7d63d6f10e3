"""Benchmark entry point for proxichain: one workload, one seed, one run.

    python3 perfbench/run.py --workload ct_run --seed 3 --seconds 12 --trace 0

``--workload all`` runs the five workloads in turn and ends with one JSON
line whose metrics are named ``<workload>.<metric>``.

Run from the repository root. Each run starts fresh interpreters: three
set-up processes (imports plus input prep, ``setup_s`` is their median; one
with ``--trace 1``) and then one measured process, so ``peak_rss_mb`` is the
high-water mark of a process that did nothing but this workload.

``--trace 0`` repeats the workload call until the timed calls add up to
``--seconds`` and reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates two untraced and two traced calls and reports the
per-layer metrics of the last traced call plus the tracing overhead. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Details (environment, per-call
times, output digests) go to ``.perfbench/results/``. This file uses the
standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("outbreak", "ct_run", "chain_verify", "mine_bench", "loc_eval")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUPS = 3
# Every run must end within 180 s; child processes share what is left.
DEADLINE_S = 170.0
# Per-workload names for the one throughput figure each workload reports as
# work_per_s, with the unit of work.
RATE_NAMES = {
    "outbreak": ("ticks_per_s", "ticks/s"),
    "ct_run": ("ticks_per_s", "ticks/s"),
    "chain_verify": ("tx_per_s", "tx/s"),
    "mine_bench": ("hashes_per_s", "trials/s"),
    "loc_eval": ("fixes_per_s", "fixes/s"),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def _run_child(mode: str, args, deadline: float, result: str, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work-dir", args.work_dir, "--result", result, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    with open(os.path.join(ROOT, result)) as fh:
        return json.load(fh)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(args, measured: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": measured.get("python"),
        "libraries": measured.get("libraries"),
        "commit": _git_commit(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "threads": {name: _child_env()[name] for name in THREAD_VARS},
    }


def _checks(setups: list[dict], measured: dict, trace: bool) -> list[dict]:
    digests = {s["inputs"]["digest"] for s in setups}
    checks = [{"name": "setup_agreement", "ok": len(digests) == 1,
               "detail": f"{len(setups)} set-ups, {len(digests)} distinct input digests"}]
    checks += measured["checks"]
    if trace and "spans" in measured:
        spans = measured["spans"]
        error = spans["trace.self_sum_error_s"]
        checks.append({"name": "span_self_sum",
                       "ok": error <= 1e-6 * max(spans["trace.root_s"], 1.0),
                       "detail": f"self times sum to the root span within {error:.3g} s"})
    return checks


def _end_to_end(args, setups: list[dict], measured: dict) -> tuple[dict, dict]:
    good = [c for c in measured["calls"] if not c["problems"] and c["wall_s"] > 0]
    raw = statistics.median(c["work"] / c["wall_s"] for c in good) if good else 0.0
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * s["speed"] for s in setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "work_per_s": statistics.median(c["work"] / c["wall_s"] / c["speed"] for c in good)
        if good else 0.0,
    }
    rate_name, rate_unit = RATE_NAMES[args.workload]
    named = {
        f"{rate_name} (raw)": (raw, rate_unit),
        f"{rate_name} (at nominal speed)": (metrics["work_per_s"], rate_unit),
        "setup_s (raw)": (statistics.median(s["setup_s"] for s in setups), "s"),
        "machine speed": (statistics.median(c.get("speed", 0.0) for c in measured["calls"]),
                          "x nominal"),
    }
    info = measured["calls"][0]["info"]
    if "artifact_bytes" in info:
        named["artifact_bytes"] = (info["artifact_bytes"], "B")
    return metrics, named


def _per_layer(measured: dict, inputs: dict) -> dict:
    spans = measured["spans"]
    info = {**inputs, **measured["traced"][-1]["info"]}
    chain_tx = info.get("chain_tx", 0)
    chain_blocks = info.get("chain_blocks", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    v = dict(spans)
    v.setdefault("ledger.encode_transaction.calls", 0)
    for key in ("ledger.whash_prefix.bytes", "consensus.mine.trials", "consensus.mine.trials.DL_e",
                "consensus.mine.trials.DL_h", "consensus.validate_block.rejected",
                "consensus.verify_chain.violations", "cli.main.exit_code"):
        v.setdefault(key, 0)
    v["ledger.append_block.rejected"] = spans.get("ledger.append_block.errors", 0)
    v["identity.verify.per_tx"] = ratio(spans["identity.verify.calls"], chain_tx)
    v["ledger.encode_block.per_block"] = ratio(spans["ledger.encode_block.calls"], chain_blocks)
    v["ledger.encode_transaction.per_tx"] = ratio(v["ledger.encode_transaction.calls"], chain_tx)
    v["consensus.mine.trials_per_s"] = ratio(v["consensus.mine.trials"],
                                             spans["consensus.mine.self_s"])
    v["ledger.chain_bytes"] = info.get("chain_bytes", 0)
    v["ledger.whash_window.median"] = info.get("whash_window_median", 0)
    for key in ("tx_total", "blocks_total", "traces", "contacts_listed"):
        v[f"simulation.{key}"] = info.get(key, 0)
    v["experiments.artifact_bytes"] = info.get("artifact_bytes", 0)
    v["aoa.dropped"] = info.get("dropped", 0)
    v["aoa.snr_order_violations"] = info.get("snr_order_violations", 0)
    v["trace.untraced_s"] = min(c["wall_s"] for c in measured["calls"])
    v["trace.traced_s"] = min(c["wall_s"] for c in measured["traced"])
    v["trace.overhead_s"] = v["trace.traced_s"] - v["trace.untraced_s"]
    return v


def run(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    if not os.path.isfile(os.path.join(ROOT, "src", "proxichain", "__init__.py")):
        raise BenchError("no proxichain sources under src/; run from a full checkout")

    deadline = time.monotonic() + DEADLINE_S
    results_dir = os.path.join(".perfbench", "results")
    os.makedirs(os.path.join(ROOT, results_dir), exist_ok=True)
    shutil.rmtree(os.path.join(ROOT, args.work_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, args.work_dir))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    setups = []
    for k in range(1 if args.trace else SETUPS):
        result = os.path.join(args.work_dir, f"setup-{k}.json")
        setups.append(_run_child("setup", args, deadline, result))
    measured = _run_child(
        "measure", args, deadline, os.path.join(args.work_dir, "measure.json"),
        "--inputs", os.path.join(args.work_dir, f"setup-{len(setups) - 1}.json"),
        "--spans", os.path.join(results_dir, f"{tag}.spans.jsonl"),
    )

    checks = _checks(setups, measured, bool(args.trace))
    calls = measured["calls"] + measured["traced"]
    failed = sum(1 for c in calls if c["problems"]) + sum(1 for c in checks if not c["ok"])
    attempted = len(calls) + len(checks)

    if args.trace:
        if "spans" not in measured:
            raise BenchError("the untraced call failed, so no traced call was made")
        values = _per_layer(measured, setups[-1]["inputs"])
        wanted = declared["per_layer"]
        named = {}
    else:
        values, named = _end_to_end(args, setups, measured)
        wanted = declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    summary = {
        "workload": args.workload,
        "environment": _environment(args, measured),
        "setups": [{k: s[k] for k in ("import_s", "prep_s", "setup_s", "speed")} for s in setups],
        "inputs": setups[-1]["inputs"],
        "calls": calls,
        "checks": checks,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": metrics,
        "output_digest": calls[0]["digest"],
        "traced_call_counts": {k: v for k, v in values.items() if k.endswith(".calls")}
        if args.trace else None,
    }
    with open(os.path.join(ROOT, results_dir, f"{tag}.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)

    env = summary["environment"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, scale {args.scale}")
    print(f"environment: nproc {env['nproc']}, cpu {env['cpu_model']!r}, python {env['python']}, "
          f"{env['libraries']}, commit {env['commit']}, threads pinned to 1")
    times = [c["wall_s"] for c in measured["calls"]]
    print(f"{len(times)} timed call(s), {sum(times):.2f} s; {len(setups)} set-up(s)")
    for name, (value, unit) in named.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, body in metrics.items():
        print(f"  {name} = {body['value']:.6g} {body['unit']}")
    print(f"  fail_ratio = {failed}/{attempted}")
    print(f"  output_digest = {summary['output_digest'][:16]}")
    for c in checks:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    for note in calls[0]["notes"]:
        print(f"  note: {note}")
    for c in calls:
        for problem in c["problems"]:
            print(f"  problem: {problem}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    args = parser.parse_args(argv)
    results = {}
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        work_dir = os.path.join(".perfbench", "work", f"{name}-s{args.seed}")
        try:
            results[name] = run(argparse.Namespace(**{**vars(args), "workload": name,
                                                      "work_dir": work_dir}))
        except (BenchError, OSError, KeyError, ValueError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": body for name, r in results.items()
                        for metric, body in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
