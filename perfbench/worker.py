"""One benchmark process: a set-up, or the measured run of one workload.

``run.py`` starts this file in a fresh interpreter. ``setup`` times the
imports of proxichain plus the workload's input prep. ``measure`` repeats
the workload call until the timed calls add up to ``--seconds`` (untraced),
or alternates two untraced and two traced calls (``--trace 1``). Both write
a JSON result file and leave printing to ``run.py``.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
TRACE_ROUNDS = 2


def _setup(args) -> dict:
    with calibrate.Sampler() as sampler:
        started = time.perf_counter()
        import workloads  # imports proxichain, numpy and cryptography

        imported = time.perf_counter()
        w = workloads.WORKLOADS[args.workload]
        ctx = workloads.Ctx(args.scale, args.seed, args.work_dir)
        os.makedirs(ctx.work_dir, exist_ok=True)
        inputs = w.prep(ctx) if w.prep else {"digest": ""}
        done = time.perf_counter()
    return {"import_s": imported - started, "prep_s": done - imported,
            "setup_s": done - started - sampler.spent, "speed": sampler.speed(),
            "inputs": inputs}


def _one_call(w, ctx, inputs, deep: bool, tracer=None, sampler=None) -> dict:
    """Time one call; judge its output afterwards. Never raises.

    With a sampler, the sampling time is taken out of ``wall_s`` and the
    call's speed factor is recorded; a traced call runs without one.
    """
    record = {"wall_s": 0.0, "work": 0.0, "digest": "", "problems": [], "info": {}, "notes": []}
    try:
        if w.before:
            w.before(ctx, inputs)
        if tracer is not None:
            tracer.install()
        try:
            root = tracer.open(f"bench.{w.name}") if tracer is not None else None
            with sampler if sampler is not None else contextlib.nullcontext():
                started = time.perf_counter()
                try:
                    result = w.call(ctx, inputs)
                finally:
                    record["wall_s"] = time.perf_counter() - started
                    if root is not None:
                        tracer.close(root)
        finally:
            if tracer is not None:
                tracer.uninstall()
        record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if sampler is not None:
            record["wall_s"] -= sampler.spent
            record["speed"] = sampler.speed()
        outcome = w.inspect(ctx, inputs, result, deep)
        record.update(work=outcome.work, digest=outcome.digest, problems=outcome.problems,
                      info=outcome.info, notes=outcome.notes)
    except Exception as exc:  # a crashing call is a failed call, not a crashed benchmark
        traceback.print_exc()
        record["problems"].append(f"raised {type(exc).__name__}: {exc}")
        record["raised"] = True
    return record


def _library_versions() -> dict:
    from importlib import metadata

    return {name: metadata.version(name) for name in ("numpy", "scipy", "cryptography")}


def _measure(args) -> dict:
    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]
    ctx = workloads.Ctx(args.scale, args.seed, args.work_dir)
    with open(args.inputs) as fh:
        inputs = json.load(fh)["inputs"]

    wrapped = tracing.installed_wrappers()
    if wrapped:
        raise RuntimeError(f"untraced call would run through wrappers: {wrapped}")

    calls, traced, tracers = [], [], []
    spent = 0.0
    while True:
        sampler = None if args.trace else calibrate.Sampler()
        record = _one_call(w, ctx, inputs, deep=not calls, sampler=sampler)
        if calls and record["digest"] != calls[0]["digest"]:
            record["problems"].append("output differs from the first call of this run")
        calls.append(record)
        spent += record["wall_s"]
        if record.get("raised"):
            break
        if args.trace:
            # Untraced and traced calls alternate; the overhead compares the
            # faster of each, which damps machine drift between the two.
            tracer = tracing.Tracer(f"{w.name}:{args.seed}:{os.getpid()}:{len(tracers)}")
            t = _one_call(w, ctx, inputs, deep=True, tracer=tracer)
            if t["digest"] != calls[0]["digest"]:
                t["problems"].append("traced output differs from the untraced call")
            leftover = tracing.installed_wrappers()
            if leftover:
                t["problems"].append(f"wrappers left installed: {leftover}")
            traced.append(t)
            tracers.append(tracer)
            if len(traced) == TRACE_ROUNDS or t.get("raised"):
                break
        elif spent >= args.seconds:
            break
    # The high-water mark through the first call: later calls would make it
    # depend on how many calls the machine's speed allowed.
    result = {"calls": calls, "traced": traced, "peak_rss_mb": calls[0].get("rss_mb", 0.0),
              "python": sys.version.split()[0], "libraries": _library_versions(), "checks": []}
    if tracers:
        stats = [tracing.span_stats(tracer) for tracer in tracers]
        counts = [{k: v for k, v in st.items() if k.endswith(".calls")} for st in stats]
        if any(c != counts[0] for c in counts):
            traced[-1]["problems"].append("traced call counts differ between traced calls")
        result["spans"] = stats[-1]
        tracers[-1].write(args.spans)

    if w.extra_checks and not calls[0].get("raised"):
        result["checks"] = [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in w.extra_checks(ctx, inputs)
        ]
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--inputs", help="set-up result whose inputs the measured run uses")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    result = _setup(args) if args.mode == "setup" else _measure(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
