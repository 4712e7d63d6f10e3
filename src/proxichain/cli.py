"""Command-line experiment runner.

Subcommands: ``mine-bench`` (difficulty/window timing grid), ``ct-run``
(full traced simulation with persisted artifacts), ``loc-eval`` (bearing
estimator accuracy versus SNR) and ``verify-chain`` (revalidate a persisted
chain file). Exit codes: 0 on success, 2 on validation failure, 3 on a
configuration problem, usage errors included; ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from dataclasses import replace
from typing import Optional, Sequence

from .consensus import BlockRejectedError, verify_chain
from .experiments import (
    ConfigError,
    ExperimentSpec,
    _check_loc_eval,
    load_spec,
    make_output_dir,
    run_ct_experiment,
    run_localization_eval,
    run_mining_benchmark,
    write_bench_csv,
    write_loc_eval_csv,
)
from .ledger import load_chain

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`ConfigError`, so it exits 3 like
    any other configuration problem; subcommand parsers share the class."""

    def error(self, message: str):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="proxichain")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="experiment spec as a JSON file")
        p.add_argument("--seed", type=int, help="override the simulation seed")
        p.add_argument("--blocks", type=int, dest="n_blocks",
                       help="override blocks per cell / run")
        p.add_argument("--out", help="override the output directory")

    bench = sub.add_parser("mine-bench", help="mine blocks across window/level cells")
    add_spec_flags(bench)
    bench.add_argument("--whash", help="override window values, comma separated")
    bench.add_argument("--max-trials", type=int, default=None,
                       help="per-block trial cap (rows hitting it are marked truncated)")

    ct = sub.add_parser("ct-run", help="run the traced simulation and persist artifacts")
    add_spec_flags(ct)
    ct.add_argument("--radius", type=float, help="override the exposure radius (m)")

    loc = sub.add_parser("loc-eval", help="bearing estimation accuracy versus SNR")
    loc.add_argument("--snr", default="10,15,20",
                     help="comma-separated dB values; 'inf' or 'none' (any case) "
                          "means noiseless")
    loc.add_argument("--trials", type=int, default=100)
    loc.add_argument("--seed", type=int, default=0)
    loc.add_argument("--out", default="out")

    ver = sub.add_parser("verify-chain", help="revalidate a persisted chain.jsonl")
    ver.add_argument("chain", help="path to the chain file")
    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    spec = load_spec(args.config) if args.config else ExperimentSpec()
    overrides = {
        "seed": args.seed,
        "n_blocks": args.n_blocks,
        "infection_radius": getattr(args, "radius", None),
    }
    try:
        sim = replace(spec.sim, **{k: v for k, v in overrides.items() if v is not None})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad override: {exc}") from exc
    spec = replace(spec, sim=sim)
    if getattr(args, "whash", None) is not None:
        try:
            values = tuple(int(v) for v in str(args.whash).split(",") if v != "")
        except ValueError as exc:
            raise ConfigError(f"bad --whash list: {exc}") from exc
        spec = replace(spec, whash_values=values)
    if args.out is not None:
        spec = replace(spec, output_dir=args.out)
    return spec


def _cmd_mine_bench(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    make_output_dir(spec.output_dir)
    rows, summary = run_mining_benchmark(spec, max_trials=args.max_trials)
    write_bench_csv(rows, summary, spec.output_dir)
    for (whash, level), s in sorted(summary.items()):
        print(
            f"n_wh={whash:>3} {level}: blocks={s['blocks']} "
            f"mean_trials={s['mean_trials']:.1f} median={s['median_trials']:.0f} "
            f"mean_s={s['mean_s']:.4f}"
        )
    print(f"wrote {spec.output_dir}/mining_metrics.csv")
    return EXIT_OK


def _cmd_ct_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    try:
        paths, stats = run_ct_experiment(spec)
    except BlockRejectedError as exc:
        print(f"block rejected: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(
        f"ticks done: tx={stats['tx_total']} blocks={stats['blocks_total']} "
        f"infected_2m={stats['infected_2m']} infected_5m={stats['infected_5m']} "
        f"({stats['elapsed_s']:.1f}s)"
    )
    print(f"artifacts in {spec.output_dir}/")
    return EXIT_OK


def _snr(token: str) -> Optional[float]:
    """One ``--snr`` value: ``inf`` or ``none``, in any case, is noiseless;
    anything else must parse to a finite dB value."""
    if token.lower() in ("inf", "none"):
        return None
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(
            f"an --snr value must be a finite dB value, or inf or none for noiseless; got {value!r}"
        )
    return value


def _cmd_loc_eval(args: argparse.Namespace) -> int:
    try:
        snrs = [_snr(v.strip()) for v in str(args.snr).split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --snr list: {exc}") from exc
    if not snrs:
        raise ConfigError("--snr needs at least one value")
    try:
        _check_loc_eval(snrs, args.trials, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    make_output_dir(args.out)
    rows = run_localization_eval(snrs, trials=args.trials, seed=args.seed)
    path = write_loc_eval_csv(rows, args.out)
    for r in rows:
        snr = "inf" if r.snr_db is None else f"{r.snr_db:g}"
        print(
            f"snr={snr:>4} dB: azimuth_err={r.mean_abs_azimuth_error_deg:.3f} deg "
            f"rmse={r.position_rmse_m:.3f} m dropped={r.dropped_trials}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_verify_chain(args: argparse.Namespace) -> int:
    try:
        chain = load_chain(args.chain)
    except (OSError, ValueError) as exc:
        print(f"cannot load chain: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    violations = verify_chain(chain)
    if violations:
        for v in violations:
            print(f"block {v.index}: {v.reason} {v.detail}".rstrip(), file=sys.stderr)
        counts = Counter(v.reason for v in violations)
        by_reason = ", ".join(f"{reason} {counts[reason]}" for reason in sorted(counts))
        print(
            f"{len(violations)} violation(s) in {len(chain)} blocks: {by_reason}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    print(f"chain ok: {len(chain)} blocks")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    handlers = {
        "mine-bench": _cmd_mine_bench,
        "ct-run": _cmd_ct_run,
        "loc-eval": _cmd_loc_eval,
        "verify-chain": _cmd_verify_chain,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
