"""Experiment runners: mining benchmarks, full traced runs, localization eval.

Every runner takes an :class:`ExperimentSpec` (or plain arguments), executes
deterministically from the seed it carries and persists CSV/JSONL artifacts
with stable ordering, so re-running one reproduces its outputs byte for byte.
Wall-clock columns are the one exception and are informative only.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import _fork, aoa
from .consensus import (
    DL_EASY,
    DL_HARD,
    LEVELS_BY_NAME,
    DifficultyLevel,
    MiningTimeoutError,
    mine,
)
from .credit import CreditPolicy
from .identity import Role, generate_identity
# ``save_chain`` is unused here; perfbench/tracing.py wraps this binding.
from .ledger import Chain, ChainTail, next_block, save_chain, save_iup, whash_window_for
from .simulation import SimConfig, beacon_grid, build_world, run_epoch

ALLOWED_WHASH = (0, 20, 40, 60, 80, 100)


class ConfigError(Exception):
    """A spec file or override does not describe a runnable experiment."""


@dataclass(frozen=True)
class ExperimentSpec:
    name: str = "default"
    sim: SimConfig = field(default_factory=SimConfig)
    whash_values: tuple[int, ...] = (0, 20, 40, 60, 80, 100)
    levels: tuple[str, ...] = (DL_EASY.name, DL_HARD.name)
    output_dir: str = "out"

    def __post_init__(self) -> None:
        for name in ("name", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not self.whash_values:
            raise ConfigError("whash_values must not be empty")
        bad = [
            w for w in self.whash_values
            if isinstance(w, bool) or not isinstance(w, int) or w not in ALLOWED_WHASH
        ]
        if bad:
            raise ConfigError(f"whash values {bad} not in {list(ALLOWED_WHASH)}")
        unknown = [lv for lv in self.levels if lv not in LEVELS_BY_NAME]
        if unknown:
            raise ConfigError(f"unknown difficulty levels {unknown}")

    def level_objects(self) -> list[DifficultyLevel]:
        return [LEVELS_BY_NAME[name] for name in self.levels]


def spec_to_json(spec: ExperimentSpec) -> str:
    body = asdict(spec)
    return json.dumps(body, sort_keys=True, indent=2)


def spec_from_json(text: str) -> ExperimentSpec:
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("spec is nested too deeply to parse") from exc
    if not isinstance(body, dict) or not isinstance(body.get("sim", {}), dict):
        raise ConfigError("spec and its 'sim' entry must be JSON objects")
    try:
        sim_body = dict(body.get("sim", {}))
        policy = CreditPolicy(**sim_body.pop("policy", {}))
        sim = SimConfig(policy=policy, **sim_body)
        return ExperimentSpec(
            name=body.get("name", "default"),
            sim=sim,
            whash_values=tuple(body.get("whash_values", ALLOWED_WHASH)),
            levels=tuple(body.get("levels", (DL_EASY.name, DL_HARD.name))),
            output_dir=body.get("output_dir", "out"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad spec field: {exc}") from exc


def make_output_dir(path: str) -> None:
    """Create an output directory; one that cannot be made is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path!r}: {exc}") from exc


def load_spec(path: str) -> ExperimentSpec:
    try:
        with open(path) as fh:
            return spec_from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read spec: {exc}") from exc


# ---------------------------------------------------------------------------
# Mining benchmark
# ---------------------------------------------------------------------------

@dataclass
class BenchRow:
    whash: int
    level: str
    block_index: int
    trials: int
    elapsed_s: float
    truncated: bool = False


def _bench_base_chain(depth: int, miner_id: bytes, rng: np.random.Generator) -> Chain:
    """Cheap easy-level chain long enough to honor any window draw."""
    chain = Chain()
    for _ in range(depth):
        window = whash_window_for(len(chain) - 1, int(rng.integers(0, 101)))
        result = mine(chain, next_block(chain, window, (), miner_id, len(chain)), DL_EASY)
        chain.append(result.block)
    return chain


def run_mining_benchmark(
    spec: ExperimentSpec, max_trials: Optional[int] = None
) -> tuple[list[BenchRow], dict]:
    """Mine ``spec.sim.n_blocks`` empty blocks per (whash, level) cell.

    Returns the per-block rows plus a per-cell summary holding min, max,
    mean and median of both trial counts and wall-clock seconds. Rows that
    hit ``max_trials`` are marked truncated and excluded from the summary.
    """
    if max_trials is not None and max_trials < 1:
        raise ConfigError(f"max_trials must be at least 1, got {max_trials}")
    rng = np.random.default_rng(spec.sim.seed)
    bench_id = generate_identity(Role.AUTHORIZED, seed=spec.sim.seed).node_id
    base = _bench_base_chain(100, bench_id, rng)

    rows: list[BenchRow] = []
    summary: dict = {}
    for whash in spec.whash_values:
        for level in spec.level_objects():
            chain = Chain(base)
            cell: list[BenchRow] = []
            for k in range(spec.sim.n_blocks):
                window = whash_window_for(len(chain) - 1, whash)
                # Stamped with the attempt, not the height, so that an attempt
                # after a truncated one searches a new candidate.
                candidate = next_block(chain, window, (), bench_id, len(base) + k)
                try:
                    result = mine(chain, candidate, level, max_trials=max_trials)
                except MiningTimeoutError as exc:
                    cell.append(
                        BenchRow(whash, level.name, len(chain), max_trials, exc.elapsed, True)
                    )
                    continue
                chain.append(result.block)
                cell.append(
                    BenchRow(whash, level.name, result.block.index, result.trials, result.elapsed)
                )
            rows.extend(cell)
            kept = [r for r in cell if not r.truncated]
            if kept:
                trials = [r.trials for r in kept]
                elapsed = [r.elapsed_s for r in kept]
                summary[(whash, level.name)] = {
                    "blocks": len(kept),
                    "min_trials": min(trials),
                    "max_trials": max(trials),
                    "mean_trials": statistics.fmean(trials),
                    "median_trials": statistics.median(trials),
                    "min_s": min(elapsed),
                    "max_s": max(elapsed),
                    "mean_s": statistics.fmean(elapsed),
                    "median_s": statistics.median(elapsed),
                }
    return rows, summary


def write_bench_csv(rows: Sequence[BenchRow], summary: dict, out_dir: str) -> None:
    with open(os.path.join(out_dir, "mining_metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "level", "n_wh", "trials", "elapsed_s", "truncated"])
        for r in rows:
            writer.writerow(
                [r.block_index, r.level, r.whash, r.trials, f"{r.elapsed_s:.6f}",
                 int(r.truncated)]
            )
    with open(os.path.join(out_dir, "mining_summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n_wh", "level", "blocks", "min_trials", "mean_trials",
             "median_trials", "max_trials", "min_s", "mean_s", "median_s", "max_s"]
        )
        for (whash, level), s in sorted(summary.items()):
            writer.writerow(
                [whash, level, s["blocks"], s["min_trials"], f"{s['mean_trials']:.3f}",
                 s["median_trials"], s["max_trials"], f"{s['min_s']:.6f}",
                 f"{s['mean_s']:.6f}", f"{s['median_s']:.6f}", f"{s['max_s']:.6f}"]
            )


# ---------------------------------------------------------------------------
# Traced contact run
# ---------------------------------------------------------------------------

@dataclass
class CtArtifacts:
    metrics_csv: str
    credits_csv: str
    contacts_jsonl: str
    chain_jsonl: str
    iup_json: str
    spec_json: str


@contextmanager
def _renamed_into_place(path: str) -> Iterator[str]:
    """Yield a temporary name beside ``path``; it replaces ``path`` only if
    the block finishes, so a crash never leaves a complete-looking file."""
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def run_ct_experiment(spec: ExperimentSpec) -> tuple[CtArtifacts, dict]:
    """Execute a full traced run and persist its six artifacts.

    Each artifact is written under a temporary name and renamed into place.
    ``contacts.jsonl`` and ``chain.jsonl`` are written line by line while
    the run makes them, and only the W-Hash window of the chain is kept in
    memory (:class:`ChainTail`); the renames still come in artifact order,
    after the run. On failure the artifacts renamed so far stay on disk next
    to a ``.partial`` marker so a crashed run is never mistaken for a
    finished one.
    """
    out = spec.output_dir
    make_output_dir(out)
    paths = CtArtifacts(
        metrics_csv=os.path.join(out, "metrics.csv"),
        credits_csv=os.path.join(out, "credits.csv"),
        contacts_jsonl=os.path.join(out, "contacts.jsonl"),
        chain_jsonl=os.path.join(out, "chain.jsonl"),
        iup_json=os.path.join(out, "iup.json"),
        spec_json=os.path.join(out, "spec.json"),
    )
    # The marker exists for the whole run; it disappears only after every
    # artifact has been flushed, so crashed runs stay distinguishable.
    marker = os.path.join(out, ".partial")
    with open(marker, "w") as fh:
        fh.write("running\n")

    world = build_world(spec.sim)
    # Context managers exit in reverse, so the chain, entered first, is
    # renamed after the contacts, as the artifact order has it.
    with (
        _renamed_into_place(paths.chain_jsonl) as chain_tmp,
        open(chain_tmp, "w") as chain_fh,
        _renamed_into_place(paths.contacts_jsonl) as contacts_tmp,
        open(contacts_tmp, "w") as contacts_fh,
    ):
        world, _, metrics = run_epoch(world, ChainTail(chain_fh), contacts_fh.write)

        with _renamed_into_place(paths.metrics_csv) as tmp, open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["tick", "infected_count_2m", "infected_count_5m", "tx_count", "blocks_mined"]
            )
            for row in metrics.rows:
                writer.writerow(
                    [row["tick"], row["infected_count_2m"], row["infected_count_5m"],
                     row["tx_count"], row["blocks_mined"]]
                )
        with _renamed_into_place(paths.credits_csv) as tmp, open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tick", "node_id", "prox_credit", "neg_credit", "total"])
            for tick, node, p, neg, tot in metrics.credit_rows:
                writer.writerow([tick, node, repr(float(p)), repr(float(neg)), repr(float(tot))])
    with _renamed_into_place(paths.iup_json) as tmp:
        save_iup(world.iup, tmp)
    with _renamed_into_place(paths.spec_json) as tmp, open(tmp, "w") as fh:
        fh.write(spec_to_json(spec))
        fh.write("\n")
    os.remove(marker)

    stats = {
        "tx_total": metrics.tx_total,
        "blocks_total": metrics.blocks_total,
        "infected_2m": metrics.rows[-1]["infected_count_2m"] if metrics.rows else 0,
        "infected_5m": metrics.rows[-1]["infected_count_5m"] if metrics.rows else 0,
        "elapsed_s": metrics.elapsed_s,
    }
    return paths, stats


# ---------------------------------------------------------------------------
# Localization evaluation
# ---------------------------------------------------------------------------

@dataclass
class LocEvalRow:
    snr_db: Optional[float]
    mean_abs_azimuth_error_deg: float
    position_rmse_m: float
    dropped_trials: int


# One record per trial and SNR row: the four bearing errors, the squared
# position error and a flag set when the fix was dropped (its error is then
# 0.0). A flag rather than a NaN error, so that a NaN error still reaches the
# RMSE.
_LOC_FIELDS = 6
# Trials synthesized in one call. Four spread synthesis's per-call cost
# and keep a group's arrays under 1 MB; MUSIC stays per trial, whose
# batches over trials cost more memory than they saved time.
_LOC_GROUP = 4


class _LocGeometry(NamedTuple):
    """Where one trial drops the agent, and how its four receivers see it."""

    target: np.ndarray  # (2,) the agent's position
    picked: np.ndarray  # (4, 2) the four anchors nearest to it
    deltas: np.ndarray  # (4, 2) target - anchor
    azimuths: np.ndarray  # (4,) degrees in [0, 180], folded onto one side
    elevations: np.ndarray  # (4,) degrees


def _loc_geometry(seed: int, trial: int, beacons: np.ndarray) -> _LocGeometry:
    """The geometry of trial ``trial``, seeded by ``(seed, trial)`` alone."""
    # Geometry is shared across the SNR rows so they differ only in noise,
    # which keeps the per-row means comparable.
    geo = np.random.default_rng(np.random.SeedSequence((seed, trial)))
    target = geo.uniform(0.5, 9.5, size=2)
    picked = beacons[np.argsort(np.linalg.norm(beacons - target, axis=1))[:4]]
    elevations = geo.uniform(0.0, 5.0, size=4)
    deltas = target - picked
    azimuths = np.degrees(np.arctan2(np.abs(deltas[:, 1]), deltas[:, 0]))
    return _LocGeometry(target, picked, deltas, azimuths, elevations)


def _loc_fixes(geometry: _LocGeometry, samples: np.ndarray) -> np.ndarray:
    """The ``(C, _LOC_FIELDS)`` records of one trial's snapshots, shape
    ``(C, 4, aoa.ARRAY_ELEMENTS, aoa.SNAPSHOT_SAMPLES)``: one MUSIC call
    over them all, then one triangulation per SNR row."""
    n_channels = len(samples)
    spectra = aoa.music_spectra(samples.reshape(-1, *samples.shape[2:]))
    peaks = np.argmax(spectra, axis=1).reshape(n_channels, 4)
    records = np.zeros((n_channels, _LOC_FIELDS))
    records[:, :4] = np.abs(peaks - geometry.azimuths)
    # Undo the mirror ambiguity using the known side of the axis (a peak at
    # 0 below it becomes -0.0).
    bearings = peaks * np.where(geometry.deltas[:, 1] >= 0, 1.0, -1.0)
    for k, row in enumerate(bearings):
        try:
            point, _ = aoa.estimate_position(geometry.picked, row)
            records[k, 4] = np.sum((point - geometry.target) ** 2)
        except aoa.DegenerateGeometryError:
            records[k, 5] = 1.0
    return records


def _loc_group(
    seed: int,
    group: range,
    snrs: Sequence[Optional[float]],
    beacons: np.ndarray,
    block: np.ndarray,
) -> np.ndarray:
    """The ``(len(group), len(snrs), _LOC_FIELDS)`` records of the
    trials in ``group``, synthesized in one call into ``block``, of shape
    ``(len(group), len(snrs), 4, aoa.ARRAY_ELEMENTS, aoa.SNAPSHOT_SAMPLES)``:
    SNR row ``k`` of trial ``t`` draws from its own generator, seeded by
    ``(seed, t, k + 1)``. MUSIC and triangulation run per trial."""
    geometries = [_loc_geometry(seed, trial, beacons) for trial in group]
    noise_rngs = [
        [
            np.random.default_rng(np.random.SeedSequence((seed, trial, k + 1)))
            for k in range(len(snrs))
        ]
        for trial in group
    ]
    samples = aoa.synthesize_snapshots(
        snrs,
        [g.azimuths for g in geometries],
        [g.elevations for g in geometries],
        noise_rngs,
        out=block,
    )
    return np.stack([_loc_fixes(g, trial_samples) for g, trial_samples in zip(geometries, samples)])


def _loc_trials(
    seed: int, start: int, stop: int, snrs: Sequence[Optional[float]]
) -> np.ndarray:
    """The ``(stop - start, len(snrs), _LOC_FIELDS)`` records of trials
    ``start .. stop - 1``, in trial order, ``_LOC_GROUP`` trials at a time.

    Every group is synthesized into a leading slice of one block, allocated
    here once: a block per group, freed after it, is trimmed off the C
    allocator's heap top in many heap layouts and page-faulted back in by
    the next group (~8.8k minor faults per 150-trial call)."""
    beacons = beacon_grid()
    records = np.empty((stop - start, len(snrs), _LOC_FIELDS))
    block = np.empty(
        (_LOC_GROUP, len(snrs), 4, aoa.ARRAY_ELEMENTS, aoa.SNAPSHOT_SAMPLES), dtype=complex
    )
    for first in range(start, stop, _LOC_GROUP):
        last = min(first + _LOC_GROUP, stop)
        records[first - start : last - start] = _loc_group(
            seed, range(first, last), snrs, beacons, block[: last - first]
        )
    return records


def _check_loc_eval(
    snr_list: Sequence[Optional[float]], trials: int, seed: int
) -> None:
    """Raise ``ValueError`` naming the argument that
    :func:`run_localization_eval` would refuse, before any work."""
    if trials < 30:
        raise ValueError(f"need at least 30 trials per SNR point, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not snr_list:
        raise ValueError("need at least one SNR point")
    aoa._check_snrs(snr_list)


def run_localization_eval(
    snr_list: Sequence[Optional[float]],
    trials: int,
    seed: int = 0,
) -> list[LocEvalRow]:
    """Monte Carlo over synth -> spectrum -> bearing -> triangulation.

    Each trial drops an agent uniformly into the venue and, for every SNR
    point, synthesizes one 256-sample snapshot per selected receiver (a
    four-element array at each of the four nearest of the 16 anchors),
    estimates bearings from the spectrum peaks and intersects them. ``None``
    in ``snr_list`` means noiseless. The linear arrays cannot tell a source
    from its mirror across their axis, so the eval resolves that half-plane
    choice from the known geometry before intersecting.

    All SNR points of a trial share its geometry, and each has its own noise
    generator. The snapshots of four trials are synthesized in one call,
    into one block that each process allocates once for all its groups;
    those of one trial are scanned in one MUSIC call, and triangulation
    stays per fix.

    The trials run on every CPU in ``sched_getaffinity`` (``taskset``
    limits them): ``range(trials)`` is cut into one contiguous share per
    process, the calling process runs the first and forked helpers (see
    :func:`proxichain._fork.helpers`) the others. A trial is seeded by
    ``(seed, trial)`` alone and the records are merged in trial order, so
    the rows do not depend on the number of processes. A helper that dies
    or cuts its share's record short has its share redone here, so an error
    is the one a sequential run raises, at the same trial.
    """
    _check_loc_eval(snr_list, trials, seed)

    def bounds(p: int, procs: int) -> tuple[int, int]:
        return trials * p // procs, trials * (p + 1) // procs

    def helper(p: int, procs: int, report: int) -> None:
        _fork.send(report, _loc_trials(seed, *bounds(p, procs), snr_list))

    with _fork.helpers(helper) as reads:
        procs = len(reads) + 1
        shares = [_loc_trials(seed, *bounds(0, procs), snr_list)]
        for p, fd in enumerate(reads, 1):
            share = next(_fork.records(fd), None)
            if share is None:  # the helper died or its share raised
                share = _loc_trials(seed, *bounds(p, procs), snr_list)
            shares.append(share)
    records = np.concatenate(shares)

    rows: list[LocEvalRow] = []
    for k, snr in enumerate(snr_list):
        dropped = records[:, k, 5] != 0.0
        pos_sq = records[~dropped, k, 4]
        rmse = float(np.sqrt(np.mean(pos_sq))) if pos_sq.size else float("nan")
        rows.append(
            LocEvalRow(
                snr_db=snr,
                # A contiguous copy, in the order the errors were made, so
                # that the pairwise sum is that of the sequential loop.
                mean_abs_azimuth_error_deg=float(np.mean(records[:, k, :4].reshape(-1))),
                position_rmse_m=rmse,
                dropped_trials=int(np.count_nonzero(dropped)),
            )
        )
    return rows


def write_loc_eval_csv(rows: Sequence[LocEvalRow], out_dir: str) -> str:
    path = os.path.join(out_dir, "loc_eval.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "mean_abs_azimuth_error_deg", "position_rmse_m", "dropped"])
        for r in rows:
            snr = "inf" if r.snr_db is None else f"{r.snr_db:g}"
            writer.writerow(
                [snr, f"{r.mean_abs_azimuth_error_deg:.4f}", f"{r.position_rmse_m:.4f}", r.dropped_trials]
            )
    return path


# ---------------------------------------------------------------------------
# Window attack experiment
# ---------------------------------------------------------------------------

def attack_window_experiment(
    chain_length: int = 30,
    reps: int = 50,
    seed: int = 0,
) -> dict:
    """Measure honest vs. exhaustive re-mining cost on a short chain.

    The honest miner extends the tip once with a secret window draw. An
    attacker who cannot read the draw must mine a candidate for every
    possible window value. The ratio of mean trial counts estimates the
    window-count multiplier predicted by the cost model.
    """
    rng = np.random.default_rng(seed)
    miner_id = generate_identity(Role.AUTHORIZED, seed=seed).node_id
    chain = _bench_base_chain(chain_length, miner_id, rng)

    honest_trials = []
    attacker_trials = []
    for rep in range(reps):
        secret = int(rng.integers(1, chain_length + 1))
        candidate = next_block(chain, secret, (), miner_id, 1000 + rep)
        honest_trials.append(mine(chain, candidate, DL_EASY).trials)

        total = 0
        for guess in range(1, chain_length + 1):
            total += mine(chain, replace(candidate, whash_window=guess), DL_EASY).trials
        attacker_trials.append(total)

    honest_mean = statistics.fmean(honest_trials)
    attacker_mean = statistics.fmean(attacker_trials)
    return {
        "window_count": chain_length,
        "honest_mean_trials": honest_mean,
        "attacker_mean_trials": attacker_mean,
        "measured_ratio": attacker_mean / honest_mean,
    }
