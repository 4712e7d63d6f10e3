"""The five benchmark workloads: inputs, the timed call and its correctness gate.

Every workload calls a public proxichain entry point through its module
attribute (``simulation.run_outbreak``, ``cli.main``...) so that a traced run
sees the same call through its wrapper. Inputs derive from the seed alone;
repeating a call in one run repeats the same inputs, so every call of a run
must produce the same output digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from proxichain import cli, experiments, simulation
from proxichain.consensus import DL_EASY, mine
from proxichain.experiments import ExperimentSpec
from proxichain.identity import Role, generate_identity
from proxichain.ledger import block_from_dict, block_to_dict
from proxichain.simulation import SimConfig

CT_ARTIFACTS = ("metrics.csv", "credits.csv", "contacts.jsonl", "chain.jsonl", "iup.json",
                "spec.json")

# Sizes per scale. "full" is what the benchmark measures; "tiny" keeps every
# code path (attacker, false claimer, honored windows, both levels) for the
# self-test.
SIZES = {
    "full": {
        "outbreak": {"n_agents": 1000, "ticks": 40},
        # Blocks of ~10 transactions let the chain pass 150 blocks within 12
        # ticks, so most window draws are honored; see README.md.
        "ct": {"n_agents": 1000, "ticks": 12, "tx_per_block_mean": 10, "n_blocks": 150},
        # 64 blocks per level keep the hard/easy ratio check ~4 standard
        # deviations inside its band for any seed.
        "mine": {"blocks_per_cell": 32},
        "loc": {"trials": 150},
    },
    "tiny": {
        "outbreak": {"n_agents": 100, "ticks": 10},
        "ct": {"n_agents": 40, "ticks": 12, "tx_per_block_mean": 3, "n_blocks": 150},
        "mine": {"blocks_per_cell": 24},
        "loc": {"trials": 30},
    },
}

MINE_WINDOWS = (0, 100)
LOC_SNRS = (None, 20.0, 10.0)
# Criterion 1's band for the hard/easy mean-trial ratio (expected 4096).
RATIO_BAND = (2048.0, 8192.0)


@dataclass
class Outcome:
    """What one timed call produced, judged after the clock stopped."""

    work: float
    digest: str
    problems: list[str] = field(default_factory=list)   # fail the call
    info: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)      # known defects, reported only


@dataclass
class Ctx:
    scale: str
    seed: int
    work_dir: str   # per-run working directory, relative to the checkout

    def sizes(self, key: str) -> dict:
        return SIZES[self.scale][key]


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# outbreak: run_outbreak, simulation geometry and infection only
# ---------------------------------------------------------------------------

def _outbreak_config(ctx: Ctx) -> SimConfig:
    s = ctx.sizes("outbreak")
    return SimConfig(n_agents=s["n_agents"], ticks=s["ticks"], p_inf=0.02, seed=ctx.seed)


def outbreak_call(ctx: Ctx, inputs: dict):
    return simulation.run_outbreak(_outbreak_config(ctx))


def outbreak_inspect(ctx: Ctx, inputs: dict, rows, deep: bool) -> Outcome:
    ticks = ctx.sizes("outbreak")["ticks"]
    problems = []
    if [r[0] for r in rows] != list(range(ticks)):
        problems.append(f"expected one row per tick for {ticks} ticks")
    for prev, row in zip(rows, rows[1:]):
        if row[1] < prev[1] or row[2] < prev[2]:
            problems.append(f"cumulative count fell at tick {row[0]}")
            break
    if any(c5 < c2 for _, c2, c5 in rows):
        problems.append("5 m count below 2 m count")
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    final = rows[-1] if rows else (0, 0, 0)
    return Outcome(ticks, digest, problems, {"infected_2m": final[1], "infected_5m": final[2]})


# ---------------------------------------------------------------------------
# ct_run: the ct-run command, full write path
# ---------------------------------------------------------------------------

def ct_spec(ctx: Ctx, out_dir: str) -> dict:
    s = ctx.sizes("ct")
    n = s["n_agents"]
    ticks = s["ticks"]
    return {
        "name": "perfbench-ct",
        "output_dir": out_dir,
        "sim": {
            "n_agents": n,
            "ticks": ticks,
            "tx_per_block_mean": s["tx_per_block_mean"],
            "n_blocks": s["n_blocks"],
            "p_inf": 0.02,
            "seed": ctx.seed,
            # Scripted misbehavior, so the credit penalty path runs.
            "attacker_id": n // 2,
            "attack_tick": ticks // 4,
            "false_claimer_id": n // 2 + 1,
            "false_claim_tick": ticks // 5,
        },
    }


def ct_prep(ctx: Ctx) -> dict:
    """Write the ct-run spec; its output directory depends only on the seed."""
    out = os.path.join(ctx.work_dir, "ct")
    path = os.path.join(ctx.work_dir, "spec.json")
    with open(path, "w") as fh:
        json.dump(ct_spec(ctx, out), fh, sort_keys=True, indent=1)
    return {"spec": path, "out": out, "digest": _sha256_files([path])}


def ct_before(ctx: Ctx, inputs: dict) -> None:
    shutil.rmtree(inputs["out"], ignore_errors=True)


def ct_call(ctx: Ctx, inputs: dict):
    return _run_cli(["ct-run", "--config", inputs["spec"]])


def chain_facts(path: str) -> dict:
    """Block count, transactions, window sizes and bytes of a chain file."""
    windows, tx = [], 0
    with open(path) as fh:
        for line in fh:
            block = json.loads(line)
            windows.append(block["whash_window"])
            tx += len(block["transactions"])
    return {
        "chain_blocks": len(windows),
        "chain_tx": tx,
        "chain_bytes": os.path.getsize(path),
        "whash_window_median": statistics.median(windows[1:]) if len(windows) > 1 else 0,
    }


def ct_inspect(ctx: Ctx, inputs: dict, result, deep: bool) -> Outcome:
    code, stdout, stderr = result
    out = inputs["out"]
    problems = []
    if code != cli.EXIT_OK:
        problems.append(f"ct-run exited {code}: {stderr.strip()[:200]}")
    missing = [a for a in CT_ARTIFACTS if not os.path.isfile(os.path.join(out, a))]
    if missing:
        problems.append(f"missing artifacts {missing}")
    if os.path.exists(os.path.join(out, ".partial")):
        problems.append(".partial marker left behind")
    ticks = ctx.sizes("ct")["ticks"]
    if problems:
        return Outcome(ticks, "", problems)
    paths = [os.path.join(out, a) for a in CT_ARTIFACTS]
    info = {"artifact_bytes": sum(os.path.getsize(p) for p in paths)}
    if deep:
        info.update(chain_facts(os.path.join(out, "chain.jsonl")))
        info.update(_ct_counts(out, ctx))
        if info["whash_window_median"] <= 0:
            problems.append("median whash_window is 0: chain too short for window draws")
        if not info["attacker_penalized"]:
            problems.append("the scripted attacker carries no penalty")
    return Outcome(ticks, _sha256_files(paths), problems, info)


def _ct_counts(out: str, ctx: Ctx) -> dict:
    tx_total = blocks_total = 0
    with open(os.path.join(out, "metrics.csv")) as fh:
        next(fh)
        for line in fh:
            cells = line.strip().split(",")
            tx_total += int(cells[3])
            blocks_total += int(cells[4])
    traces = contacts = 0
    with open(os.path.join(out, "contacts.jsonl")) as fh:
        for line in fh:
            traces += 1
            contacts += len(json.loads(line)["contacts"])
    spec = ct_spec(ctx, out)["sim"]
    # build_world derives agent i's key from seed * 1_000_003 + i.
    attacker_hex = generate_identity(
        Role.LIGHT, seed=spec["seed"] * 1_000_003 + spec["attacker_id"]
    ).node_id.hex()
    penalized = False
    with open(os.path.join(out, "credits.csv")) as fh:
        next(fh)
        for line in fh:
            tick, node, _, neg, _ = line.strip().split(",")
            if node == attacker_hex and int(tick) >= spec["attack_tick"] and float(neg) < 0:
                penalized = True
                break
    return {"tx_total": tx_total, "blocks_total": blocks_total, "traces": traces,
            "contacts_listed": contacts, "attacker_penalized": penalized}


# ---------------------------------------------------------------------------
# chain_verify: the verify-chain command on the ct_run chain of the same seed
# ---------------------------------------------------------------------------

def chain_prep(ctx: Ctx) -> dict:
    inputs = ct_prep(ctx)
    ct_before(ctx, inputs)
    code, _, stderr = ct_call(ctx, inputs)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"ct-run for the chain exited {code}: {stderr.strip()[:200]}")
    chain = os.path.join(inputs["out"], "chain.jsonl")
    return {"chain": chain, "digest": _sha256_files([chain]), **chain_facts(chain)}


def chain_call(ctx: Ctx, inputs: dict):
    return _run_cli(["verify-chain", inputs["chain"]])


def chain_inspect(ctx: Ctx, inputs: dict, result, deep: bool) -> Outcome:
    code, stdout, stderr = result
    problems = []
    expected = f"chain ok: {inputs['chain_blocks']} blocks"
    if code != cli.EXIT_OK or stdout.strip() != expected:
        problems.append(f"verify-chain exited {code}: {(stdout + stderr).strip()[:200]}")
    digest = hashlib.sha256(f"{code}\n{stdout}\n{stderr}".encode()).hexdigest()
    return Outcome(inputs["chain_tx"], digest, problems)


def _load_lines(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_lines(path: str, blocks: list[dict]) -> None:
    with open(path, "w") as fh:
        for block in blocks:
            fh.write(json.dumps(block, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def _reported(stderr: str) -> set[tuple[int, str]]:
    found = set()
    for line in stderr.splitlines():
        if line.startswith("block "):
            index, reason = line[len("block "):].split(" ", 2)[:2]
            found.add((int(index.rstrip(":")), reason))
    return found


def _tamper_signature(blocks: list[dict]) -> tuple[list[dict], set]:
    """Flip one signature byte in the tip and re-mine the tip.

    Re-mining keeps the tip's digest valid, so only the signature clause can
    catch the change.
    """
    tip = dict(blocks[-1])
    txs = [dict(t) for t in tip["transactions"]]
    sig = bytearray.fromhex(txs[0]["signature"])
    sig[len(sig) // 2] ^= 0x01
    txs[0]["signature"] = sig.hex()
    tip["transactions"] = txs
    history = [block_from_dict(b) for b in blocks[:-1]]
    remined = mine(history, block_from_dict(tip), DL_EASY).block
    return blocks[:-1] + [block_to_dict(remined)], {(remined.index, "signature")}


def _tamper_window(blocks: list[dict]) -> tuple[list[dict], set]:
    """Change one byte of a block that a later, non-adjacent block hashes over.

    Expected: the altered block's own digest fails, and so does the digest of
    every later block whose window reaches it, and nothing else.
    """
    covering: dict[int, list[int]] = {}
    for k, block in enumerate(blocks):
        depth = max(block["whash_window"] - 1, 0)
        for j in range(k - depth, k):
            covering.setdefault(j, []).append(k)
    # The block reached by the most windows from two or more blocks later.
    target = max(
        (j for j in covering if j >= 1 and any(k >= j + 2 for k in covering[j])),
        key=lambda j: (len(covering[j]), -j),
    )
    tampered = [dict(b) for b in blocks]
    tampered[target]["timestamp"] += 1
    return tampered, {(target, "digest")} | {(k, "digest") for k in covering[target]}


def chain_extra_checks(ctx: Ctx, inputs: dict) -> list[tuple[str, bool, str]]:
    """Both tampered copies must exit 2 and name exactly the failed checks."""
    blocks = _load_lines(inputs["chain"])
    results = []
    for name, tamper in (("tamper_signature", _tamper_signature),
                         ("tamper_window", _tamper_window)):
        tampered, expected = tamper(blocks)
        path = os.path.join(ctx.work_dir, f"{name}.jsonl")
        _write_lines(path, tampered)
        code, _, stderr = _run_cli(["verify-chain", path])
        reported = _reported(stderr)
        ok = code == cli.EXIT_VALIDATION and reported == expected
        detail = f"exit {code}, reported {sorted(reported)[:6]}, expected {sorted(expected)[:6]}"
        results.append((name, ok, detail))
        os.remove(path)
    return results


# ---------------------------------------------------------------------------
# mine_bench: run_mining_benchmark, the nonce-trial loop
# ---------------------------------------------------------------------------

def _mine_spec(ctx: Ctx) -> ExperimentSpec:
    return ExperimentSpec(
        name="perfbench-mine",
        sim=SimConfig(n_agents=2, ticks=1, n_blocks=ctx.sizes("mine")["blocks_per_cell"],
                      seed=ctx.seed),
        whash_values=MINE_WINDOWS,
        levels=("DL_e", "DL_h"),
    )


def mine_call(ctx: Ctx, inputs: dict):
    return experiments.run_mining_benchmark(_mine_spec(ctx))


def mine_inspect(ctx: Ctx, inputs: dict, result, deep: bool) -> Outcome:
    rows, summary = result
    per_cell = ctx.sizes("mine")["blocks_per_cell"]
    problems = []
    if any(r.truncated for r in rows):
        problems.append("truncated mining rows")
    for whash in MINE_WINDOWS:
        for level in ("DL_e", "DL_h"):
            cell = summary.get((whash, level))
            if cell is None or cell["blocks"] != per_cell:
                mined = cell["blocks"] if cell else 0
                problems.append(f"cell ({whash}, {level}) mined {mined} of {per_cell}")
    easy = [r.trials for r in rows if r.level == "DL_e"]
    hard = [r.trials for r in rows if r.level == "DL_h"]
    ratio = statistics.fmean(hard) / statistics.fmean(easy) if easy and hard else 0.0
    if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
        problems.append(f"DL_h/DL_e mean-trial ratio {ratio:.0f} outside {RATIO_BAND}")
    trials = sum(r.trials for r in rows)
    digest = hashlib.sha256(
        repr([(r.whash, r.level, r.block_index, r.trials) for r in rows]).encode()
    ).hexdigest()
    return Outcome(trials, digest, problems, {"trials": trials, "trial_ratio": ratio})


# ---------------------------------------------------------------------------
# loc_eval: run_localization_eval, the only workload that reaches aoa
# ---------------------------------------------------------------------------

def loc_call(ctx: Ctx, inputs: dict):
    return experiments.run_localization_eval(
        list(LOC_SNRS), trials=ctx.sizes("loc")["trials"], seed=ctx.seed
    )


def loc_inspect(ctx: Ctx, inputs: dict, rows, deep: bool) -> Outcome:
    trials = ctx.sizes("loc")["trials"]
    problems, notes = [], []
    by_snr = {r.snr_db: r for r in rows}
    if len(rows) != len(LOC_SNRS) or set(by_snr) != set(LOC_SNRS):
        problems.append("one row per SNR expected")
    else:
        err_inf = by_snr[None].mean_abs_azimuth_error_deg
        err20 = by_snr[20.0].mean_abs_azimuth_error_deg
        err10 = by_snr[10.0].mean_abs_azimuth_error_deg
        # Criterion 7: the noiseless bearing sits within a degree of the truth.
        if not err_inf <= 1.0:
            problems.append(f"noiseless azimuth error {err_inf:.3f} deg > 1 deg")
        if any(not math.isfinite(r.position_rmse_m) for r in rows):
            problems.append("a position RMSE is not finite")
        # The SNR ordering is reported, not gated: near endfire (azimuth ~0
        # or ~180 deg) the half-wavelength array aliases the two ends, so a
        # few bearings come out ~177 deg wrong, and on some seeds (24 at 150
        # trials) more of them land in the 20 dB row than in the 10 dB row.
        if not err20 <= err10:
            notes.append(f"known defect: azimuth error at 20 dB {err20:.3f} > at 10 dB "
                         f"{err10:.3f} (endfire aliasing outliers)")
    dropped = sum(r.dropped_trials for r in rows)
    digest = hashlib.sha256(
        repr([(r.snr_db, r.mean_abs_azimuth_error_deg, r.position_rmse_m, r.dropped_trials)
              for r in rows]).encode()
    ).hexdigest()
    info = {"dropped": dropped, "snr_order_violations": len(notes)}
    return Outcome(trials * len(LOC_SNRS), digest, problems, info, notes)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    call: Callable          # the timed call; returns what inspect judges
    inspect: Callable
    prep: Optional[Callable] = None         # input prep, in each set-up process
    before: Optional[Callable] = None       # untimed, before every call
    extra_checks: Optional[Callable] = None  # untimed, once per run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("outbreak", outbreak_call, outbreak_inspect),
        Workload("ct_run", ct_call, ct_inspect, prep=ct_prep, before=ct_before),
        Workload("chain_verify", chain_call, chain_inspect,
                 prep=chain_prep, extra_checks=chain_extra_checks),
        Workload("mine_bench", mine_call, mine_inspect),
        Workload("loc_eval", loc_call, loc_inspect),
    )
}
