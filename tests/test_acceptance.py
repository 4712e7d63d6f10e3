"""End-to-end acceptance gate.

Each test exercises one headline requirement at its stated tolerance and
reports a single PASS/FAIL line through the shared ``criteria_log`` fixture;
the lines are echoed again in the terminal summary. Criteria are numbered in
the order they appear here.
"""

import dataclasses
import time

import numpy as np

from proxichain import cli
from proxichain.aoa import (
    build_angle_image,
    music_spectrum,
    snapshot_covariance,
    spectrum_peak,
    synthesize_snapshot,
    unpad_angle_image,
)
from proxichain.consensus import (
    ALPHA_D,
    DL_EASY,
    DL_HARD,
    append_block,
    attack_cost_model,
    difficulty_for,
    digest_satisfies,
    mine,
    validate_block,
    verify_chain,
)
from proxichain.credit import (
    MIN_SEPARATION_M,
    CreditEvent,
    CreditPolicy,
    EventKind,
    contact_scores,
    negative_credit,
    proximity_credit,
)
from proxichain.experiments import (
    ExperimentSpec,
    attack_window_experiment,
    run_ct_experiment,
    run_localization_eval,
    run_mining_benchmark,
)
from proxichain.identity import Role, generate_identity
from proxichain.ledger import (
    Block,
    Chain,
    whash_window_for,
)
from proxichain.simulation import CreditStore, SimConfig, build_world, run_epoch, run_outbreak


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_criterion_1_difficulty_trial_ratio(criteria_log):
    spec = ExperimentSpec(
        sim=SimConfig(n_agents=2, ticks=1, n_blocks=200, seed=0),
        whash_values=(0,),
        levels=("DL_e", "DL_h"),
    )
    _, summary = run_mining_benchmark(spec)
    easy = summary[(0, "DL_e")]
    hard = summary[(0, "DL_h")]
    ratio = hard["mean_trials"] / easy["mean_trials"]

    ok = (
        easy["blocks"] >= 200
        and hard["blocks"] >= 200
        and 12.0 <= easy["mean_trials"] <= 21.0
        and 2048.0 <= ratio <= 8192.0
    )
    criteria_log(
        f"{_status(ok)} criterion 1: over {easy['blocks']}+{hard['blocks']} blocks, "
        f"easy mean {easy['mean_trials']:.2f} trials in [12, 21], "
        f"hard/easy trial ratio {ratio:.1f} in [2048, 8192]"
    )
    assert ok, (easy["mean_trials"], ratio)


def test_criterion_2_window_sensitivity(criteria_log):
    miner = generate_identity(Role.LIGHT, seed=701)
    chain = Chain()
    while len(chain) < 120:
        draw = (7 * len(chain)) % 101
        candidate = Block(
            index=len(chain),
            prev_hash=chain[-1].block_hash,
            whash_window=whash_window_for(len(chain) - 1, draw),
            nonce=0,
            transactions=(),
            miner=miner.node_id,
            timestamp=len(chain),
            block_hash=b"\x00" * 32,
        )
        append_block(chain, mine(chain, candidate, DL_EASY).block)

    rng = np.random.default_rng(2026)
    tip_index = 120
    in_window_hits = 0
    in_window_total = 0
    out_window_clean = 0
    out_window_total = 0
    relink_ok = True

    for window in (20, 40, 60, 80, 100):
        tip = mine(
            chain,
            Block(
                index=tip_index,
                prev_hash=chain[-1].block_hash,
                whash_window=window,
                nonce=0,
                transactions=(),
                miner=miner.node_id,
                timestamp=5000 + window,
                block_hash=b"\x00" * 32,
            ),
            DL_EASY,
        ).block
        full = chain + [tip]
        covered = np.arange(tip_index - window + 1, tip_index)
        outside = np.arange(1, tip_index - window + 1)

        for _ in range(50):
            idx = int(rng.choice(covered))
            mutated = list(full)
            mutated[idx] = dataclasses.replace(
                mutated[idx], timestamp=mutated[idx].timestamp + int(rng.integers(1, 1_000_000))
            )
            violations = verify_chain(mutated)
            in_window_total += 1
            if any(v.index == tip_index and v.reason == "digest" for v in violations):
                in_window_hits += 1

        for _ in range(50):
            idx = int(rng.choice(outside))
            mutated = list(full)
            mutated[idx] = dataclasses.replace(
                mutated[idx], timestamp=mutated[idx].timestamp + int(rng.integers(1, 1_000_000))
            )
            violations = verify_chain(mutated)
            out_window_total += 1
            tip_clean = not any(v.index == tip_index for v in violations)
            flagged_there = any(v.index == idx and v.reason == "digest" for v in violations)
            if tip_clean and flagged_there:
                out_window_clean += 1

        # Re-mining an out-of-window block repairs its digest but breaks the
        # link to its successor; the tip must still stay clean.
        idx = int(outside[len(outside) // 2])
        remined = list(full)
        fixed = mine(
            remined[:idx],
            dataclasses.replace(remined[idx], timestamp=remined[idx].timestamp + 1, nonce=0),
            DL_EASY,
        ).block
        remined[idx] = fixed
        violations = verify_chain(remined)
        if any(v.index == tip_index for v in violations):
            relink_ok = False
        if not any(v.index == idx + 1 and v.reason == "linkage" for v in violations):
            relink_ok = False

    ok = (
        in_window_hits == in_window_total == 250
        and out_window_clean == out_window_total == 250
        and relink_ok
    )
    criteria_log(
        f"{_status(ok)} criterion 2: in-window mutations invalidated the tip "
        f"{in_window_hits}/{in_window_total}; out-of-window mutations left the tip digest "
        f"valid {out_window_clean}/{out_window_total}; re-linked mutation fails only downstream"
    )
    assert ok, (in_window_hits, out_window_clean, relink_ok)


def test_criterion_3_attack_cost(criteria_log):
    exact = all(
        attack_cost_model(n_wh, bits)[1] / attack_cost_model(n_wh, bits)[0] == float(n_wh)
        for n_wh in (1, 14, 100)
        for bits in (4, 16)
    )
    toy = attack_window_experiment(chain_length=30, reps=50, seed=0)
    measured = toy["measured_ratio"]
    within_2x = 30.0 / 2.0 <= measured <= 30.0 * 2.0

    ok = exact and within_2x
    criteria_log(
        f"{_status(ok)} criterion 3: cost-model ratio equals n_wh exactly for "
        f"{{1, 14, 100}}; re-mining experiment measured {measured:.1f}x vs model 30x "
        f"(within [15, 60])"
    )
    assert ok, (exact, measured)


def _add_contacts(store: CreditStore, node: bytes, distances) -> None:
    """Credit one node with contacts at these measured distances, as the
    simulator's per-tick kernel does: clamp, score, add one contact at a time."""
    scores = contact_scores(np.maximum(distances, MIN_SEPARATION_M))
    for score in scores:
        store.prox[store.index_of[node]] += score


def test_criterion_4_credit_arithmetic(criteria_log):
    policy = CreditPolicy()
    golden = (
        abs(proximity_credit(1.0) + 12.0) < 1e-12
        and abs(proximity_credit(4.0) - 2.0) < 1e-12
        and abs(
            negative_credit([CreditEvent(EventKind.CONTACT_VIOLATION, tick=8)], 10, policy)
            + 5.0
        )
        < 1e-12
    )

    node = b"\x07" * 32
    store = CreditStore(policy, [node])
    _add_contacts(store, node, [0.6, 1.7, 2.0, 4.4, 9.3])
    store.punish(node, EventKind.FALSE_CLAIM, tick=3)
    store.punish(node, EventKind.NETWORK_ATTACK, tick=7)
    parts = store.prox[0] + negative_credit(store.events[node], 20, policy)
    total_ok = (
        abs(store.breakdown(node, 20)[2] - parts) < 1e-12
        and abs(store.totals(20)[0] - parts) < 1e-12
    )

    rng = np.random.default_rng(404)
    distances = np.sort(rng.uniform(0.05, 12.0, size=10_000))
    scores = np.array([proximity_credit(float(d)) for d in distances])
    monotone = bool(np.all(np.diff(scores) > 0))

    contacts = rng.uniform(0.05, 12.0, size=10_000)
    whole = CreditStore(policy, [b"x"])
    _add_contacts(whole, b"x", contacts)
    cut = int(rng.integers(1, len(contacts)))
    part = CreditStore(policy, [b"x"])
    _add_contacts(part, b"x", contacts[:cut])
    _add_contacts(part, b"x", contacts[cut:])
    additive = abs(whole.prox[0] - part.prox[0]) < 1e-9

    events_a = [CreditEvent(EventKind.FALSE_CLAIM, int(t)) for t in rng.integers(0, 50, 40)]
    events_b = [CreditEvent(EventKind.NETWORK_ATTACK, int(t)) for t in rng.integers(0, 50, 40)]
    neg_additive = (
        abs(
            negative_credit(events_a + events_b, 60, policy)
            - negative_credit(events_a, 60, policy)
            - negative_credit(events_b, 60, policy)
        )
        < 1e-12
    )

    ok = golden and total_ok and monotone and additive and neg_additive
    criteria_log(
        f"{_status(ok)} criterion 4: credit goldens (-12, +2, -5) and total identity at "
        f"1e-12; monotonicity and additivity hold over 10^4 random inputs"
    )
    assert ok, (golden, total_ok, monotone, additive, neg_additive)


def test_criterion_5_difficulty_gating(criteria_log):
    policy = CreditPolicy(omega_na=1_000_000.0)
    config = SimConfig(
        n_agents=50,
        ticks=24,
        p_inf=0.0,
        seed=11,
        policy=policy,
        attacker_id=3,
        attack_tick=12,
        tx_per_block_mean=20,
        n_blocks=5,
    )
    world = build_world(config)
    world, chain, metrics = run_epoch(world, Chain())

    attacker_node = world.identities[3].node_id
    totals = {
        t: tot for t, node, _, _, tot in metrics.credit_rows if node == attacker_node.hex()
    }
    alpha = ALPHA_D
    dropped_in_time = totals[11] >= alpha and totals[12] < alpha

    now = config.ticks
    attacker_total = world.credit.total(attacker_node, now)
    timestamp = 9000
    while True:
        candidate = Block(
            index=len(chain),
            prev_hash=chain[-1].block_hash,
            whash_window=0,
            nonce=0,
            transactions=(),
            miner=attacker_node,
            timestamp=timestamp,
            block_hash=b"\x00" * 32,
        )
        easy_block = mine(chain, candidate, DL_EASY).block
        if not digest_satisfies(easy_block.block_hash, DL_HARD):
            break
        timestamp += 1
    expected = difficulty_for(attacker_total, is_authorized=False)
    verdict = validate_block(chain, easy_block, expected)
    attacker_rejected = expected is DL_HARD and not verdict.accepted

    honest_totals = [
        world.credit.total(ident.node_id, now)
        for i, ident in enumerate(world.identities)
        if i != 3
    ]
    honest_keep_easy = all(
        difficulty_for(t, is_authorized=False) is DL_EASY for t in honest_totals
    )
    honest_block = mine(
        chain,
        dataclasses.replace(candidate, miner=world.identities[0].node_id, timestamp=9500),
        DL_EASY,
    ).block
    honest_accepted = validate_block(chain, honest_block, DL_EASY).accepted

    ok = dropped_in_time and attacker_rejected and honest_keep_easy and honest_accepted
    criteria_log(
        f"{_status(ok)} criterion 5: attack at tick 12 drove credit "
        f"{totals[11]:.0f} -> {totals[12]:.0f} (below {alpha:g}) within one tick; easy block "
        f"from the attacker rejected ({verdict.reason}); {len(honest_totals)}/"
        f"{len(honest_totals)} honest agents keep the easy level"
    )
    assert ok, (dropped_in_time, attacker_rejected, honest_keep_easy, honest_accepted)


def test_criterion_6_outbreak_dynamics(criteria_log):
    hits = 0
    nested = True
    slowest = 0.0
    finals = []
    for seed in range(10):
        config = SimConfig(n_agents=1000, ticks=200, p_inf=0.02, seed=seed)
        started = time.perf_counter()
        rows = run_outbreak(config)
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        if not all(c5 >= c2 for _, c2, c5 in rows):
            nested = False
        finals.append(rows[-1][1])
        if rows[-1][1] >= 300:
            hits += 1

    ok = nested and hits >= 7 and slowest < 120.0
    criteria_log(
        f"{_status(ok)} criterion 6: 1000-agent outbreak infected >=300 at 2 m in "
        f"{hits}/10 seeds (min final {min(finals)}); 5 m count >= 2 m count at every tick; "
        f"slowest run {slowest:.1f}s < 120s"
    )
    assert ok, (hits, nested, slowest, finals)


def test_criterion_7_bearing_estimator(criteria_log):
    rows = run_localization_eval([10.0, 20.0], trials=100, seed=0)
    err10 = rows[0].mean_abs_azimuth_error_deg
    err20 = rows[1].mean_abs_azimuth_error_deg

    rng = np.random.default_rng(777)
    worst = 0.0
    hermitian_psd = True
    for trial in range(100):
        truth = float(rng.uniform(2.0, 178.0))
        snap = synthesize_snapshot(
            None, truth, 0.0, np.random.default_rng(np.random.SeedSequence((777, trial)))
        )
        r = snapshot_covariance(snap)
        if not np.array_equal(r, r.conj().T):
            hermitian_psd = False
        if np.linalg.eigvalsh(r)[0] < -1e-9 * float(np.abs(np.linalg.eigvalsh(r)).max()):
            hermitian_psd = False
        peak = spectrum_peak(music_spectrum(snap))
        worst = max(worst, abs(peak - truth))

    ok = err20 <= err10 and worst <= 1.0 and hermitian_psd
    criteria_log(
        f"{_status(ok)} criterion 7: mean azimuth error {err20:.2f} deg at 20 dB <= "
        f"{err10:.2f} deg at 10 dB (100 trials each); noiseless peak within "
        f"{worst:.2f} deg <= 1 deg; covariance Hermitian PSD in every trial"
    )
    assert ok, (err10, err20, worst, hermitian_psd)


def test_criterion_8_angle_image(criteria_log):
    rng = np.random.default_rng(88)
    spectra = rng.uniform(0.05, 1.0, size=(4, 181))
    image = build_angle_image(list(spectra))

    shape_ok = image.padded.shape == (28, 28)
    zeros_ok = int(np.count_nonzero(image.padded == 0.0)) == 60
    pad_at_tail = bool(np.all(image.padded.reshape(-1)[724:] == 0.0))
    roundtrip = np.array_equal(unpad_angle_image(image.padded), spectra)

    ok = shape_ok and zeros_ok and pad_at_tail and roundtrip
    criteria_log(
        f"{_status(ok)} criterion 8: 4x181 spectra pack into 28x28 with exactly 60 "
        f"zero-pad entries and unpad restores the input bit for bit"
    )
    assert ok, (shape_ok, zeros_ok, pad_at_tail, roundtrip)


def test_criterion_9_determinism_and_verification(criteria_log, tmp_path):
    sim = SimConfig(
        n_agents=40, ticks=40, p_inf=0.1, seed=5, tx_per_block_mean=25, n_blocks=6
    )
    spec_a = ExperimentSpec(name="det", sim=sim, output_dir=str(tmp_path / "a"))
    spec_b = ExperimentSpec(name="det", sim=sim, output_dir=str(tmp_path / "b"))
    paths_a, _ = run_ct_experiment(spec_a)
    paths_b, _ = run_ct_experiment(spec_b)

    identical = True
    for field in ("metrics_csv", "credits_csv", "contacts_jsonl", "chain_jsonl", "iup_json"):
        with open(getattr(paths_a, field), "rb") as fh:
            blob_a = fh.read()
        with open(getattr(paths_b, field), "rb") as fh:
            blob_b = fh.read()
        if blob_a != blob_b:
            identical = False

    other = ExperimentSpec(
        name="det2",
        sim=dataclasses.replace(sim, seed=9),
        output_dir=str(tmp_path / "c"),
    )
    paths_c, _ = run_ct_experiment(other)
    verified = all(
        cli.main(["verify-chain", p]) == cli.EXIT_OK
        for p in (paths_a.chain_jsonl, paths_b.chain_jsonl, paths_c.chain_jsonl)
    )

    ok = identical and verified
    criteria_log(
        f"{_status(ok)} criterion 9: same-seed runs wrote byte-identical artifacts; "
        f"verify-chain accepted all persisted chains (3/3)"
    )
    assert ok, (identical, verified)
