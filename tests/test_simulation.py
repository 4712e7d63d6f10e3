import copy
import io
import json
import os
import struct
import time
import tracemalloc

import numpy as np
import pytest
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from proxichain import credit, identity, ledger, simulation
from proxichain.consensus import verify_chain
from proxichain.credit import MIN_SEPARATION_M, CreditPolicy, EventKind, contact_scores
from proxichain.identity import Role, generate_identity
from proxichain.ledger import (
    BlockOverflowError,
    Chain,
    ChainTail,
    MAX_BLOCK_BYTES,
    TxKind,
    block_from_dict,
    encode_block_full,
    make_transaction,
)
from proxichain.simulation import (
    CreditStore,
    EmptyMetricsError,
    SimConfig,
    VENUE_SIDE,
    _mine_pending,
    _reflect,
    _spread_tick,
    _take_sized_batch,
    beacon_grid,
    build_world,
    interaction_stats,
    run_epoch,
    run_outbreak,
    step_mobility,
    zone_of,
)

SMALL = dict(tx_per_block_mean=20, n_blocks=6)


def _contact_pairs(payload: bytes) -> list[tuple[bytes, int]]:
    """The (node id, tick) records of a trace or alarm payload, after its
    u32 count, which must match them."""
    (count,) = struct.unpack_from("<I", payload)
    pairs = list(struct.iter_unpack("<32sQ", payload[4:]))
    assert len(pairs) == count
    return pairs


def _run(config: SimConfig, trace_lines=None):
    """``run_epoch`` on a fresh world; trace lines go to ``trace_lines``."""
    world = build_world(config)
    return run_epoch(world, Chain(), ([] if trace_lines is None else trace_lines).append)


class TestVenue:
    def test_zone_partition(self):
        assert zone_of(np.array([0.0, 0.0])) == 0
        assert zone_of(np.array([0.6, 0.0])) == 1
        assert zone_of(np.array([0.0, 0.6])) == 20
        assert zone_of(np.array([9.99, 9.99])) == 399
        assert zone_of(np.array([10.0, 10.0])) == 399

    def test_beacon_grid_overhangs_walls(self):
        grid = beacon_grid()
        assert grid.shape == (16, 2)
        assert set(np.unique(grid[:, 0])) == {-1.0, 3.0, 7.0, 11.0}
        assert set(np.unique(grid[:, 1])) == {-1.0, 3.0, 7.0, 11.0}


class TestMobility:
    def test_reflection_folds_exactly(self):
        values = np.array([-0.3, 0.0, 5.0, 10.0, 10.5, 21.0])
        assert np.allclose(_reflect(values, 10.0), [0.3, 0.0, 5.0, 10.0, 9.5, 1.0])

    @staticmethod
    def _column_fold(values, upper):
        """The fold as ``np.mod`` and ``np.where`` on one coordinate column
        against its scalar wall."""
        period = 2.0 * upper
        m = np.mod(values, period)
        return np.where(m > upper, period - m, m)

    def test_flat_fold_is_bitwise_the_column_fold(self, monkeypatch):
        """On a 7.5 m venue, with steps spanning several periods, each tick's
        one fold over the flattened coordinates equals folding the x and y
        columns apart, bit for bit, zeros' signs included."""
        monkeypatch.setattr(simulation, "VENUE_SIDE", 7.5)
        monkeypatch.setattr(simulation, "STEP_STD", 40.0)
        config = SimConfig(n_agents=300, ticks=5, seed=3, **SMALL)
        world = build_world(config, with_identities=False)
        mobility = copy.deepcopy(world.streams["mobility"])
        expected = world.positions.copy()
        for _ in range(5):
            moved = expected + mobility.normal(0.0, 40.0, size=expected.shape)
            expected = np.stack(
                [self._column_fold(moved[:, 0], 7.5), self._column_fold(moved[:, 1], 7.5)], axis=1
            )
            step_mobility(world)
            assert world.positions.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

        edges = np.array([-0.0, 0.0, -15.0, -6.0, 15.0, 6.0, 7.5, 3.0, -7.5, -3.0,
                          -5e-324, 5e-324, -1e-17, np.nextafter(15.0, 0.0), 1e300, -1e300])
        folded = _reflect(edges, 7.5)
        expected = self._column_fold(edges, 7.5)
        assert folded.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_zero_step_std_keeps_positions(self, monkeypatch):
        monkeypatch.setattr(simulation, "STEP_STD", 0.0)
        config = SimConfig(n_agents=10, ticks=5, **SMALL)
        world = build_world(config, with_identities=False)
        before = world.positions.copy()
        step_mobility(world)
        assert np.array_equal(world.positions, before)

    def test_agents_stay_inside_venue(self, monkeypatch):
        monkeypatch.setattr(simulation, "STEP_STD", 3.0)
        config = SimConfig(n_agents=50, ticks=5, **SMALL)
        world = build_world(config, with_identities=False)
        for _ in range(30):
            step_mobility(world)
        assert world.positions.min() >= 0.0
        assert world.positions.max() <= VENUE_SIDE

    def test_same_seed_same_walk(self):
        config = SimConfig(n_agents=12, ticks=5, seed=9, **SMALL)
        a = build_world(config, with_identities=False)
        b = build_world(config, with_identities=False)
        for _ in range(10):
            step_mobility(a)
            step_mobility(b)
        assert np.array_equal(a.positions, b.positions)


def _dense_outbreak(config: SimConfig):
    """Reference: the all-pairs exposure rule over a full distance matrix."""
    world = build_world(config, with_identities=False)
    rows = []
    for t in range(config.ticks):
        step_mobility(world)
        diff = world.positions[:, None, :] - world.positions[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        draws = world.streams["infection"].random(world.n)
        for radius in sorted(world.infections):
            infected = world.infections[radius]
            sus = np.nonzero(~infected)[0]
            if not infected.any() or sus.size == 0:
                continue
            exposed = dist[np.ix_(sus, np.nonzero(infected)[0])].min(axis=1) <= radius
            infected[sus[exposed & (draws[sus] < config.p_inf)]] = True
        rows.append((t, int(world.infections[2.0].sum()), int(world.infections[5.0].sum())))
    return rows, world.infections


class TestBoundaries:
    """Exact-distance ties: exposure and observation are inclusive (<=),
    an immediate contact is strict (<)."""

    def test_exposure_is_inclusive_at_both_radii(self, monkeypatch):
        just_over = np.nextafter(2.0, 3.0)
        monkeypatch.setattr(simulation, "STEP_STD", 0.0)
        world = build_world(SimConfig(n_agents=5, ticks=1, p_inf=1.0, **SMALL), False)
        # Agent 0 is the seed case; 1 is 2 m away, 2 is 5 m away, 3 is one
        # ulp past 2 m, and 4 is far from everyone.
        world.positions[:] = [[0.0, 0.0], [2.0, 0.0], [0.0, 5.0], [0.0, just_over], [9.0, 9.0]]
        _spread_tick(world)
        assert world.infections[2.0].tolist() == [True, True, False, False, False]
        assert world.infections[5.0].tolist() == [True, True, True, True, False]

    def test_two_meters_is_observed_but_not_immediate(self, monkeypatch):
        monkeypatch.setattr(simulation, "STEP_STD", 0.0)
        config = SimConfig(n_agents=4, ticks=1, p_inf=0.0, tx_per_block_mean=2, n_blocks=1)
        world = build_world(config)
        # 0-1 are exactly 2 m apart; 0-2 and 2-3 exactly 10 m; all else farther.
        world.positions[:] = [[0.0, 0.0], [2.0, 0.0], [0.0, 10.0], [10.0, 10.0]]
        world, _, metrics = run_epoch(world, Chain())
        assert (world.last_contact_tick == 0xFFFF).all()
        assert metrics.observed_pairs == 3
        assert world.credit.prox[1] == 2.0 / credit.LAMBDA_PLUS
        assert world.credit.prox[0] == (2.0 + 10.0) / credit.LAMBDA_PLUS

    def test_coincident_agents_score_the_clamp_floor(self):
        world = build_world(SimConfig(n_agents=2, ticks=1, p_inf=0.0, **SMALL))
        world.positions[:] = [[3.0, 3.0], [3.0, 3.0]]
        simulation._score_contacts(world, 0)
        floor = -credit.LAMBDA_MINUS / MIN_SEPARATION_M
        assert floor == pytest.approx(-240.0)
        assert world.credit.prox.tolist() == [floor, floor]


class TestSpread:
    def test_zero_probability_never_spreads(self):
        config = SimConfig(n_agents=30, ticks=20, p_inf=0.0, seed=4, **SMALL)
        rows = run_outbreak(config)
        assert all(c2 == 1 and c5 == 1 for _, c2, c5 in rows)

    def test_infection_is_monotone_and_nested(self):
        config = SimConfig(n_agents=60, ticks=40, p_inf=0.05, seed=5, **SMALL)
        rows = run_outbreak(config)
        assert len(rows) == config.ticks
        prev2 = prev5 = 0
        for _, c2, c5 in rows:
            assert c5 >= c2
            assert c2 >= prev2 and c5 >= prev5
            prev2, prev5 = c2, c5

    def test_no_seed_case_never_spreads(self, monkeypatch):
        monkeypatch.setattr(simulation, "INITIAL_INFECTED", 0)
        config = SimConfig(n_agents=30, ticks=20, p_inf=1.0, **SMALL)
        assert all(c2 == 0 and c5 == 0 for _, c2, c5 in run_outbreak(config))

    @pytest.mark.parametrize("radius", [2.0, 3.0])
    @pytest.mark.parametrize("p_inf", [0.02, 0.3, 1.0])
    def test_kernel_matches_all_pairs_reference(self, p_inf, radius):
        config = SimConfig(
            n_agents=200, ticks=60, p_inf=p_inf, infection_radius=radius, seed=8, **SMALL
        )
        rows, infections = _dense_outbreak(config)
        assert run_outbreak(config) == rows
        world = build_world(config, with_identities=False)
        for _ in range(config.ticks):
            step_mobility(world)
            _spread_tick(world)
        for r, mask in infections.items():
            assert np.array_equal(world.infections[r], mask)

    def test_outbreak_rows_are_the_epoch_counts(self):
        """Both simulators move agents through ``step_mobility`` alone, so
        their infection curves agree."""
        for seed in range(1, 5):
            config = SimConfig(n_agents=60, ticks=50, p_inf=0.1, seed=seed, **SMALL)
            _, _, metrics = _run(config)
            counts = [
                (row["tick"], row["infected_count_2m"], row["infected_count_5m"])
                for row in metrics.rows
            ]
            assert run_outbreak(config) == counts, f"seed {seed}"

    def test_outbreak_allocates_no_pairwise_matrix(self):
        # A dense 10k x 10k float64 matrix alone would be 800 MB.
        config = SimConfig(n_agents=10_000, ticks=50, seed=1, **SMALL)
        tracemalloc.start()
        try:
            rows = run_outbreak(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 50
        assert peak < 100 * 2**20


def _triangle_pairs(n):
    """Pairs i < j in row-major order, all added to their first ends and then
    to their second ends: the order of the kernel that met each pair twice."""
    ii, jj = np.triu_indices(n, 1)
    return ii, jj, [slice(None)]


def _half_log_cells(n):
    """Offset o and pair (i, (i + o) mod n) of each cell [o - 1, i] of the
    half-size contact log in C order, and whether the pair is the cell's own:
    for even n, cells i >= n / 2 of offset n / 2 repeat pairs."""
    o, ii = np.divmod(np.arange(n // 2 * n), n)
    o += 1
    jj = (ii + o) % n
    return o, ii, jj, (2 * o < n) | (ii < jj)


def _offset_pairs(n):
    """Pairs (i, (i + o) mod n) by offset o = 1 … n // 2 and then by i, each
    offset added to its first ends and then to its second ends: the order of
    ``_score_contacts``."""
    o, ii, jj, own = _half_log_cells(n)
    o, ii, jj = o[own], ii[own], jj[own]
    starts = np.searchsorted(o, np.arange(1, n // 2 + 2))
    return ii, jj, [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]


def _q_of(dists):
    """The q of each ``float32`` distance, as the contact log stores it:
    ``rint(float64(d) * 1e4)``."""
    return np.rint(dists.astype(np.float64) * 1e4).astype(np.uint16)


def _absolute_ticks(world, log_ticks):
    """The ticks that contact-log tick cells stand for, -1 for never."""
    return np.where(log_ticks == 0xFFFF, -1, log_ticks.astype(np.int64) + world.contact_epoch)


def _pair_list_kernel(world, t, pairs, old_log):
    """The credit kernel over an explicit pair list: one distance per pair in
    list order, scores summed with ``np.add.at`` group by group, contacts
    written both ways into an n×n log, and the observed pairs counted.

    Each contact also goes the old way, as an ``int32`` tick and a
    ``float32`` distance, into ``old_log``'s two n×n arrays."""
    prox = world.credit.prox
    ii, jj, groups = pairs(world.n)
    x, y = world.positions[:, 0], world.positions[:, 1]
    d = x[ii] - x[jj]
    d *= d
    dy = y[ii] - y[jj]
    dy *= dy
    d += dy
    np.sqrt(d, out=d)
    observed = d <= simulation.OBSERVE_RADIUS
    scores = contact_scores(np.maximum(d, MIN_SEPARATION_M))
    for group in groups:
        seen = observed[group]
        for ends in (ii[group][seen], jj[group][seen]):
            np.add.at(prox, ends, scores[group][seen])
    imm = observed & (d < credit.IMMEDIATE_THRESHOLD)
    old_tick, old_dist = old_log
    for a, b in ((ii[imm], jj[imm]), (jj[imm], ii[imm])):
        old_tick[a, b] = t
        old_dist[a, b] = d[imm]
        world.last_contact_tick[a, b] = t - world.contact_epoch
        world.last_contact_dist[a, b] = _q_of(old_dist[a, b])
    return int(np.count_nonzero(observed))


def _reference_run(config, monkeypatch, pairs, trace_lines):
    """``run_epoch`` with the pair-list kernel and an n×n contact log; returns
    the world, the metrics and the log written the old way."""
    n = config.n_agents
    world = build_world(config)
    world.last_contact_tick = np.full((n, n), 0xFFFF, dtype=np.uint16)
    world.last_contact_dist = np.zeros((n, n), dtype=np.uint16)
    old_log = (np.full((n, n), -1, dtype=np.int32), np.zeros((n, n), dtype=np.float32))
    with monkeypatch.context() as patch:
        patch.setattr(
            simulation, "_score_contacts",
            lambda w, t: _pair_list_kernel(w, t, pairs, old_log),
        )
        patch.setattr(simulation, "_log_cells", lambda n, i: (np.full(n, i), np.arange(n)))
        world, _, metrics = run_epoch(world, Chain(), trace_lines.append)
    return world, metrics, old_log


def _dense_log(world):
    """The half-size contact log expanded to n×n, cell [i, j] for pair (i, j):
    the absolute ticks (-1 for never) and the distances' q."""
    n = world.n
    _, i, j, own = _half_log_cells(n)
    half_tick = world.last_contact_tick.ravel()
    half_q = world.last_contact_dist.ravel()
    assert (half_tick[~own] == 0xFFFF).all()  # repeated pairs are never written
    tick = np.full((n, n), -1, dtype=np.int64)
    q = np.zeros((n, n), dtype=np.uint16)
    for a, b in ((i[own], j[own]), (j[own], i[own])):
        tick[a, b] = _absolute_ticks(world, half_tick[own])
        q[a, b] = half_q[own]
    return tick, q


def _assert_same_contacts(world, metrics, lines, old_log, ref_metrics, ref_lines):
    tick, q = _dense_log(world)
    old_tick, old_dist = old_log
    assert np.array_equal(tick, old_tick)
    assert np.array_equal(q, _q_of(old_dist))
    assert metrics.observed_pairs == ref_metrics.observed_pairs
    assert lines == ref_lines
    assert metrics.rows == ref_metrics.rows


def _log_the_old_way(monkeypatch, n):
    """Patch ``_score_contacts`` so that beside each tick's kernel a
    reference ``(n // 2, n)`` log is written the old way, as an ``int32``
    tick (-1 for never) and a ``float32`` distance: two masked copies over
    every offset row, and for even n only cells i < n / 2 of offset n / 2.
    Returns the two arrays."""
    ref_tick = np.full((n // 2, n), -1, dtype=np.int32)
    ref_dist = np.zeros((n // 2, n), dtype=np.float32)
    score = simulation._score_contacts

    def scored_and_logged(w, t):
        pairs = score(w, t)
        px, py = simulation._partner_coordinates(w)
        d = simulation._offset_distances(px, py, 1, n // 2 + 1)
        immediate = (d <= simulation.OBSERVE_RADIUS) & (d < credit.IMMEDIATE_THRESHOLD)
        if n % 2 == 0:
            immediate[-1, n // 2 :] = False
        np.copyto(ref_tick, t, where=immediate)
        np.copyto(ref_dist, d, where=immediate)
        return pairs

    monkeypatch.setattr(simulation, "_score_contacts", scored_and_logged)
    return ref_tick, ref_dist


def _kernel_config(n):
    # 33 and 257 leave a last block of offsets shorter than the others, and
    # 4, 64 have an offset n / 2.
    return SimConfig(n_agents=n, ticks=4, seed=n, p_inf=0.2, **SMALL)


def _exact_id(n):
    """Id of a case that checks the kernel bit for bit."""
    return f"{n}-exact"


class TestCreditKernel:
    @pytest.mark.parametrize("n", [2, 3, 4, 33, 64, 257], ids=_exact_id)
    def test_matches_pair_list_reference(self, n, monkeypatch):
        # Listed in the kernel's order, the pair list adds every agent's
        # scores in the same order: equal bit for bit.
        config = _kernel_config(n)
        lines, ref_lines = [], []
        world, _, metrics = _run(config, lines)
        _, ref_metrics, old_log = _reference_run(config, monkeypatch, _offset_pairs, ref_lines)
        _assert_same_contacts(world, metrics, lines, old_log, ref_metrics, ref_lines)
        assert np.array_equal(metrics.prox_final, ref_metrics.prox_final)
        if n >= 33:
            assert (world.last_contact_tick != 0xFFFF).any()

    @pytest.mark.parametrize("n", [2, 3, 4, 33, 64, 257])
    def test_matches_upper_triangle_reference(self, n, monkeypatch):
        # Summed in row-major pair order, each agent's credit differs only by
        # rounding: 3.3e-15 of the largest |prox| was the most seen.
        config = _kernel_config(n)
        lines, ref_lines = [], []
        world, _, metrics = _run(config, lines)
        _, ref_metrics, old_log = _reference_run(config, monkeypatch, _triangle_pairs, ref_lines)
        _assert_same_contacts(world, metrics, lines, old_log, ref_metrics, ref_lines)
        scale = np.abs(ref_metrics.prox_final).max()
        assert np.abs(metrics.prox_final - ref_metrics.prox_final).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [3, 4, 130, 257], ids=_exact_id)
    def test_log_is_the_masked_copy(self, n, monkeypatch):
        # At 130 and 257 the offsets span several blocks, the last one short.
        # The agents start in a 3 m square, so that even three of them come
        # within 2 m.
        world = build_world(_kernel_config(n))
        world.positions *= 0.3
        ref_tick, ref_dist = _log_the_old_way(monkeypatch, n)
        world, _, _ = run_epoch(world, Chain())
        assert (ref_tick >= 0).any()
        ticks = _absolute_ticks(world, world.last_contact_tick)
        assert ticks.tobytes() == ref_tick.astype(np.int64).tobytes()
        assert world.last_contact_dist.tobytes() == _q_of(ref_dist).tobytes()

    def test_log_cells_hold_every_logged_value(self):
        # Every logged distance is below the threshold, and so its q below
        # 6.5535 m in units of 1e-4 m; every stored tick is at most
        # 2 * _EPOCH_TICKS - 2 past the epoch, and a rebase drops only cells
        # behind the retention horizon while the retention is shorter than
        # the epoch's shift.
        assert credit.IMMEDIATE_THRESHOLD * 1e4 < 0xFFFF
        assert simulation.RETENTION_TICKS < simulation._EPOCH_TICKS
        assert 2 * simulation._EPOCH_TICKS - 2 < simulation._NEVER == 0xFFFF

    def test_rebase_drops_the_cells_before_the_new_epoch(self, monkeypatch):
        monkeypatch.setattr(simulation, "_EPOCH_TICKS", 8)
        world = build_world(SimConfig(n_agents=70, ticks=1, **SMALL))
        stored = [0, 7, 8, 14, 0xFFFF]
        world.last_contact_tick[-1, : len(stored)] = stored
        world.last_contact_tick[0, -len(stored) :] = stored
        world.contact_epoch = 16
        simulation._rebase_contact_log(world)
        shifted = [0xFFFF, 0xFFFF, 0, 6, 0xFFFF]
        assert world.last_contact_tick[-1, : len(stored)].tolist() == shifted
        assert world.last_contact_tick[0, -len(stored) :].tolist() == shifted
        assert world.contact_epoch == 24
        assert np.count_nonzero(world.last_contact_tick != 0xFFFF) == 4

    def test_rebases_keep_every_output(self, monkeypatch):
        # A 5-tick retention and an 8-tick epoch shift rebase the log at ticks
        # 15, 23, 31 and 39; the run writes what the same run writes with the
        # default epoch, which does not move in 40 ticks.
        monkeypatch.setattr(simulation, "RETENTION_TICKS", 5)
        config = SimConfig(n_agents=40, ticks=40, seed=4, p_inf=0.1, **SMALL)
        ref_lines, lines = [], []
        ref_world, ref_chain, ref_metrics = _run(config, ref_lines)
        monkeypatch.setattr(simulation, "_EPOCH_TICKS", 8)
        world, chain, metrics = _run(config, lines)
        assert (ref_world.contact_epoch, world.contact_epoch) == (0, 32)

        def alerts(chain):
            kinds = (TxKind.TT, TxKind.AT)
            txs = (tx for b in chain for tx in b.transactions)
            return [(tx.kind, tx.payload) for tx in txs if tx.kind in kinds]

        assert lines == ref_lines
        assert alerts(chain) == alerts(ref_chain)
        assert metrics.rows == ref_metrics.rows
        # Some report after a rebase lists a contact logged before it.
        reports = [json.loads(line) for line in lines]
        assert any(
            r["tick"] >= 15 and any(c["tick"] < 15 for c in r["contacts"]) for r in reports
        )

    def test_epoch_allocates_no_pair_sized_buffers(self):
        # At 2000 agents one float64 per unordered pair is 16 MB (15.3 MiB);
        # the pair-list kernel held about ten such buffers each tick. The
        # world, its contact log included, is built before tracing starts,
        # and the run peaked at 3.9 MiB: a single such buffer would pass the bound.
        world = build_world(SimConfig(n_agents=2000, ticks=2, seed=1, p_inf=0.0, **SMALL))
        tracemalloc.start()
        try:
            run_epoch(world, Chain())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestWorldBuild:
    def test_config_guards(self):
        with pytest.raises(ValueError):
            SimConfig(n_agents=1)
        with pytest.raises(ValueError):
            SimConfig(infection_radius=0.0)
        # A scripted event needs both its agent and its tick.
        for pair in (("attacker_id", "attack_tick"), ("false_claimer_id", "false_claim_tick")):
            for half in pair:
                with pytest.raises(ValueError, match=" and ".join(pair)):
                    SimConfig(n_agents=10, **{half: 3})

    def test_largest_seed_fits_the_key_seeds(self):
        # Agent i's key seed is seed * 1_000_003 + i, packed into 8 signed bytes.
        largest = (2**63 - 1 - 1) // 1_000_003
        world = build_world(SimConfig(n_agents=2, ticks=1, seed=largest, **SMALL))
        assert len({ident.node_id for ident in world.identities}) == 2
        with pytest.raises(ValueError, match="seed"):
            SimConfig(n_agents=2, seed=largest + 1)

    def test_infection_processes_cover_configured_radius(self):
        world = build_world(SimConfig(n_agents=5, ticks=1, infection_radius=3.0, **SMALL), False)
        assert set(world.infections) == {2.0, 3.0, 5.0}
        default = build_world(SimConfig(n_agents=5, ticks=1, **SMALL), False)
        assert set(default.infections) == {2.0, 5.0}

    def test_identity_material(self, monkeypatch):
        monkeypatch.setattr(simulation, "N_AUTHORIZED", 2)
        config = SimConfig(n_agents=6, ticks=1, **SMALL)
        world = build_world(config)
        assert len(world.identities) == 6
        assert len(world.authorized) == 2
        assert world.manager is not None
        ids = {i.node_id for i in world.identities}
        assert len(ids) == 6


class TestEpoch:
    def test_trace_evidence_is_consistent(self):
        config = SimConfig(
            n_agents=30, ticks=60, p_inf=0.3, seed=3, tx_per_block_mean=25, n_blocks=4
        )
        lines = []
        world, chain, _ = _run(config, lines)

        tt = [tx for b in chain for tx in b.transactions if tx.kind is TxKind.TT]
        assert tt, "outbreak at p_inf=0.3 should produce trace reports"

        iup_ids = {n for n, _ in world.iup.entries}
        assert {tx.sender for tx in tt} == iup_ids

        node_index = {ident.node_id: k for k, ident in enumerate(world.identities)}
        for tx in tt:
            assert world.infected()[node_index[tx.sender]]
            for peer, tick in _contact_pairs(tx.payload):
                assert peer in node_index
                assert 0 <= tick <= tx.timestamp

        assert len(lines) == len(tt)
        for line in lines:
            for entry in json.loads(line)["contacts"]:
                assert entry["distance"] < credit.IMMEDIATE_THRESHOLD

    def test_alarms_notify_contacts(self):
        config = SimConfig(
            n_agents=30, ticks=60, p_inf=0.3, seed=3, tx_per_block_mean=25, n_blocks=4
        )
        world, chain, _ = _run(config)
        alarms = [tx for b in chain for tx in b.transactions if tx.kind is TxKind.AT]
        node_index = {ident.node_id: k for k, ident in enumerate(world.identities)}
        notified_by_alarm = set()
        for tx in alarms:
            assert tx.sender == world.manager.node_id
            for peer, _ in _contact_pairs(tx.payload):
                notified_by_alarm.add(node_index[peer])
        for i in notified_by_alarm:
            assert world.infected()[i] or world.notified[i]

    def test_false_claim_is_punished_not_traced(self):
        config = SimConfig(
            n_agents=12,
            ticks=10,
            p_inf=0.0,
            false_claimer_id=7,
            false_claim_tick=2,
            seed=6,
            **SMALL,
        )
        world, chain, _ = _run(config)
        claimer = world.identities[7].node_id
        assert [e.kind for e in world.credit.events[claimer]] == [EventKind.FALSE_CLAIM]
        assert not any(
            tx.kind is TxKind.TT and tx.sender == claimer
            for b in chain
            for tx in b.transactions
        )
        assert all(node != claimer for node, _ in world.iup.entries)

    def test_attack_penalty_shows_in_tracked_credit(self):
        config = SimConfig(
            n_agents=40,
            ticks=12,
            p_inf=0.0,
            attacker_id=2,
            attack_tick=6,
            seed=8,
            **SMALL,
        )
        world, _, metrics = _run(config)
        attacker = world.identities[2].node_id.hex()
        totals = {t: tot for t, node, _, _, tot in metrics.credit_rows if node == attacker}
        assert totals[6] < totals[5]
        _, neg, _ = world.credit.breakdown(world.identities[2].node_id, now=13)
        assert neg < 0

    def test_quiet_world_emits_only_plain_traffic(self, monkeypatch):
        monkeypatch.setattr(simulation, "INITIAL_INFECTED", 0)
        config = SimConfig(n_agents=10, ticks=8, seed=1, **SMALL)
        _, chain, _ = _run(config)
        kinds = {tx.kind for b in chain for tx in b.transactions}
        assert TxKind.TT not in kinds
        assert TxKind.AT not in kinds
        assert kinds <= {TxKind.ST, TxKind.QT, TxKind.REGISTRY}

    def test_chain_carries_registry_announcement(self, monkeypatch):
        monkeypatch.setattr(simulation, "INITIAL_INFECTED", 0)
        config = SimConfig(n_agents=10, ticks=6, seed=1, **SMALL)
        _, chain, _ = _run(config)
        registry_tx = [
            tx for b in chain for tx in b.transactions if tx.kind is TxKind.REGISTRY
        ]
        assert len(registry_tx) == 1

    @staticmethod
    def _tail_run(tail: ChainTail) -> None:
        """``run_epoch`` on ``tail``, as ct-run runs, past the window."""
        config = SimConfig(
            n_agents=40, ticks=12, p_inf=0.3, seed=4, tx_per_block_mean=3, n_blocks=150
        )
        _, _, metrics = run_epoch(build_world(config), tail)
        assert metrics.blocks_total > ledger.WINDOW_MAX

    def _counted_tail_run(self, monkeypatch, tmp_path):
        """:meth:`_tail_run`, recording in a file, from whichever process
        does it, the index of each block whose window is hashed, each public
        key parsed and each block read back from a line; returns the records
        by kind as ``(pid, value)`` pairs, with the run's tail and the lines
        it wrote to its file."""
        log, path = tmp_path / "counted.jsonl", tmp_path / "chain.jsonl"
        # Made before the patches: the genesis block hashes its own window.
        chain_fh = open(path, "w")
        tail = ChainTail(chain_fh)

        def recorded(kind, func, value):
            def wrapper(*args):
                with open(log, "a") as fh:
                    fh.write(json.dumps([kind, os.getpid(), value(*args)]) + "\n")
                return func(*args)

            return wrapper

        monkeypatch.setattr(ledger, "whash_window_parts", recorded(
            "window", ledger.whash_window_parts, lambda blocks, block: block.index))
        monkeypatch.setattr(identity, "_public_key", recorded(
            "key", identity._public_key, lambda key: key.hex()))
        monkeypatch.setattr(ledger, "block_from_dict", recorded(
            "rebuilt", ledger.block_from_dict, lambda d: d.get("index")))
        with chain_fh:
            self._tail_run(tail)
        lines = path.read_text().splitlines(keepends=True)
        counted = {"window": [], "key": [], "rebuilt": []}
        for kind, pid, value in map(json.loads, log.read_text().splitlines()):
            counted[kind].append((pid, value))
        monkeypatch.undo()
        chain = Chain([block_from_dict(json.loads(line)) for line in lines])
        assert verify_chain(chain) == []
        return counted, tail, lines

    def test_tail_hashes_each_window_and_parses_each_key_once(self, monkeypatch, tmp_path):
        """On one CPU, where blocks are added in process, mining a block and
        validating it hash its window once between them. The tail's key
        store is seeded with every identity's key, and every sender is one,
        so no key is parsed."""
        monkeypatch.setattr(identity, "_CORES", 1)
        counted, tail, _ = self._counted_tail_run(monkeypatch, tmp_path)
        assert counted["window"] == [(os.getpid(), k) for k in range(1, len(tail))]
        assert counted["key"] == counted["rebuilt"] == []

    def test_tail_validated_off_process_parses_no_key_here(self, monkeypatch, tmp_path, forked):
        """On two CPUs the block process hashes each window once, to mine
        and validate it, and reads no block back from its line; no key is
        parsed, and this process hashes no window at all."""
        monkeypatch.setattr(identity, "_CORES", 2)
        counted, tail, _ = self._counted_tail_run(monkeypatch, tmp_path)
        assert len(forked) == 1
        assert counted["window"] == [(forked[0], k) for k in range(1, len(tail))]
        assert counted["key"] == counted["rebuilt"] == []

    def test_tail_writes_the_same_lines_on_any_cpu_count(self, monkeypatch, forked, tmp_path):
        """A tail writes every line of the run to its file on two CPUs as on
        one, in block order, and its height is the chain's."""
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(identity, "_CORES", cores)
            path = tmp_path / f"{cores}.jsonl"
            with open(path, "w") as fh:
                tail = ChainTail(fh)
                self._tail_run(tail)
            runs.append((len(tail), path.read_text().splitlines(keepends=True)))
        assert runs[0] == runs[1]
        height, lines = runs[0]
        assert [json.loads(line)["index"] for line in lines] == list(range(height))
        assert len(forked) == 1

    def test_seeded_keys_are_the_identities_keys(self, monkeypatch):
        """Each key the run seeds its tail's store with is stored under its
        own compressed encoding, and every identity's key is there. On one
        CPU this process adds the blocks, and seeds the store."""
        monkeypatch.setattr(identity, "_CORES", 1)
        world = build_world(SimConfig(n_agents=12, ticks=2, seed=3, **SMALL))
        tail = ChainTail(io.StringIO())
        run_epoch(world, tail)
        identities = (*world.identities, world.manager, *world.authorized)
        assert {ident.public_key for ident in identities} <= tail.parsed_keys.keys()
        for key, parsed in tail.parsed_keys.items():
            assert parsed.public_bytes(Encoding.X962, PublicFormat.CompressedPoint) == key

    def test_same_seed_is_bit_deterministic_in_memory(self):
        config = SimConfig(n_agents=25, ticks=40, p_inf=0.1, seed=12, **SMALL)
        world_a, chain_a, metrics_a = _run(config)
        world_b, chain_b, metrics_b = _run(config)
        assert [b.block_hash for b in chain_a] == [b.block_hash for b in chain_b]
        assert metrics_a.rows == metrics_b.rows
        assert metrics_a.credit_rows == metrics_b.credit_rows
        assert np.array_equal(world_a.positions, world_b.positions)


class TestTraceLine:
    @pytest.mark.parametrize(
        "distances",
        [
            [0.0],
            [1e-05],
            [0.03125, 1.03125],  # exact ties at the fourth place: half to even
            [1.9999, float(np.float32(1.9999)), float(np.float32(0.00015))],
            [],
        ],
    )
    def test_template_is_the_json_record(self, distances):
        # The kernel measures float32 distances, and the writer gets the q
        # that the log holds of them.
        node = "ab" * 32
        node_hex = [f"{k:064x}" for k in range(len(distances))] + [node]
        dists = np.array(distances, dtype=np.float32)
        peers = np.arange(len(distances))
        record = {
            "tick": 17,
            "node_id": node,
            "contacts": [
                {"peer": node_hex[k], "distance": round(float(dists[k]), 4), "tick": 3 * k}
                for k in peers.tolist()
            ],
        }
        q = simulation._distance_units(dists)
        line = simulation._TraceText(node_hex).line(17, len(distances), peers, q, 3 * peers)
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _rounded_texts(dists: np.ndarray) -> list[str]:
    return [repr(round(d, 4)) for d in dists.tolist()]


class TestDistanceText:
    def test_every_float32_near_a_tie(self):
        # The float32 values within 4 ulps of each tie (k + 0.5) * 1e-4.
        ties = ((np.arange(20_000) + 0.5) * 1e-4).astype(np.float32).view(np.int32)
        near = (ties[:, None] + np.arange(-4, 5)).ravel().view(np.float32)
        texts = simulation._distance_texts(simulation._distance_units(near))
        assert texts == _rounded_texts(near)

    def test_seeded_sample(self):
        dists = np.random.default_rng(28).uniform(0.0, 2.0, 200_000).astype(np.float32)
        texts = simulation._distance_texts(simulation._distance_units(dists))
        assert texts == _rounded_texts(dists)

    def test_long_threshold_grows_the_table_and_writes_the_same_lines(self, monkeypatch):
        # Distances up to 6.5 m pass the 20,001 strings a 2 m run needs.
        monkeypatch.setattr(credit, "IMMEDIATE_THRESHOLD", 6.5)
        config = SimConfig(n_agents=40, ticks=8, seed=4, p_inf=0.2, **SMALL)
        monkeypatch.setattr(simulation, "_DISTANCE_TEXT", [])
        lines, ref_lines = [], []
        _run(config, lines)

        # The reference writes each distance from a float32 log kept beside
        # the run's.
        _, ref_dist = _log_the_old_way(monkeypatch, config.n_agents)

        def record_line(text, tick, i, peers, q, ticks):
            rows, cols = simulation._log_cells(config.n_agents, i)
            dists = ref_dist[rows[peers], cols[peers]]
            record = {
                "tick": tick,
                "node_id": text.node_hex[i],
                "contacts": [
                    {"peer": text.node_hex[j], "distance": round(d, 4), "tick": at}
                    for j, d, at in zip(peers.tolist(), dists.tolist(), ticks.tolist())
                ],
            }
            return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

        monkeypatch.setattr(simulation._TraceText, "line", record_line)
        _run(config, ref_lines)
        assert lines == ref_lines
        assert 20_001 < len(simulation._DISTANCE_TEXT) <= 65_001
        longest = max(c["distance"] for line in lines for c in json.loads(line)["contacts"])
        assert len(simulation._DISTANCE_TEXT) == round(longest * 1e4) + 1


def _credit_contacts(store: CreditStore, node: bytes, distances) -> None:
    """Credit one node with contacts at these measured distances, as
    ``_score_contacts`` does: clamp, score, add one contact at a time."""
    scores = contact_scores(np.maximum(distances, MIN_SEPARATION_M))
    for score in scores:
        store.prox[store.index_of[node]] += score


class TestCreditStore:
    def test_composite_total_matches_hand_sum(self):
        node = b"\x01" * 32
        store = CreditStore(CreditPolicy(), [node])
        _credit_contacts(store, node, [0.5, 1.5, 1.9, 2.0, 5.0, 8.0])
        store.punish(node, EventKind.FALSE_CLAIM, tick=90)
        store.punish(node, EventKind.CONTACT_VIOLATION, tick=96)
        store.punish(node, EventKind.NETWORK_ATTACK, tick=99)

        expected_prox = (-12.0 / 0.5) + (-12.0 / 1.5) + (-12.0 / 1.9) + 1.0 + 2.5 + 4.0
        expected_neg = -50.0 / 10.0 - 10.0 / 4.0 - 200.0 / 1.0
        assert store.total(node, now=100) == pytest.approx(
            expected_prox + expected_neg, abs=1e-12
        )

    def test_fresh_attack_outweighs_moderate_gains(self):
        store = CreditStore(CreditPolicy(), [b"x"])
        _credit_contacts(store, b"x", [5.0] * 40)
        store.punish(b"x", EventKind.NETWORK_ATTACK, tick=99)
        assert store.total(b"x", now=100) < 0

    def test_accumulation_is_permutation_invariant(self):
        rng = np.random.default_rng(9)
        distances = rng.uniform(MIN_SEPARATION_M, 12.0, size=2_000)
        store = CreditStore(CreditPolicy(), [b"a", b"b"])
        _credit_contacts(store, b"a", distances)
        _credit_contacts(store, b"b", rng.permutation(distances))
        assert store.prox[0] == pytest.approx(store.prox[1], abs=1e-9)

    def test_accumulation_is_additive_over_batches(self):
        rng = np.random.default_rng(10)
        distances = rng.uniform(MIN_SEPARATION_M, 12.0, size=2_000)
        store = CreditStore(CreditPolicy(), [b"whole", b"halves"])
        _credit_contacts(store, b"whole", distances)
        _credit_contacts(store, b"halves", distances[:1000])
        _credit_contacts(store, b"halves", distances[1000:])
        assert store.prox[0] == pytest.approx(store.prox[1], abs=1e-9)

    def test_breakdown_sums_to_total(self):
        store = CreditStore(CreditPolicy(), [b"a"])
        store.prox[0] += 12.5
        store.punish(b"a", EventKind.CONTACT_VIOLATION, tick=5)
        prox, neg, total = store.breakdown(b"a", now=10)
        assert prox == 12.5
        assert neg == pytest.approx(-2.0)
        assert total == pytest.approx(store.total(b"a", now=10))

    def test_unknown_node_starts_at_zero(self):
        store = CreditStore(CreditPolicy(), [b"a"])
        assert store.total(b"new", now=1) == 0.0

    def test_punishments_accumulate(self):
        store = CreditStore(CreditPolicy(), [b"a"])
        store.punish(b"a", EventKind.FALSE_CLAIM, tick=0)
        store.punish(b"a", EventKind.FALSE_CLAIM, tick=1)
        assert store.total(b"a", now=2) == pytest.approx(-25.0 - 50.0)

    def test_authorized_and_manager_have_no_proximity_credit(self):
        config = SimConfig(n_agents=20, ticks=5, p_inf=0.0, seed=3, **SMALL)
        world, _, metrics = _run(config)
        assert np.any(metrics.prox_final != 0.0)
        for ident in world.authorized + [world.manager]:
            assert world.credit.breakdown(ident.node_id, now=config.ticks) == (0.0, 0.0, 0.0)

    def test_totals_agree_with_total_for_every_agent(self):
        config = SimConfig(
            n_agents=20, ticks=8, p_inf=0.0, seed=5, attacker_id=2, attack_tick=3,
            false_claimer_id=4, false_claim_tick=5, **SMALL,
        )
        world, _, _ = _run(config)
        for now in (config.ticks, config.ticks + 7):
            totals = world.credit.totals(now)
            assert totals.tolist() == [
                world.credit.total(ident.node_id, now) for ident in world.identities
            ]
            assert totals[2] < world.credit.prox[2]
            assert totals[4] < world.credit.prox[4]


class TestBlockPacking:
    def test_heavy_batch_splits_by_serialized_size(self):
        # Five 300 KB payloads cannot share one 1 MiB block; the miner must
        # spill them across blocks instead of producing an invalid one.
        world = build_world(SimConfig(n_agents=3, ticks=2, seed=4, **SMALL))
        sender = generate_identity(Role.LIGHT, seed=9)
        world.pending.extend(
            make_transaction(sender, TxKind.ST, b"\x07" * 300_000, t) for t in range(5)
        )
        chain = Chain()
        mined = _mine_pending(world, chain, [sender], now=1, flush=True)
        assert mined == 2
        assert [len(b.transactions) for b in chain[1:]] == [3, 2]
        assert not world.pending
        for block in chain:
            assert len(encode_block_full(block)) <= MAX_BLOCK_BYTES
        assert verify_chain(chain) == []

    def test_light_batches_still_cut_by_count(self):
        world = build_world(SimConfig(n_agents=3, ticks=2, seed=4, **SMALL))
        sender = generate_identity(Role.LIGHT, seed=9)
        world.pending.extend(
            make_transaction(sender, TxKind.ST, b"\x01", t) for t in range(45)
        )
        chain = Chain()
        mined = _mine_pending(world, chain, [sender], now=1, flush=True)
        assert mined == 3
        assert [len(b.transactions) for b in chain[1:]] == [20, 20, 5]

    def test_single_transaction_over_capacity_raises(self):
        sender = generate_identity(Role.LIGHT, seed=9)
        monster = make_transaction(sender, TxKind.ST, b"\x00" * (MAX_BLOCK_BYTES + 1), 0)
        with pytest.raises(BlockOverflowError):
            _take_sized_batch([monster], batch_size=4)


class TestMetrics:
    def test_empty_metrics_guard(self):
        from proxichain.simulation import RunMetrics

        with pytest.raises(EmptyMetricsError):
            interaction_stats(RunMetrics())

    def test_denser_world_interacts_more(self):
        sparse = interaction_stats(
            _run(SimConfig(n_agents=8, ticks=15, p_inf=0.0, seed=3, **SMALL))[2]
        )
        dense = interaction_stats(
            _run(SimConfig(n_agents=40, ticks=15, p_inf=0.0, seed=3, **SMALL))[2]
        )
        assert dense["avg_interactions"] > sparse["avg_interactions"]
