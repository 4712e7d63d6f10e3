"""Discrete-time indoor world driving credits, transactions and mining.

One tick is one simulated second. Agents random-walk inside a 10 by 10 m
venue; every tick their pairwise distances feed the credit rules, immediate
contacts (below 2 m) are logged for later trace evidence, and two infection
processes (2 m and 5 m exposure radius) advance on shared random draws so
their cumulative counts are comparable tick by tick within a single run.
Diagnosed agents emit trace transactions listing only (node id, tick) pairs;
background submission/query traffic fills the rest of each block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .consensus import append_block, difficulty_for, mine
from .credit import (
    CreditEvent,
    CreditPolicy,
    EventKind,
    MIN_SEPARATION_M,
    _check_field,
    contact_scores,
    negative_credit,
)
from .identity import (
    AuthorizedRegistry,
    NodeIdentity,
    Role,
    generate_identity,
    publish_registry,
    registry_to_json,
)
from .ledger import (
    BlockOverflowError,
    Chain,
    ChainTail,
    InfectedUsersPool,
    MAX_BLOCK_BYTES,
    Transaction,
    TxKind,
    encode_block_full,
    encode_contact_pairs,
    make_genesis,
    make_transaction,
    make_transactions,
    next_block,
    transaction_size,
    whash_window_for,
)

# ``encode_transaction`` is unused here; perfbench/tracing.py counts calls
# through this binding.
from .ledger import encode_transaction

# Everything in a block except its transactions has a fixed encoded size, so
# the genesis encoding doubles as the per-block overhead for batch budgeting.
_BLOCK_BASE_BYTES = len(encode_block_full(make_genesis()))


class EmptyMetricsError(Exception):
    """Statistics were requested from a run that produced no rows."""


@dataclass(frozen=True)
class Venue:
    width: float = 10.0
    height: float = 10.0
    zone_size: float = 0.5

    def zone_of(self, position: np.ndarray) -> int:
        cols = round(self.width / self.zone_size)
        rows = round(self.height / self.zone_size)
        cx = min(int(position[0] / self.zone_size), cols - 1)
        cy = min(int(position[1] / self.zone_size), rows - 1)
        return cy * cols + cx

    def beacon_grid(self) -> np.ndarray:
        """Receiver anchors on a square grid centered on the venue.

        Four per side at 4 m pitch spans 12 m, so the outer rows sit 1 m
        outside the floor area (wall-mounted), keeping the grid symmetric.
        """
        start = (self.width - 12.0) / 2.0
        coords = start + 4.0 * np.arange(4)
        xs, ys = np.meshgrid(coords, coords)
        return np.stack([xs.ravel(), ys.ravel()], axis=1)


@dataclass(frozen=True)
class SimConfig:
    n_agents: int = 1000
    ticks: int = 1000
    step_std: float = 0.5
    infection_radius: float = 2.0
    seed: int = 0
    policy: CreditPolicy = field(default_factory=CreditPolicy)
    tx_per_block_mean: int = 200
    n_blocks: int = 120
    p_inf: float = 0.02
    observe_radius: float = 10.0
    retention_ticks: int = 14_000
    n_authorized: int = 4
    initial_infected: int = 1
    distance_noise_std: float = 0.0
    track_agents: Optional[tuple[int, ...]] = None
    attacker_id: Optional[int] = None
    attack_tick: Optional[int] = None
    false_claimer_id: Optional[int] = None
    false_claim_tick: Optional[int] = None
    violator_id: Optional[int] = None

    def __post_init__(self) -> None:
        _check_field("n_agents", self.n_agents, 2, integer=True)
        last_agent = self.n_agents - 1
        for name, low in (
            ("ticks", 0), ("seed", 0), ("tx_per_block_mean", 1), ("n_blocks", 0),
            ("retention_ticks", 0), ("n_authorized", 0),
        ):
            _check_field(name, getattr(self, name), low, integer=True)
        _check_field("initial_infected", self.initial_infected, 0, self.n_agents, integer=True)
        for name in ("step_std", "infection_radius", "observe_radius", "distance_noise_std"):
            _check_field(name, getattr(self, name), 0.0)
        if self.infection_radius == 0:
            raise ValueError("infection_radius must be positive")
        _check_field("p_inf", self.p_inf, 0.0, 1.0)
        if not isinstance(self.policy, CreditPolicy):
            raise TypeError(f"policy must be a CreditPolicy, got {self.policy!r}")
        for name in ("attacker_id", "false_claimer_id", "violator_id"):
            if getattr(self, name) is not None:
                _check_field(name, getattr(self, name), 0, last_agent, integer=True)
        for name in ("attack_tick", "false_claim_tick"):
            if getattr(self, name) is not None:
                _check_field(name, getattr(self, name), 0, integer=True)
        for agent, tick in (
            ("attacker_id", "attack_tick"), ("false_claimer_id", "false_claim_tick")
        ):
            if (getattr(self, agent) is None) != (getattr(self, tick) is None):
                raise ValueError(f"{agent} and {tick} must be set together or not at all")
        if self.track_agents is not None:
            if not isinstance(self.track_agents, (tuple, list)):
                raise TypeError(f"track_agents must be a list, got {self.track_agents!r}")
            for agent in self.track_agents:
                _check_field("track_agents entry", agent, 0, last_agent, integer=True)


class CreditStore:
    """The one credit record of a run: proximity totals plus penalty events.

    Proximity totals live in an array indexed like ``world.identities`` so
    the per-tick scoring can add into it in bulk; penalty events are kept
    per node id. Nodes outside the agent list (authorized nodes, the
    manager) have no proximity credit.
    """

    def __init__(self, policy: CreditPolicy, node_ids: Sequence[bytes]):
        self.policy = policy
        self.index_of = {node: idx for idx, node in enumerate(node_ids)}
        self.prox = np.zeros(len(node_ids))
        self.events: dict[bytes, list[CreditEvent]] = {}

    def punish(self, node: bytes, kind: EventKind, tick: int) -> None:
        self.events.setdefault(node, []).append(CreditEvent(kind, tick))

    def breakdown(self, node: bytes, now: int) -> tuple[float, float, float]:
        """(proximity, penalty, total) credit of one node at tick ``now``."""
        idx = self.index_of.get(node)
        prox = float(self.prox[idx]) if idx is not None else 0.0
        events = self.events.get(node)
        neg = negative_credit(events, now, self.policy) if events else 0.0
        return prox, neg, prox + neg

    def total(self, node: bytes, now: int) -> float:
        return self.breakdown(node, now)[2]

    def totals(self, now: int) -> np.ndarray:
        """Total credit of every agent, in ``world.identities`` order."""
        totals = self.prox.copy()
        for node, events in self.events.items():
            idx = self.index_of.get(node)
            if idx is not None:
                totals[idx] += negative_credit(events, now, self.policy)
        return totals


@dataclass
class WorldState:
    config: SimConfig
    venue: Venue
    positions: np.ndarray                 # (n, 2) meters
    infections: dict[float, np.ndarray]   # exposure radius -> infected mask
    notified: np.ndarray                  # bool (n,)
    streams: dict[str, np.random.Generator]
    credit: CreditStore
    iup: InfectedUsersPool
    # Immediate-contact log, kept only in worlds built with identities. Cell
    # [o - 1, i] holds pair (i, (i + o) mod n), as ``_score_contacts`` meets it.
    last_contact_tick: Optional[np.ndarray] = None   # int32 (n // 2, n), -1 = never
    last_contact_dist: Optional[np.ndarray] = None   # float32 (n // 2, n)
    identities: Optional[list[NodeIdentity]] = None
    authorized: Optional[list[NodeIdentity]] = None
    manager: Optional[NodeIdentity] = None
    registry: Optional[AuthorizedRegistry] = None
    pending: list[Transaction] = field(default_factory=list)
    _violator_target: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.config.n_agents

    def infected(self) -> np.ndarray:
        return self.infections[self.config.infection_radius]


TRACKED_DEFAULT = 8


def _derive_streams(seed: int) -> dict[str, np.random.Generator]:
    names = ("mobility", "infection", "traffic", "whash", "noise", "misc")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}


def build_world(config: SimConfig, with_identities: bool = True) -> WorldState:
    """Lay out agents and infection seeds, plus key material when asked."""
    streams = _derive_streams(config.seed)
    n = config.n_agents
    venue = Venue()
    positions = streams["misc"].uniform(
        [0.0, 0.0], [venue.width, venue.height], size=(n, 2)
    )

    infections = {}
    for r in {2.0, 5.0, config.infection_radius}:
        mask = np.zeros(n, dtype=bool)
        mask[: config.initial_infected] = True
        infections[r] = mask

    identities = authorized = manager = None
    contact_tick = contact_dist = None
    if with_identities:
        # Only run_epoch logs contacts, and it refuses a world without keys.
        contact_tick = np.full((n // 2, n), -1, dtype=np.int32)
        contact_dist = np.zeros((n // 2, n), dtype=np.float32)
        base = config.seed * 1_000_003
        identities = [generate_identity(Role.LIGHT, seed=base + i) for i in range(n)]
        manager = generate_identity(Role.MANAGER, seed=base - 1)
        authorized = [
            generate_identity(Role.AUTHORIZED, seed=base - 2 - k)
            for k in range(config.n_authorized)
        ]

    return WorldState(
        config=config,
        venue=venue,
        positions=positions,
        infections=infections,
        notified=np.zeros(n, dtype=bool),
        streams=streams,
        credit=CreditStore(config.policy, [i.node_id for i in identities or ()]),
        iup=InfectedUsersPool(retention_ticks=config.retention_ticks),
        last_contact_tick=contact_tick,
        last_contact_dist=contact_dist,
        identities=identities,
        authorized=authorized,
        manager=manager,
    )


def _reflect(values: np.ndarray, upper: float) -> np.ndarray:
    # Fold the real line onto [0, upper] like a billiard: exact for any
    # step size, not just small ones.
    period = 2.0 * upper
    m = np.mod(values, period)
    return np.where(m > upper, period - m, m)


def step_mobility(world: WorldState) -> WorldState:
    """Advance every agent by a reflected Gaussian step."""
    step = world.streams["mobility"].normal(
        0.0, world.config.step_std, size=world.positions.shape
    )
    if world.config.step_std > 0:
        world.positions += step
    vid = world.config.violator_id
    if vid is not None and world._violator_target is not None:
        # The distancing violator drifts toward wherever the crowd last was.
        world.positions[vid] += 0.8 * (world._violator_target - world.positions[vid])
    world.positions[:, 0] = _reflect(world.positions[:, 0], world.venue.width)
    world.positions[:, 1] = _reflect(world.positions[:, 1], world.venue.height)
    return world


def _spread_tick(world: WorldState) -> None:
    """Advance every exposure-radius process on one tick's shared draws.

    Only a susceptible agent whose draw is below ``p_inf`` can be infected,
    so distances are taken from those candidates to the infected and never
    over all pairs. Being exposed and drawing low are independent tests, so
    the result equals applying them the other way round.
    """
    draws = world.streams["infection"].random(world.n)
    lucky = draws < world.config.p_inf
    pos = world.positions
    for radius in sorted(world.infections):
        infected = world.infections[radius]
        cand = np.nonzero(lucky & ~infected)[0]
        if cand.size == 0 or not infected.any():
            continue
        diff = pos[cand][:, None, :] - pos[infected][None, :, :]
        exposed = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).min(axis=1) <= radius
        infected[cand[exposed]] = True


# ---------------------------------------------------------------------------
# Full epoch loop
# ---------------------------------------------------------------------------

@dataclass
class RunMetrics:
    rows: list[dict] = field(default_factory=list)
    credit_rows: list[tuple] = field(default_factory=list)
    tracked: tuple[int, ...] = ()
    observed_pairs: int = 0
    prox_final: Optional[np.ndarray] = None
    tx_total: int = 0
    blocks_total: int = 0
    elapsed_s: float = 0.0


def _tracked_ids(config: SimConfig) -> tuple[int, ...]:
    if config.track_agents is not None:
        return tuple(config.track_agents)
    ids = list(range(min(TRACKED_DEFAULT, config.n_agents)))
    for extra in (config.attacker_id, config.false_claimer_id, config.violator_id):
        if extra is not None and extra not in ids:
            ids.append(extra)
    return tuple(ids)


# Partner offsets per block of the credit kernel. A block holds this many
# n-element rows, so its buffers stay small at any agent count.
_OFFSET_BLOCK = 32


def _partner_coordinates(world: WorldState) -> tuple[np.ndarray, np.ndarray]:
    """``(px, py)``: ``px[o, i]`` is the x coordinate of agent (i + o) mod n.

    Both are windows onto the coordinates concatenated with themselves, so
    no partner coordinate is gathered, and row 0 holds every agent's own.
    """
    n = world.n
    x, y = world.positions[:, 0], world.positions[:, 1]
    return (
        sliding_window_view(np.concatenate([x, x]), n),
        sliding_window_view(np.concatenate([y, y]), n),
    )


def _offset_distances(px: np.ndarray, py: np.ndarray, o0: int, o1: int) -> np.ndarray:
    """``d[k, i]``: distance from agent i to agent (i + o0 + k) mod n."""
    d = px[0] - px[o0:o1]
    d *= d
    dy = py[0] - py[o0:o1]
    dy *= dy
    d += dy
    return np.sqrt(d, out=d)


def _score_contacts(world: WorldState, t: int) -> int:
    """Credit every observed pair, log the immediate contacts of tick t, and
    return the number of observed pairs.

    Pair (i, (i + o) mod n) is met once, at partner offset o = 1 … n // 2;
    for even n, offset n / 2 is its own mirror and keeps only cells
    i < n / 2. The offsets are walked a block at a time, and each offset row
    is added to its first ends (agent i) and then to its second ends (agent
    i + o), unobserved pairs as +0.0. Distance noise is drawn per block over
    the observed cells in C order, so both ends of a pair score the same
    measured distance. Contacts go to cell [o - 1, i] of the contact log.
    """
    config, policy = world.config, world.config.policy
    n, half = world.n, world.n // 2
    prox = world.credit.prox
    px, py = _partner_coordinates(world)
    pairs = 0
    for o0 in range(1, half + 1, _OFFSET_BLOCK):
        o1 = min(o0 + _OFFSET_BLOCK, half + 1)
        d = _offset_distances(px, py, o0, o1)
        observed = d <= config.observe_radius
        if 2 * (o1 - 1) == n:
            observed[-1, half:] = False
        d_meas = d
        if config.distance_noise_std > 0:
            d_meas = d.copy()
            d_meas[observed] += world.streams["noise"].normal(
                0.0, config.distance_noise_std, size=int(np.count_nonzero(observed))
            )
        scores = contact_scores(np.maximum(d_meas, MIN_SEPARATION_M), policy)
        scores[~observed] = 0.0
        pairs += int(np.count_nonzero(observed))
        for o, row in zip(range(o0, o1), scores):
            prox += row
            prox[o:] += row[: n - o]
            prox[:o] += row[n - o :]

        immediate = observed & (d < policy.immediate_threshold)
        np.copyto(world.last_contact_tick[o0 - 1 : o1 - 1], t, where=immediate)
        np.copyto(world.last_contact_dist[o0 - 1 : o1 - 1], d, where=immediate)
    return pairs


def _log_cells(n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Contact-log cells of the pairs (i, j) for j = 0 … n-1, in that order.

    With o = (j - i) mod n, the pair sits at [o - 1, i] when i is its first
    end (2o < n, or 2o = n and i < j), else at [n - o - 1, j]. The cell for
    j = i belongs to some other pair.
    """
    peer = np.arange(n)
    o = (peer - i) % n
    first = (2 * o < n) | ((2 * o == n) & (i < peer))
    return np.where(first, o, n - o) - 1, np.where(first, i, peer)


def _trace_line(tick: int, node: str, contacts: Iterable[tuple[str, float, int]]) -> str:
    """The ``contacts.jsonl`` line, newline included, of node ``node``'s
    report at ``tick`` listing ``(peer, distance, tick)`` contacts (ids in
    hex): ``json.dumps(record, sort_keys=True, separators=(",", ":"))`` of
    ``{"tick", "node_id", "contacts": [{"peer", "distance", "tick"}, ...]}``
    with each distance rounded to 4 places, written from one template per
    contact. JSON writes a float as its ``repr``, as the template does."""
    listed = ",".join(
        f'{{"distance":{round(distance, 4)!r},"peer":"{peer}","tick":{at}}}'
        for peer, distance, at in contacts
    )
    return f'{{"contacts":[{listed}],"node_id":"{node}","tick":{tick}}}\n'


def _emit_trace(
    world: WorldState,
    i: int,
    now: int,
    trace_sink: Callable[[str], object],
    node_hex: Sequence[str],
    node_bytes: np.ndarray,
) -> None:
    """Diagnosed agent i reports its retained immediate contacts, in
    ascending peer order.

    The report's record goes to ``trace_sink`` as its ``contacts.jsonl``
    line (:func:`_trace_line`). ``node_hex`` holds every agent's node id in
    hex, and ``node_bytes`` the same ids as a ``(n, 32)`` byte array, from
    which the TT/AT payload is built in bulk.
    """
    rows, cols = _log_cells(world.n, i)
    row_ticks = world.last_contact_tick[rows, cols]
    row_ticks[i] = -1  # agent i never lists itself
    horizon = max(now - world.config.retention_ticks, 0)
    peers = np.nonzero(row_ticks >= horizon)[0]
    ticks = row_ticks[peers]
    payload = encode_contact_pairs(node_bytes[peers], ticks)
    world.pending.append(make_transaction(world.identities[i], TxKind.TT, payload, now))
    world.iup.add(world.identities[i].node_id, now)
    dists = world.last_contact_dist[rows[peers], cols[peers]].tolist()
    trace_sink(
        _trace_line(
            now,
            node_hex[i],
            zip([node_hex[j] for j in peers.tolist()], dists, ticks.tolist()),
        )
    )
    if peers.size and world.manager is not None:
        # The manager alarms every listed contact; they become notified.
        world.pending.append(make_transaction(world.manager, TxKind.AT, payload, now))
        world.notified[peers] = True


def _take_sized_batch(pending: list[Transaction], batch_size: int) -> tuple[Transaction, ...]:
    """Front slice of up to ``batch_size`` transactions that fits one block.

    Validation rejects any block whose full encoding passes 1 MiB, so the
    batch is cut by serialized size as well as by count; heavy trace and
    alarm payloads then spill into the next block instead of poisoning this
    one.
    """
    budget = MAX_BLOCK_BYTES - _BLOCK_BASE_BYTES
    used = 0
    taken = 0
    for tx in pending[:batch_size]:
        cost = transaction_size(tx)
        if used + cost > budget:
            if taken == 0:
                raise BlockOverflowError("a single transaction exceeds block capacity")
            break
        used += cost
        taken += 1
    return tuple(pending[:taken])


def _mine_pending(
    world: WorldState,
    chain: Chain | ChainTail,
    miner_pool: list[NodeIdentity],
    now: int,
    flush: bool,
) -> int:
    """Batch pending transactions into blocks and mine them onto the tip."""
    config = world.config
    batch_size = config.tx_per_block_mean
    credit_now = now + 1
    mined = 0
    while world.pending and (len(world.pending) >= batch_size or flush):
        batch = _take_sized_batch(world.pending, batch_size)
        del world.pending[: len(batch)]
        miner = miner_pool[int(world.streams["misc"].integers(len(miner_pool)))]
        level = difficulty_for(
            world.credit.total(miner.node_id, credit_now),
            config.policy.alpha_d,
            miner.is_authorized,
        )
        draw = int(world.streams["whash"].integers(0, 101))
        window = whash_window_for(len(chain) - 1, draw)
        result = mine(chain, next_block(chain, window, batch, miner.node_id, now), level)
        append_block(
            chain,
            result.block,
            world.registry,
            credit_view=lambda node: world.credit.total(node, credit_now),
            alpha_d=config.policy.alpha_d,
        )
        mined += 1
    return mined


def _drop_line(line: str) -> None:
    pass


def run_epoch(
    world: WorldState,
    chain: Chain | ChainTail,
    trace_sink: Callable[[str], object] = _drop_line,
) -> tuple[WorldState, Chain | ChainTail, RunMetrics]:
    """Drive the world for ``config.ticks`` ticks, mining as batches fill.

    Besides the static authorized nodes, the top credit decile may mine; it
    is re-ranked at each tick. Credit is always evaluated at the end of the
    tick (now = t + 1), so a penalty recorded at tick t bites from the very
    next scheduling decision onward.

    Each trace report's ``contacts.jsonl`` line goes to ``trace_sink`` as it
    is made (the default drops it). Mined blocks are appended to ``chain``,
    which may be a :class:`~proxichain.ledger.ChainTail` holding only the
    window.
    """
    if world.identities is None:
        raise ValueError("run_epoch needs a world built with identities")
    config = world.config
    metrics = RunMetrics(tracked=_tracked_ids(config))
    started = time.perf_counter()
    n = world.n

    node_ids = [ident.node_id for ident in world.identities]
    node_hex = [node.hex() for node in node_ids]
    node_bytes = np.frombuffer(b"".join(node_ids), dtype=np.uint8).reshape(n, 32)

    world.registry = publish_registry(
        world.manager, [a.public_key for a in world.authorized]
    )
    world.pending.append(
        make_transaction(
            world.manager,
            TxKind.REGISTRY,
            registry_to_json(world.registry).encode(),
            0,
        )
    )

    tx_rate = config.tx_per_block_mean * config.n_blocks / max(config.ticks, 1)

    for t in range(config.ticks):
        step_mobility(world)
        tx_before = len(world.pending)

        metrics.observed_pairs += _score_contacts(world, t)
        if config.violator_id is not None:
            v = config.violator_id
            x, y = world.positions[:, 0], world.positions[:, 1]
            dx, dy = x[v] - x, y[v] - y
            row = np.sqrt(dx * dx + dy * dy)
            row[v] = np.inf
            world._violator_target = world.positions[int(np.argmin(row))].copy()

        # Shared draws couple the exposure-radius processes within the run.
        before = world.infected().copy()
        _spread_tick(world)
        newly = np.nonzero(world.infected() & ~before)[0]
        for i in newly:
            _emit_trace(world, int(i), t, trace_sink, node_hex, node_bytes)

        if (
            config.false_claimer_id is not None
            and t == config.false_claim_tick
            and not world.infected()[config.false_claimer_id]
        ):
            # Authorized validation cross-checks the pool; the claim fails
            # and the claimant is punished instead of traced.
            world.credit.punish(
                node_ids[config.false_claimer_id], EventKind.FALSE_CLAIM, t
            )
        if config.attacker_id is not None and t == config.attack_tick:
            world.credit.punish(
                node_ids[config.attacker_id], EventKind.NETWORK_ATTACK, t
            )

        n_tx = int(world.streams["traffic"].poisson(tx_rate))
        senders = world.streams["traffic"].integers(0, n, size=n_tx)
        kind_draw = world.streams["traffic"].random(n_tx)
        traffic = []
        for s, kd in zip(senders, kind_draw):
            ident = world.identities[int(s)]
            if kd < 0.7:
                payload = world.venue.zone_of(world.positions[int(s)]).to_bytes(2, "little")
                kind = TxKind.ST
            else:
                payload = ident.node_id
                kind = TxKind.QT
            traffic.append((ident, kind, payload))
        world.pending.extend(make_transactions(traffic, t))

        tx_count = len(world.pending) - tx_before

        pool = list(world.authorized) + [world.manager]
        totals = world.credit.totals(now=t + 1)
        top = np.argsort(totals, kind="stable")[-max(n // 10, 1):]
        pool.extend(world.identities[int(m)] for m in top)
        blocks = _mine_pending(world, chain, pool, t, flush=(t == config.ticks - 1))

        for idx in metrics.tracked:
            p, neg, tot = world.credit.breakdown(node_ids[idx], t + 1)
            metrics.credit_rows.append((t, node_hex[idx], p, neg, tot))

        metrics.rows.append(
            {
                "tick": t,
                "infected_count_2m": int(world.infections[2.0].sum()),
                "infected_count_5m": int(world.infections[5.0].sum()),
                "tx_count": tx_count,
                "blocks_mined": blocks,
            }
        )
        metrics.tx_total += tx_count
        metrics.blocks_total += blocks

    world.iup.prune(config.ticks)
    metrics.prox_final = world.credit.prox.copy()
    metrics.elapsed_s = time.perf_counter() - started
    return world, chain, metrics


def interaction_stats(metrics: RunMetrics) -> dict[str, float]:
    """Per-agent averages over a completed run."""
    if not metrics.rows or metrics.prox_final is None:
        raise EmptyMetricsError("run produced no metrics rows")
    return {
        # Each observed pair is one interaction for each of its two ends.
        "avg_interactions": 2 * metrics.observed_pairs / len(metrics.prox_final),
        "avg_gained_credit": float(np.mean(metrics.prox_final)),
    }


def run_outbreak(config: SimConfig) -> list[tuple[int, int, int]]:
    """Mobility plus the coupled infection processes, no ledger plumbing.

    Returns per-tick (tick, cumulative infected at 2 m, at 5 m). Useful when
    only the epidemic curves matter; orders of magnitude faster than a full
    epoch because nothing is signed or mined.
    """
    world = build_world(config, with_identities=False)
    out = []
    for t in range(config.ticks):
        step_mobility(world)
        _spread_tick(world)
        out.append(
            (t, int(world.infections[2.0].sum()), int(world.infections[5.0].sum()))
        )
    return out
