"""Discrete-time indoor world driving credits, transactions and mining.

One tick is one simulated second. Agents random-walk inside a square venue
``VENUE_SIDE`` (10 m) on a side, split into ``ZONE_SIZE`` (0.5 m) zones for
submission payloads (``zone_of``) and watched by the 16 receiver anchors of
``beacon_grid``. Every tick their pairwise distances feed the credit rules,
immediate contacts (below 2 m) are logged for later trace evidence, and two
infection processes (2 m and 5 m exposure radius) advance on shared random
draws so their cumulative counts are comparable tick by tick within a single
run. Diagnosed agents emit trace transactions listing only (node id, tick)
pairs; background submission/query traffic fills the rest of each block.
"""

from __future__ import annotations

import select
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _fork, credit
from .consensus import (
    LEVELS_BY_NAME,
    BlockRejectedError,
    append_block,
    difficulty_for,
    mine,
)
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


# The venue is a square floor, folded into zones for submission payloads.
# Every function reads these when it runs.
VENUE_SIDE = 10.0
ZONE_SIZE = 0.5

# The world's fixed parameters, which every function reads when it runs: the
# standard deviation of each step per axis (m), the distance within which a
# pair is observed and scored (m), the ticks the contact log and the infected
# users pool keep an entry, the authorized nodes, and the agents infected at
# tick 0 (the first ones).
STEP_STD = 0.5
OBSERVE_RADIUS = 10.0
RETENTION_TICKS = 14_000
N_AUTHORIZED = 4
INITIAL_INFECTED = 1

# The contact log stores a tick as ``uint16`` ticks since the world's
# ``contact_epoch``, ``_NEVER`` meaning no contact. Before a tick would be
# stored 2 * _EPOCH_TICKS - 1 past the epoch, the epoch moves on by
# _EPOCH_TICKS and the cells older than the new epoch are dropped. Those are
# then at least _EPOCH_TICKS ticks old; with RETENTION_TICKS below that, they
# are behind the retention horizon already, so no trace would list them.
_EPOCH_TICKS = 2**15
_NEVER = 0xFFFF

# Agent i of the run with seed s derives its key from s * _KEY_SEED_STRIDE + i.
_KEY_SEED_STRIDE = 1_000_003


def zone_of(position: np.ndarray) -> int:
    """Row-major index of the zone holding ``position``; the far walls count
    as part of the last row and column."""
    side = round(VENUE_SIDE / ZONE_SIZE)
    cx = min(int(position[0] / ZONE_SIZE), side - 1)
    cy = min(int(position[1] / ZONE_SIZE), side - 1)
    return cy * side + cx


def beacon_grid() -> np.ndarray:
    """Receiver anchors on a square grid centered on the venue.

    Four per side at 4 m pitch spans 12 m, so the outer rows sit 1 m
    outside the floor area (wall-mounted), keeping the grid symmetric.
    """
    start = (VENUE_SIDE - 12.0) / 2.0
    coords = start + 4.0 * np.arange(4)
    xs, ys = np.meshgrid(coords, coords)
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


@dataclass(frozen=True)
class SimConfig:
    n_agents: int = 1000
    ticks: int = 1000
    infection_radius: float = 2.0
    seed: int = 0
    policy: CreditPolicy = field(default_factory=CreditPolicy)
    tx_per_block_mean: int = 200
    n_blocks: int = 120
    p_inf: float = 0.02
    attacker_id: Optional[int] = None
    attack_tick: Optional[int] = None
    false_claimer_id: Optional[int] = None
    false_claim_tick: Optional[int] = None

    def __post_init__(self) -> None:
        _check_field("n_agents", self.n_agents, 2, integer=True)
        last_agent = self.n_agents - 1
        for name, low in (("ticks", 0), ("tx_per_block_mean", 1), ("n_blocks", 0)):
            _check_field(name, getattr(self, name), low, integer=True)
        # Every key seed must fit the signed 64 bits it is packed into.
        max_seed = (2**63 - 1 - last_agent) // _KEY_SEED_STRIDE
        _check_field("seed", self.seed, 0, max_seed, integer=True)
        _check_field("infection_radius", self.infection_radius, 0.0)
        if self.infection_radius == 0:
            raise ValueError("infection_radius must be positive")
        _check_field("p_inf", self.p_inf, 0.0, 1.0)
        if not isinstance(self.policy, CreditPolicy):
            raise TypeError(f"policy must be a CreditPolicy, got {self.policy!r}")
        for name in ("attacker_id", "false_claimer_id"):
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
    positions: np.ndarray                 # (n, 2) meters
    infections: dict[float, np.ndarray]   # exposure radius -> infected mask
    notified: np.ndarray                  # bool (n,)
    streams: dict[str, np.random.Generator]
    credit: CreditStore
    iup: InfectedUsersPool
    # Immediate-contact log, kept only in worlds built with identities. Cell
    # [o - 1, i] holds pair (i, (i + o) mod n), as ``_score_contacts`` meets it,
    # in 4 bytes: the pair's last contact tick, as ticks since
    # ``contact_epoch`` (``_NEVER`` if it has none), and the distance then, as
    # q = rint(float64(float32(d)) * 1e4) units of 1e-4 m (``_distance_units``).
    last_contact_tick: Optional[np.ndarray] = None   # uint16 (n // 2, n)
    last_contact_dist: Optional[np.ndarray] = None   # uint16 (n // 2, n)
    contact_epoch: int = 0
    identities: Optional[list[NodeIdentity]] = None
    authorized: Optional[list[NodeIdentity]] = None
    manager: Optional[NodeIdentity] = None
    registry: Optional[AuthorizedRegistry] = None
    pending: list[Transaction] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.config.n_agents

    def infected(self) -> np.ndarray:
        return self.infections[self.config.infection_radius]


TRACKED_DEFAULT = 8


def _derive_streams(seed: int) -> dict[str, np.random.Generator]:
    # Child 4 is spawned but read by nothing, so that ``misc`` stays child 5
    # and every position and miner draw keeps its bytes.
    names = ("mobility", "infection", "traffic", "whash", None, "misc")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children) if name}


def build_world(config: SimConfig, with_identities: bool = True) -> WorldState:
    """Lay out agents and infection seeds, plus key material when asked."""
    streams = _derive_streams(config.seed)
    n = config.n_agents
    positions = streams["misc"].uniform(
        [0.0, 0.0], [VENUE_SIDE, VENUE_SIDE], size=(n, 2)
    )

    infections = {}
    for r in {2.0, 5.0, config.infection_radius}:
        mask = np.zeros(n, dtype=bool)
        mask[:INITIAL_INFECTED] = True
        infections[r] = mask

    identities = authorized = manager = None
    contact_tick = contact_dist = None
    if with_identities:
        # Only run_epoch logs contacts, and it refuses a world without keys.
        contact_tick = np.full((n // 2, n), _NEVER, dtype=np.uint16)
        contact_dist = np.zeros((n // 2, n), dtype=np.uint16)
        base = config.seed * _KEY_SEED_STRIDE
        identities = [generate_identity(Role.LIGHT, seed=base + i) for i in range(n)]
        manager = generate_identity(Role.MANAGER, seed=base - 1)
        authorized = [
            generate_identity(Role.AUTHORIZED, seed=base - 2 - k)
            for k in range(N_AUTHORIZED)
        ]

    return WorldState(
        config=config,
        positions=positions,
        infections=infections,
        notified=np.zeros(n, dtype=bool),
        streams=streams,
        credit=CreditStore(config.policy, [i.node_id for i in identities or ()]),
        iup=InfectedUsersPool(retention_ticks=RETENTION_TICKS),
        last_contact_tick=contact_tick,
        last_contact_dist=contact_dist,
        identities=identities,
        authorized=authorized,
        manager=manager,
    )


def _reflect(values: np.ndarray, upper: float) -> np.ndarray:
    # Fold the real line onto [0, upper] like a billiard: exact for any
    # step size, not just small ones. ``np.mod`` is ``fmod`` plus the period
    # where that is negative, and +0.0 where it is zero; spelling it out costs
    # half as much. A zero of either sign goes to the period here, which folds
    # back to +0.0.
    period = 2.0 * upper
    m = np.fmod(values, period)
    np.add(m, period, out=m, where=m <= 0)
    np.subtract(period, m, out=m, where=m > upper)
    return m


def step_mobility(world: WorldState) -> WorldState:
    """Advance every agent by a Gaussian step, folded back into the venue."""
    step = world.streams["mobility"].normal(0.0, STEP_STD, size=world.positions.shape)
    if STEP_STD > 0:
        world.positions += step
    # One fold over the flattened (x0, y0, x1, y1, ...) coordinates, so its
    # loops run over 2n contiguous values, not n values at stride 2.
    world.positions[:] = _reflect(world.positions.ravel(), VENUE_SIDE).reshape(-1, 2)
    return world


def _spread_tick(world: WorldState) -> np.ndarray:
    """Advance every exposure-radius process on one tick's shared draws, and
    return the ascending indices newly infected at ``config.infection_radius``.

    Only a susceptible agent whose draw is below ``p_inf`` can be infected,
    so distances are taken from those candidates to the infected and never
    over all pairs. Being exposed and drawing low are independent tests, so
    the result equals applying them the other way round. The squared
    distances are built one coordinate column at a time, so every pass runs
    over a whole candidate row; the root is taken of each row's minimum,
    which equals the minimum of the roots since a rounded square root is
    monotone.
    """
    draws = world.streams["infection"].random(world.n)
    lucky = draws < world.config.p_inf
    x, y = world.positions[:, 0], world.positions[:, 1]
    newly = np.empty(0, dtype=np.intp)
    for radius in sorted(world.infections):
        infected = world.infections[radius]
        cand = np.flatnonzero(lucky & ~infected)
        if cand.size == 0 or not infected.any():
            continue
        src = np.flatnonzero(infected)
        dx = x[cand][:, None] - x[src]
        dy = y[cand][:, None] - y[src]
        dx *= dx
        dy *= dy
        dx += dy
        hit = cand[np.sqrt(dx.min(axis=1)) <= radius]
        infected[hit] = True
        if radius == world.config.infection_radius:
            newly = hit
    return newly


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
    ids = list(range(min(TRACKED_DEFAULT, config.n_agents)))
    for extra in (config.attacker_id, config.false_claimer_id):
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


def _distance_units(d: np.ndarray) -> np.ndarray:
    """q = rint(float64(float32(d)) * 1e4) of each distance d >= 0 (m), as
    ``uint16``: the units of 1e-4 m that the contact log stores.

    A ``float32`` has a 24-bit significand and 10^4 needs 14 bits, so
    ``float64(float32(d)) * 1e4`` is exact and ``np.rint`` rounds it half to
    even as ``round(d, 4)`` rounds the exact decimal value of the ``float32``
    d: q / 1e4 is the distance that ``contacts.jsonl`` prints. ``uint16``
    holds every q below ``credit.IMMEDIATE_THRESHOLD`` while that is below
    6.5535 m."""
    q = np.multiply(d.astype(np.float32), 1e4, dtype=np.float64)
    return np.rint(q, out=q).astype(np.uint16)


def _rebase_contact_log(world: WorldState) -> None:
    """Move the contact log's epoch on by ``_EPOCH_TICKS``: cells logged
    before the new epoch become ``_NEVER`` and the rest shift down. The log
    is walked ``_OFFSET_BLOCK`` rows at a time, so no pair-sized mask is
    made."""
    log = world.last_contact_tick
    for start in range(0, len(log), _OFFSET_BLOCK):
        block = log[start : start + _OFFSET_BLOCK]
        kept = (block >= _EPOCH_TICKS) & (block != _NEVER)
        np.subtract(block, _EPOCH_TICKS, out=block, where=kept)
        block[~kept] = _NEVER
    world.contact_epoch += _EPOCH_TICKS


def _score_contacts(world: WorldState, t: int) -> int:
    """Credit every observed pair, log the immediate contacts of tick t, and
    return the number of observed pairs.

    Pair (i, (i + o) mod n) is met once, at partner offset o = 1 … n // 2;
    for even n, offset n / 2 is its own mirror and keeps only cells
    i < n / 2. The offsets are walked a block at a time, and each offset row
    is added to its first ends (agent i) and then to its second ends (agent
    i + o), unobserved pairs as +0.0. Each distance is clamped to
    ``MIN_SEPARATION_M`` before it is scored, so coincident agents score a
    finite floor. Contacts go to cell [o - 1, i] of the contact log, whose
    epoch is first moved on as far as tick t needs (``_EPOCH_TICKS``).
    """
    n, half = world.n, world.n // 2
    while t - world.contact_epoch >= 2 * _EPOCH_TICKS - 1:
        _rebase_contact_log(world)
    log_tick = t - world.contact_epoch
    prox = world.credit.prox
    px, py = _partner_coordinates(world)
    pairs = 0
    for o0 in range(1, half + 1, _OFFSET_BLOCK):
        o1 = min(o0 + _OFFSET_BLOCK, half + 1)
        d = _offset_distances(px, py, o0, o1)
        observed = d <= OBSERVE_RADIUS
        if 2 * (o1 - 1) == n:
            observed[-1, half:] = False
        scores = contact_scores(np.maximum(d, MIN_SEPARATION_M))
        scores[~observed] = 0.0
        pairs += int(np.count_nonzero(observed))
        for o, row in zip(range(o0, o1), scores):
            prox += row
            prox[o:] += row[: n - o]
            prox[:o] += row[n - o :]

        # Only the immediate cells are written, by their flat index.
        immediate = np.flatnonzero(observed & (d < credit.IMMEDIATE_THRESHOLD))
        cells = immediate + (o0 - 1) * n
        world.last_contact_tick.put(cells, log_tick)
        world.last_contact_dist.put(cells, _distance_units(d.take(immediate)))
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


# ``contacts.jsonl`` text of the distance q * 1e-4 m at index q, i.e.
# ``repr(round(q / 1e4, 4))``. It depends on q alone, so one table serves
# every run in the process: its 20,001 strings at the default 2 m immediate
# threshold took 30-40 ms to build on a 2-vCPU Xeon, which each ~0.5 s
# benchmark ct_run call would pay again. Built at the first trace, not at import, and grown as
# longer distances come, so it ends one past the longest yet written.
_DISTANCE_TEXT: list[str] = []


def _distance_texts(q: np.ndarray) -> list[str]:
    """The text of each distance held as q units of 1e-4 m, as JSON writes
    ``round(d, 4)`` of the ``float32`` distance d that gave q (see
    :func:`_distance_units`), read from :data:`_DISTANCE_TEXT`: the double
    nearest q / 10^4 is ``q / 1e4``."""
    q = q.tolist()
    table = _DISTANCE_TEXT
    if q and max(q) >= len(table):
        table.extend(repr(round(k / 1e4, 4)) for k in range(len(table), max(q) + 1))
    return list(map(table.__getitem__, q))


class _TraceText:
    """Writes a run's ``contacts.jsonl`` lines from templates: each agent's
    ``,"peer":"<hex>","tick":`` fragment is made once, and each distance's
    text is read from :data:`_DISTANCE_TEXT`."""

    def __init__(self, node_hex: Sequence[str]):
        self.node_hex = node_hex
        self._peer = [f',"peer":"{h}","tick":' for h in node_hex]

    def line(
        self, tick: int, i: int, peers: np.ndarray, dists: np.ndarray, ticks: np.ndarray
    ) -> str:
        """The line, newline included, of agent i's report at ``tick``
        listing agent ``peers[k]`` met ``dists[k]`` units of 1e-4 m away (as
        the contact log holds it) at ``ticks[k]``: ``json.dumps(record,
        sort_keys=True, separators=(",", ":"))`` of ``{"tick", "node_id",
        "contacts": [{"peer", "distance", "tick"}, ...]}`` with ids in hex
        and each distance in m rounded to 4 places."""
        head = '{"contacts":[{"distance":' if len(peers) else '{"contacts":['
        parts = ['},{"distance":'] * (4 * len(peers))
        parts[0::4] = _distance_texts(dists)
        parts[1::4] = map(self._peer.__getitem__, peers.tolist())
        parts[2::4] = map(str, ticks.tolist())
        if parts:
            parts[-1] = "}"
        return f'{head}{"".join(parts)}],"node_id":"{self.node_hex[i]}","tick":{tick}}}\n'


def _emit_trace(
    world: WorldState,
    i: int,
    now: int,
    trace_sink: Callable[[str], object],
    text: _TraceText,
    node_bytes: np.ndarray,
) -> None:
    """Diagnosed agent i reports its retained immediate contacts, in
    ascending peer order.

    The report's ``contacts.jsonl`` line, written by ``text``, goes to
    ``trace_sink``. ``node_bytes`` holds every agent's node id as a
    ``(n, 32)`` byte array, from which the TT/AT payload is built in bulk.
    """
    rows, cols = _log_cells(world.n, i)
    row_ticks = world.last_contact_tick[rows, cols]
    row_ticks[i] = _NEVER  # agent i never lists itself
    # The retention horizon in ticks since the log's epoch.
    horizon = max(now - RETENTION_TICKS, 0) - world.contact_epoch
    peers = np.flatnonzero((row_ticks >= horizon) & (row_ticks != _NEVER))
    ticks = row_ticks[peers].astype(np.int64) + world.contact_epoch
    payload = encode_contact_pairs(node_bytes[peers], ticks)
    world.pending.append(make_transaction(world.identities[i], TxKind.TT, payload, now))
    world.iup.add(world.identities[i].node_id, now)
    dists = world.last_contact_dist[rows[peers], cols[peers]]
    trace_sink(text.line(now, i, peers, dists, ticks))
    if peers.size:
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


def _add_block(
    chain: Chain | ChainTail,
    registry: Optional[AuthorizedRegistry],
    job: tuple,
    credit: float,
) -> None:
    """Build the block ``job`` decides on the tip of ``chain``, mine it and
    append it. The job is what :func:`_mine_pending` decided: the batch,
    the miner's node id, the window, the timestamp and the name of the
    level to mine at. :func:`~proxichain.consensus.append_block` checks
    every clause, the miner's entitlement at ``credit`` included, and on a
    :class:`~proxichain.ledger.ChainTail` reuses the window state that
    mining left, so the window is hashed once. Every block of a run is
    added here, in process or in the block process (:func:`_build_blocks`).
    """
    batch, miner, window, timestamp, level = job
    candidate = next_block(chain, window, batch, miner, timestamp)
    block = mine(chain, candidate, LEVELS_BY_NAME[level]).block
    append_block(chain, block, registry, credit)


def _build_blocks(
    chain: ChainTail, registry: AuthorizedRegistry, report: int, feed: int
) -> None:
    """The block process: add each ``(job, credit)`` record fed to it to
    its own copy of ``chain`` with :func:`_add_block`, as one CPU adds them
    in process, until a block is refused or the run ends.

    The copy writes each appended block's line to its copy of the chain
    file, which is flushed before the verdict goes to ``report``: one
    record, ``[reason, detail]`` for the first refused block, ``[]`` once
    the ``None`` record ends a feed of accepted blocks, or
    ``["type: message"]`` for any other exception, a failed chain write
    included. A caller gone before its ``None`` record gets nothing."""
    verdict: list[str] = []
    try:
        for record in _fork.records(feed):
            if record is None:
                break
            try:
                _add_block(chain, registry, *record)
            except BlockRejectedError as exc:
                verdict = [exc.reason, exc.detail]
                break
        else:
            return  # the caller died before its None record
        chain.file.flush()
    except Exception as exc:
        verdict = [f"{type(exc).__name__}: {exc}"]
    _fork.send(report, verdict)


class _BlockProcess:
    """The caller's side of the block process (:func:`_build_blocks`): the
    read end of its report, which carries only the verdict, and the write
    end of its feed, one ``(job, credit)`` record a block, then ``None``."""

    def __init__(self, chain: ChainTail, report: int, feed: int):
        self._chain = chain
        self._report = report
        self._feed = feed
        self._poller = select.poll()
        self._poller.register(report, select.POLLIN)

    def send(self, job: tuple, credit: float) -> None:
        """Feed one block's job and its miner's credit, and count the block
        on the caller's tail."""
        self._write((job, credit))
        self._chain.append_elsewhere()

    def poll(self) -> None:
        """Raise the verdict if it has come, without waiting."""
        if self._poller.poll(0):
            self._verdict()

    def finish(self) -> None:
        """End the feed and wait for the verdict."""
        self._write(None)
        self._verdict()

    def _write(self, record: Optional[tuple]) -> None:
        try:
            _fork.send(self._feed, record)
        except BrokenPipeError:
            # The block process has refused a block, failed or died, so its
            # verdict, or the lack of one, raises.
            self._verdict()
            raise

    def _verdict(self) -> None:
        """Read the report to its end and raise what its record says:
        :class:`BlockRejectedError` for a refused block, ``RuntimeError``
        naming the exception that ended the block process, or
        ``RuntimeError`` if it exited without a verdict. Reading to the end
        waits for the block process to exit, so its file writes are done."""
        reports = list(_fork.records(self._report))
        if not reports:
            raise RuntimeError("the block process exited without a verdict")
        verdict = reports[0]
        if len(verdict) == 2:
            raise BlockRejectedError(*verdict)
        if verdict:
            raise RuntimeError(f"the block process failed: {verdict[0]}")


@contextmanager
def _block_process(
    world: WorldState, chain: Chain | ChainTail
) -> Iterator[Optional[_BlockProcess]]:
    """A block process for the run on ``chain``, or None when blocks are
    added in process: on a :class:`Chain`, on one CPU or beside another
    thread (see :func:`proxichain._fork.helpers`). It is forked once the
    registry is published, and killed and reaped on leaving.

    On a tail, the process that adds the blocks first seeds the tail's
    store of parsed keys with every identity's key, taken from its secret
    key: ~2.5 us a key, against ~45 us to parse a compressed one. Only keys
    from elsewhere are then parsed, and the caller of a block process holds
    no parsed key.

    The chain file has one writer at a time. This process flushes it before
    the fork, so that no line it holds is written again by the block
    process, and writes no byte to it after; the block process flushes it
    before its verdict, so every line is in the file when ``finish``
    returns."""
    if not isinstance(chain, ChainTail):
        yield None
        return
    chain.file.flush()

    def seed_keys() -> None:
        chain.parsed_keys.update(
            (ident.public_key, ident.secret_key.public_key())
            for ident in (*world.identities, world.manager, *world.authorized)
        )

    def body(p: int, procs: int, report: int, feed: int) -> None:
        seed_keys()
        _build_blocks(chain, world.registry, report, feed)

    with _fork.helpers(body, inbound=True) as ends:
        if not ends:
            seed_keys()
        yield _BlockProcess(chain, *ends[0]) if ends else None


def _mine_pending(
    world: WorldState,
    chain: Chain | ChainTail,
    miner_pool: list[NodeIdentity],
    now: int,
    flush: bool,
    add: Optional[Callable[[tuple, float], None]] = None,
) -> int:
    """Batch pending transactions into blocks on the tip of ``chain``.

    This decides each block: its batch, its miner, the window draw, the
    level and the miner's credit. ``add(job, credit)`` then builds, mines
    and appends it: the block process's ``send``, or by default
    :func:`_add_block` on ``chain`` in process."""
    config = world.config
    if add is None:
        add = partial(_add_block, chain, world.registry)
    batch_size = config.tx_per_block_mean
    credit_now = now + 1
    mined = 0
    while world.pending and (len(world.pending) >= batch_size or flush):
        batch = _take_sized_batch(world.pending, batch_size)
        del world.pending[: len(batch)]
        miner = miner_pool[int(world.streams["misc"].integers(len(miner_pool)))]
        credit = world.credit.total(miner.node_id, credit_now)
        level = difficulty_for(credit, miner.is_authorized)
        draw = int(world.streams["whash"].integers(0, 101))
        window = whash_window_for(len(chain) - 1, draw)
        add((batch, miner.node_id, window, now, level.name), credit)
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
    window; the tail's store of parsed keys is seeded with every identity's
    key (see :func:`_block_process`).

    On a tail, with a second CPU and no other thread, the blocks are added
    in a forked block process that lasts for the run (see
    :func:`_build_blocks`). This process still decides every block and
    sends it there (:func:`_mine_pending`); the block process builds, mines
    and appends it on its own copy of the tail, exactly as one CPU does in
    process, and writes its line to the tail's file itself, so a tail
    writes the same lines on any CPU count. This tail counts the blocks
    sent, so ``len(chain)`` is the chain's height on any CPU count, but it
    holds none of them: reading one raises ``IndexError``, as reading an
    evicted block does. A refused block raises the
    :class:`BlockRejectedError` that adding in process raises: at the end
    of the first tick after the block process has refused it (its report is
    polled once per tick), at a later send that finds the block process
    gone, and at the latest once the last tick's blocks are added. Any
    other exception in the block process, a failed chain write included,
    raises ``RuntimeError`` naming it, and so does a block process that
    dies.
    """
    if world.identities is None:
        raise ValueError("run_epoch needs a world built with identities")
    config = world.config
    metrics = RunMetrics(tracked=_tracked_ids(config))
    started = time.perf_counter()
    n = world.n

    node_ids = [ident.node_id for ident in world.identities]
    node_hex = [node.hex() for node in node_ids]
    text = _TraceText(node_hex)
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

    with _block_process(world, chain) as blocks:
        for t in range(config.ticks):
            step_mobility(world)
            tx_before = len(world.pending)

            metrics.observed_pairs += _score_contacts(world, t)

            # Shared draws couple the exposure-radius processes within the run.
            for i in _spread_tick(world).tolist():
                _emit_trace(world, i, t, trace_sink, text, node_bytes)

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
                    payload = zone_of(world.positions[int(s)]).to_bytes(2, "little")
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
            mined = _mine_pending(
                world, chain, pool, t, flush=(t == config.ticks - 1),
                add=blocks.send if blocks is not None else None,
            )
            if blocks is not None:
                blocks.poll()

            for idx in metrics.tracked:
                p, neg, tot = world.credit.breakdown(node_ids[idx], t + 1)
                metrics.credit_rows.append((t, node_hex[idx], p, neg, tot))

            metrics.rows.append(
                {
                    "tick": t,
                    "infected_count_2m": int(world.infections[2.0].sum()),
                    "infected_count_5m": int(world.infections[5.0].sum()),
                    "tx_count": tx_count,
                    "blocks_mined": mined,
                }
            )
            metrics.tx_total += tx_count
            metrics.blocks_total += mined
        if blocks is not None:
            blocks.finish()

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
        c2 = np.count_nonzero(world.infections[2.0])
        c5 = np.count_nonzero(world.infections[5.0])
        out.append((t, int(c2), int(c5)))
    return out
