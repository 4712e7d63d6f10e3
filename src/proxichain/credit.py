"""Proximity-based credit scoring with decaying penalties.

A node's total credit is the sum of two parts. The proximity part rewards
keeping distance: every observed contact closer than the immediate threshold
subtracts ``LAMBDA_MINUS / distance``, every contact at or beyond it adds
``distance / LAMBDA_PLUS``. The penalty part is always non-positive and
decays hyperbolically with event age, so one misbehavior event dominates
recent history but fades instead of banning a node forever.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

MIN_SEPARATION_M = 0.05


class EventKind(Enum):
    FALSE_CLAIM = "false_claim"
    CONTACT_VIOLATION = "contact_violation"
    NETWORK_ATTACK = "network_attack"


class TemporalOrderError(Exception):
    """A penalty event is not strictly older than the evaluation tick."""


def _check_field(
    name: str,
    value: object,
    low: float = -math.inf,
    high: float = math.inf,
    integer: bool = False,
) -> None:
    """Raise unless ``value`` is a finite number (an integer if asked) in [low, high].

    Config fields come from spec files and flags, so a wrong type raises
    ``TypeError`` and a bad value ``ValueError``, both naming the field.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integer else "a number"
        raise TypeError(f"{name} must be {what}, got {value!r}")
    if not (integer or math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")


# The scoring rule's coefficients, the paper's lambda-, lambda+, omega_fc,
# omega_sc and delta_t: LAMBDA_MINUS and LAMBDA_PLUS weigh a contact inside
# and beyond IMMEDIATE_THRESHOLD (m), OMEGA_FC and OMEGA_SC a false claim and
# a contact violation, and DELTA_T scales every penalty. Every function reads
# these when it runs.
LAMBDA_MINUS = 12.0
LAMBDA_PLUS = 2.0
OMEGA_FC = 50.0
OMEGA_SC = 10.0
DELTA_T = 1.0
IMMEDIATE_THRESHOLD = 2.0


@dataclass(frozen=True)
class CreditPolicy:
    """The one tunable penalty weight: ``omega_na``, of a network attack."""

    omega_na: float = 200.0

    def __post_init__(self) -> None:
        _check_field("omega_na", self.omega_na, 0.0)

    def omega(self, kind: EventKind) -> float:
        if kind is EventKind.FALSE_CLAIM:
            return OMEGA_FC
        if kind is EventKind.CONTACT_VIOLATION:
            return OMEGA_SC
        return self.omega_na


@dataclass(frozen=True)
class CreditEvent:
    kind: EventKind
    tick: int


def proximity_credit(distance_m: float) -> float:
    """Score of a single contact at the given distance.

    Negative and growing like 1/L inside the immediate threshold, positive
    and linear beyond it. The simulation clamps each pair's distance to
    ``MIN_SEPARATION_M`` before scoring (see ``simulation._score_contacts``),
    so coincident agents score a finite floor; the raw function diverges as
    L approaches zero by design.
    """
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    return float(contact_scores(distance_m))


def contact_scores(distances: np.ndarray) -> np.ndarray:
    """Scores of many contacts at once, by the rule of ``proximity_credit``.

    Unlike that function it does not check its input: every distance must
    already be positive (clamped to ``MIN_SEPARATION_M``).
    """
    d = np.asarray(distances, dtype=float)
    return np.where(d < IMMEDIATE_THRESHOLD, -LAMBDA_MINUS / d, d / LAMBDA_PLUS)


def negative_credit(
    events: Iterable[CreditEvent], now: int, policy: CreditPolicy
) -> float:
    """Non-positive penalty sum, each event weighted by omega and 1/age."""
    total = 0.0
    for event in events:
        age = now - event.tick
        if age <= 0:
            raise TemporalOrderError(
                f"event at tick {event.tick} is not older than now={now}"
            )
        total -= policy.omega(event.kind) * DELTA_T / age
    return total

