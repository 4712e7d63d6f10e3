"""Proximity-based credit scoring with decaying penalties.

A node's total credit is the sum of two parts. The proximity part rewards
keeping distance: every observed contact closer than the immediate threshold
subtracts ``lambda_minus / distance``, every contact at or beyond it adds
``distance / lambda_plus``. The penalty part is always non-positive and
decays hyperbolically with event age, so one misbehavior event dominates
recent history but fades instead of banning a node forever.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
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
    if not (integer or math.isfinite(value)) or not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")


@dataclass(frozen=True)
class CreditPolicy:
    """Coefficients of the scoring rules; all tunable per deployment."""

    lambda_minus: float = 12.0
    lambda_plus: float = 2.0
    omega_fc: float = 50.0
    omega_sc: float = 10.0
    omega_na: float = 200.0
    delta_t: float = 1.0
    alpha_d: float = 0.0
    immediate_threshold: float = 2.0

    def __post_init__(self) -> None:
        for f in fields(self):
            low = -math.inf if f.name == "alpha_d" else 0.0
            _check_field(f.name, getattr(self, f.name), low)
        if self.lambda_plus == 0:
            raise ValueError("lambda_plus must be positive")

    def omega(self, kind: EventKind) -> float:
        if kind is EventKind.FALSE_CLAIM:
            return self.omega_fc
        if kind is EventKind.CONTACT_VIOLATION:
            return self.omega_sc
        return self.omega_na


@dataclass(frozen=True)
class CreditEvent:
    kind: EventKind
    tick: int


def proximity_credit(distance_m: float, policy: CreditPolicy) -> float:
    """Score of a single contact at the given distance.

    Negative and growing like 1/L inside the immediate threshold, positive
    and linear beyond it. Measured distances are clamped to
    ``MIN_SEPARATION_M`` before scoring (see ``simulation._score_contacts``);
    the raw function diverges as L approaches zero by design.
    """
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    return float(contact_scores(distance_m, policy))


def contact_scores(distances: np.ndarray, policy: CreditPolicy) -> np.ndarray:
    """Scores of many contacts at once, by the rule of ``proximity_credit``.

    Unlike that function it does not check its input: every distance must
    already be positive (clamped to ``MIN_SEPARATION_M``).
    """
    d = np.asarray(distances, dtype=float)
    return np.where(
        d < policy.immediate_threshold, -policy.lambda_minus / d, d / policy.lambda_plus
    )


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
        total -= policy.omega(event.kind) * policy.delta_t / age
    return total

