import numpy as np
import pytest

from proxichain.credit import (
    IMMEDIATE_THRESHOLD,
    MIN_SEPARATION_M,
    CreditEvent,
    CreditPolicy,
    EventKind,
    TemporalOrderError,
    contact_scores,
    negative_credit,
    proximity_credit,
)

POLICY = CreditPolicy()


class TestProximityGoldens:
    def test_one_meter(self):
        assert proximity_credit(1.0) == pytest.approx(-12.0, abs=1e-12)

    def test_four_meters(self):
        assert proximity_credit(4.0) == pytest.approx(2.0, abs=1e-12)

    def test_threshold_boundary_is_positive_branch(self):
        assert proximity_credit(2.0) == pytest.approx(1.0, abs=1e-12)

    def test_just_inside_threshold(self):
        assert proximity_credit(1.9) == pytest.approx(-12.0 / 1.9, abs=1e-12)

    def test_clamp_floor_score(self):
        assert proximity_credit(MIN_SEPARATION_M) == pytest.approx(-240.0, abs=1e-12)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            proximity_credit(0.0)
        with pytest.raises(ValueError):
            proximity_credit(-1.0)

    def test_vector_scores_follow_the_same_rule(self):
        distances = np.array([MIN_SEPARATION_M, 1.0, 1.9, 2.0, 4.0, 9.5])
        expected = [-12.0 / MIN_SEPARATION_M, -12.0, -12.0 / 1.9, 1.0, 2.0, 4.75]
        assert contact_scores(distances) == pytest.approx(expected, abs=1e-12)


class TestPenaltyGoldens:
    def test_false_claim_after_ten_ticks(self):
        events = [CreditEvent(EventKind.FALSE_CLAIM, tick=90)]
        assert negative_credit(events, now=100, policy=POLICY) == pytest.approx(-5.0, abs=1e-12)

    def test_contact_violation_after_four_ticks(self):
        events = [CreditEvent(EventKind.CONTACT_VIOLATION, tick=96)]
        assert negative_credit(events, now=100, policy=POLICY) == pytest.approx(-2.5, abs=1e-12)

    def test_network_attack_bites_hardest_when_fresh(self):
        events = [CreditEvent(EventKind.NETWORK_ATTACK, tick=99)]
        assert negative_credit(events, now=100, policy=POLICY) == pytest.approx(-200.0, abs=1e-12)

    def test_omega_mapping(self):
        assert POLICY.omega(EventKind.FALSE_CLAIM) == 50.0
        assert POLICY.omega(EventKind.CONTACT_VIOLATION) == 10.0
        assert POLICY.omega(EventKind.NETWORK_ATTACK) == 200.0

    def test_event_at_now_rejected(self):
        events = [CreditEvent(EventKind.FALSE_CLAIM, tick=100)]
        with pytest.raises(TemporalOrderError):
            negative_credit(events, now=100, policy=POLICY)

    def test_future_event_rejected(self):
        events = [CreditEvent(EventKind.FALSE_CLAIM, tick=200)]
        with pytest.raises(TemporalOrderError):
            negative_credit(events, now=100, policy=POLICY)


class TestProximityProperties:
    def test_strictly_monotone_in_distance(self):
        rng = np.random.default_rng(7)
        distances = np.sort(rng.uniform(MIN_SEPARATION_M, 12.0, size=10_000))
        scores = [proximity_credit(float(d)) for d in distances]
        diffs = np.diff(scores)
        assert np.all(diffs > 0)

    def test_sign_matches_threshold(self):
        rng = np.random.default_rng(8)
        distances = rng.uniform(MIN_SEPARATION_M, 12.0, size=10_000)
        for d in distances:
            score = proximity_credit(float(d))
            if d < IMMEDIATE_THRESHOLD:
                assert score < 0
            else:
                assert score > 0


class TestPenaltyProperties:
    def test_never_positive(self):
        rng = np.random.default_rng(11)
        kinds = list(EventKind)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            ticks = rng.integers(0, 1000, size=n)
            events = [CreditEvent(kinds[int(rng.integers(3))], int(t)) for t in ticks]
            assert negative_credit(events, now=1001, policy=POLICY) <= 0

    def test_decays_toward_zero_with_age(self):
        events = [CreditEvent(EventKind.NETWORK_ATTACK, tick=0)]
        magnitudes = [
            -negative_credit(events, now=now, policy=POLICY) for now in (1, 2, 5, 50, 500)
        ]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert magnitudes[-1] > 0
