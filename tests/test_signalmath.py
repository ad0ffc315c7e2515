"""Signal-math unit and property tests.

The platoon clearance law is checked against an independent 1 ms numeric
integration of the same kinematics; scores and rewards are checked against
hand arithmetic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlight.signalmath import (
    DEFAULT_KINEMATICS,
    KinematicParams,
    MovementCounts,
    green_duration,
    n_pass,
    phase_score,
    platoon_clear_time,
    prcol,
    pressure,
    reward,
)


def vec(*values):
    return np.array(values)


def uniform(n_in, n_out, n_max, n=12):
    """The same counts on every movement, as one vector MovementCounts."""
    return MovementCounts(np.full(n, n_in), np.full(n, n_out), np.full(n, n_max))


def integrate_clear_time(n: int, k: KinematicParams = DEFAULT_KINEMATICS, dt: float = 1e-3) -> float:
    """Independent oracle: integrate the platoon kinematics at dt resolution."""
    if n == 0:
        return 0.0
    target = (n - 1) * (k.vehicle_length + k.min_gap) + k.vehicle_length
    x = 0.0
    v = 0.0
    t = 0.0
    while x < target:
        v = min(k.max_speed, v + k.accel * dt)
        x += v * dt
        t += dt
    return t


class TestPrcol:
    def test_partial_outgoing(self):
        assert prcol(MovementCounts(10, 20, 40)) == pytest.approx(5.0)

    def test_full_outgoing_is_zero(self):
        assert prcol(MovementCounts(7, 40, 40)) == 0.0

    def test_empty_outgoing_equals_demand(self):
        assert prcol(MovementCounts(12, 0, 40)) == pytest.approx(12.0)

    def test_overfull_outgoing_rejected(self):
        with pytest.raises(ValueError):
            MovementCounts(5, 41, 40)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MovementCounts(5, 0, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            MovementCounts(-1, 0, 40)

    def test_bounds_and_zero_conditions_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            n_max = int(rng.integers(1, 120))
            c = MovementCounts(
                n_in=int(rng.integers(0, 120)),
                n_out=int(rng.integers(0, n_max + 1)),
                n_max=n_max,
            )
            p = prcol(c)
            assert 0.0 <= p <= c.n_in
            assert (p == 0.0) == (c.n_in == 0 or c.n_out == c.n_max)

    @given(
        n_in=st.integers(1, 200),
        n_out=st.integers(0, 99),
        n_max=st.integers(100, 200),
    )
    def test_monotone_in_demand_and_space(self, n_in, n_out, n_max):
        base = prcol(MovementCounts(n_in, n_out, n_max))
        assert prcol(MovementCounts(n_in + 1, n_out, n_max)) > base
        assert prcol(MovementCounts(n_in, n_out + 1, n_max)) < base


class TestVectorCounts:
    def test_elementwise_equals_scalar(self):
        rng = np.random.default_rng(11)
        n_max = rng.integers(1, 60, 12)
        n_out = rng.integers(0, n_max + 1)
        n_in = rng.integers(0, 60, 12)
        counts = MovementCounts(n_in, n_out, n_max)
        for j in range(12):
            one = MovementCounts(int(n_in[j]), int(n_out[j]), int(n_max[j]))
            assert prcol(counts)[j] == prcol(one)
            assert pressure(counts)[j] == pressure(one)
            assert n_pass(counts)[j] == n_pass(one)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            MovementCounts(vec(3, -1, 0), vec(0, 0, 0), vec(40, 40, 40))
        with pytest.raises(ValueError, match="non-negative"):
            MovementCounts(vec(3, 1, 0), vec(0, 0, -2), vec(40, 40, 40))

    def test_one_overfull_element_rejected(self):
        with pytest.raises(ValueError, match="n_out=41 exceeds outgoing capacity n_max=40 at movement 1"):
            MovementCounts(vec(1, 1, 1), vec(0, 41, 40), vec(40, 40, 40))

    def test_zero_capacity_element_rejected(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            MovementCounts(vec(0, 0, 0), vec(0, 0, 0), vec(40, 0, 40))


class TestPressure:
    def test_positive(self):
        assert pressure(MovementCounts(10, 2, 40)) == 8.0

    def test_balanced(self):
        assert pressure(MovementCounts(4, 4, 40)) == 0.0

    def test_outgoing_heavy_is_negative(self):
        assert pressure(MovementCounts(0, 5, 40)) == -5.0


class TestPhaseScore:
    def test_pressure_sum(self):
        counts = MovementCounts(vec(10, 4), vec(2, 1), vec(40, 40))
        assert phase_score(counts, [[0, 1]], "pressure")[0] == pytest.approx(11.0)

    def test_prcol_sum(self):
        counts = MovementCounts(vec(10, 6), vec(20, 10), vec(40, 40))
        assert phase_score(counts, [[0, 1]], "prcol")[0] == pytest.approx(9.5)

    def test_all_zero(self):
        counts = uniform(0, 0, 40, n=2)
        assert phase_score(counts, [[0, 1]], "prcol")[0] == 0.0
        assert phase_score(counts, [[0, 1]], "pressure")[0] == 0.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            phase_score(uniform(0, 0, 40, n=2), [[0, 1]], "queue")


class TestNPass:
    def test_space_limited(self):
        assert n_pass(MovementCounts(15, 35, 40)) == 5

    def test_demand_limited(self):
        assert n_pass(MovementCounts(3, 0, 40)) == 3

    def test_capacity_limited(self):
        assert n_pass(MovementCounts(9, 40, 40)) == 0


class TestPlatoonClearTime:
    @pytest.mark.parametrize(
        "n,expected", [(1, 2.236), (10, 9.303), (20, 16.053)]
    )
    def test_reference_values(self, n, expected):
        assert platoon_clear_time(n) == pytest.approx(expected, abs=1e-3)

    def test_zero_vehicles(self):
        assert platoon_clear_time(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            platoon_clear_time(-1)

    def test_strictly_increasing(self):
        times = [platoon_clear_time(n) for n in range(0, 60)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_continuous_at_regime_boundary(self):
        # find the clearance distance where the speed cap starts to bind and
        # compare the two closed-form branches on either side of it
        k = DEFAULT_KINEMATICS
        boundary_dist = k.max_speed**2 / (2 * k.accel)
        sqrt_side = math.sqrt(2 * boundary_dist / k.accel)
        linear_side = k.max_speed / k.accel + 0.0 / k.max_speed
        assert sqrt_side == pytest.approx(linear_side, abs=1e-12)

    def test_against_numeric_integration(self):
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 100):
            assert platoon_clear_time(n) == pytest.approx(
                integrate_clear_time(n), abs=0.05
            )

    def test_other_kinematics_against_oracle(self):
        k = KinematicParams(accel=1.5, max_speed=8.0, vehicle_length=4.0, min_gap=2.0)
        for n in (1, 4, 16, 40):
            assert platoon_clear_time(n, k) == pytest.approx(
                integrate_clear_time(n, k), abs=0.05
            )


class TestGreenDuration:
    def _counts(self, worst: int) -> MovementCounts:
        # two movements, one of them demanding `worst` crossings
        return MovementCounts(vec(worst, 0), vec(0, 0), vec(max(worst, 1), 40))

    def test_heavy_queue_rounded_up(self):
        assert green_duration(self._counts(20), [0, 1], t_min=10, t_max=20) == 17

    def test_light_queue_clamped_up(self):
        assert green_duration(self._counts(1), [0, 1], t_min=10, t_max=20) == 10

    def test_huge_queue_clamped_down(self):
        assert green_duration(self._counts(30), [0, 1], t_min=10, t_max=20) == 20

    def test_no_demand_gets_minimum(self):
        assert green_duration(self._counts(30), [], t_min=10, t_max=20) == 10

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            green_duration(self._counts(0), [], t_min=20, t_max=10)

    @settings(max_examples=200)
    @given(worst=st.integers(0, 300))
    def test_always_within_bounds(self, worst):
        assert 10 <= green_duration(self._counts(worst), [0, 1], t_min=10, t_max=20) <= 20


class TestReward:
    def test_all_zero(self):
        counts = uniform(0, 0, 40)
        for kind in ("prcol", "pressure", "queue"):
            assert reward(counts, kind) == 0.0

    def test_prcol_reward(self):
        counts = uniform(10, 20, 40)
        assert reward(counts, "prcol") == pytest.approx(-60.0)

    def test_pressure_reward_absolute(self):
        counts = uniform(10, 2, 40)
        assert reward(counts, "pressure") == pytest.approx(-96.0)
        # outgoing-heavy sums are negative; the absolute convention flips them
        heavy_out = uniform(0, 5, 40)
        assert reward(heavy_out, "pressure") == pytest.approx(-60.0)

    def test_queue_reward(self):
        counts = uniform(3, 7, 40)
        assert reward(counts, "queue") == pytest.approx(-36.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            reward(uniform(0, 0, 40), "delay")

    def test_saturated_outgoing_divergence(self):
        # full outgoing lanes: the spillback-aware reward goes silent while
        # the pressure reward still pushes
        counts = uniform(10, 40, 40)
        assert reward(counts, "prcol") == 0.0
        assert reward(counts, "pressure") == pytest.approx(-360.0)


class TestKinematicParams:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            KinematicParams(accel=0.0, max_speed=10, vehicle_length=5, min_gap=2.5)

    def test_headway(self):
        assert DEFAULT_KINEMATICS.headway == 7.5


class TestArgmaxDegeneracy:
    def test_prcol_equals_demand_when_outgoing_empty(self):
        # with empty outgoing lanes the spillback-aware score reduces to the
        # incoming demand, so all three selection rules agree
        rng = np.random.default_rng(3)
        for _ in range(200):
            n_in = np.array([int(rng.integers(0, 30)) for _ in range(8)])
            counts = MovementCounts(n_in, np.zeros(8, dtype=int), np.full(8, 40))
            phases = [(2 * k, 2 * k + 1) for k in range(4)]
            prcol_scores = phase_score(counts, phases, "prcol")
            pressure_scores = phase_score(counts, phases, "pressure")
            demand = [counts.n_in[a] + counts.n_in[b] for a, b in phases]
            assert int(np.argmax(prcol_scores)) == int(np.argmax(pressure_scores)) == int(np.argmax(demand))
