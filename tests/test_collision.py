import math

import numpy as np
import pytest

from decisive import collision
from hypothesis import given
from hypothesis import strategies as st

from decisive.collision import (
    STATIONARY_SPEED,
    aggregate_flights,
    category_distribution,
    derive_kinematics,
    distance_to_obstacle,
    flight_metrics,
    masi,
    max_delta_v,
)
from decisive.core import CR_CATEGORIES, OA_CATEGORIES, ObstacleGeometry, Trajectory, TrialRecord
from decisive.errors import DecisiveError

WALL = ObstacleGeometry("plane_segment", (0.0, 0.0), (3.0, 0.0), height=2.0, material="wall")


def traj(t, pos, vel=None, acc=None):
    return Trajectory(
        t=np.asarray(t, float),
        pos=np.asarray(pos, float),
        vel=None if vel is None else np.asarray(vel, float),
        acc=None if acc is None else np.asarray(acc, float),
    )


def approach_traj(speed=0.5, start=1.0, dt=0.05, stop=0.05):
    """Straight approach toward the wall along -y at constant speed."""
    ts, ys = [], []
    y = start
    t = 0.0
    while y > stop:
        ts.append(t)
        ys.append(y)
        t += dt
        y -= speed * dt
    pos = [(1.0, y, 1.0) for y in ys]
    vel = [(0.0, -speed, 0.0)] * len(ys)
    return traj(ts, pos, vel)


class TestDistanceToObstacle:
    def test_on_the_plane(self):
        t = traj([0, 1], [(1.0, 0.0, 1.0), (1.0, 0.5, 1.0)])
        series, minimum = distance_to_obstacle(t, WALL)
        assert minimum == 0.0

    def test_platform_a_aggregate(self):
        minima = [0.0, 0.0, 0.32, 0.24, 0.26]
        assert aggregate_flights(minima) == pytest.approx(0.164)

    def test_against_dense_mesh_oracle(self):
        rng = np.random.default_rng(23)
        # brute-force: sample the obstacle rectangle on a 1 mm grid edge points
        us = np.linspace(0.0, 1.0, 3001)
        zs = np.linspace(0.0, WALL.height, 2001)
        p0 = np.array(WALL.p0)
        p1 = np.array(WALL.p1)
        for _ in range(25):
            p = rng.uniform(-1, 4, size=3)
            t = traj([0, 1], [p, p + [1e-9, 0.0, 0.0]])
            _, got = distance_to_obstacle(t, WALL)
            # plan distance to segment samples, then hypot with vertical gap
            seg_pts = p0[None, :] + us[:, None] * (p1 - p0)[None, :]
            plan = np.min(np.linalg.norm(seg_pts - p[:2], axis=1))
            vert = np.min(np.abs(zs - p[2]))
            if 0.0 <= p[2] <= WALL.height:
                vert = 0.0
            want = math.hypot(plan, vert)
            assert abs(got - want) < 1e-3

    def test_infinite_plane_ignores_endpoints(self):
        wall = ObstacleGeometry("infinite_plane", (0.0, 0.0), (1.0, 0.0), height=2.0)
        t = traj([0, 1], [(50.0, 0.3, 1.0), (50.0, 0.3, 1.0 + 1e-9)])
        _, minimum = distance_to_obstacle(t, wall)
        assert minimum == pytest.approx(0.3)

    def test_crossing_trajectory_reaches_zero(self):
        t = traj([0, 1, 2], [(1.0, 0.5, 1.0), (1.0, 0.0, 1.0), (1.0, -0.5, 1.0)])
        _, minimum = distance_to_obstacle(t, WALL)
        assert minimum == 0.0


def oracle_min_ttc(flight, obstacle):
    """Minimum time to collision from the definition: each sample's obstacle distance
    over its speed, samples slower than STATIONARY_SPEED left out."""
    distances, _ = distance_to_obstacle(flight, obstacle)
    vel = (flight if flight.vel is not None else derive_kinematics(flight)).vel
    speeds = np.linalg.norm(vel, axis=1)
    ratios = [d / v for d, v in zip(distances, speeds) if v >= STATIONARY_SPEED]
    if not ratios:
        raise DecisiveError("no sample moves faster than the stationary cutoff")
    return float(min(ratios))


class TestMinTtc:
    def test_constant_approach(self):
        flight = approach_traj(speed=0.5, start=1.0)
        ttc = flight_metrics(flight, WALL).min_ttc
        assert ttc == oracle_min_ttc(flight, WALL)
        # last pre-contact sample sits just above the stop height
        assert ttc < 0.2
        first = distance_to_obstacle(flight, WALL)[0][0] / 0.5
        assert first == pytest.approx(2.0)

    def test_platform_a_aggregate(self):
        minima = [0.0, 0.0, 0.5, 0.2, 0.8]
        assert aggregate_flights(minima) == pytest.approx(0.3)

    def test_hover_only_is_all_stationary(self):
        pos = [(1.0, 0.5, 1.0)] * 5
        vel = [(0.0, 0.0, 0.0)] * 5
        flight = traj(range(5), pos, vel)
        with pytest.raises(DecisiveError, match="no sample moves faster"):
            oracle_min_ttc(flight, WALL)
        with pytest.raises(DecisiveError, match="no sample moves faster"):
            flight_metrics(flight, WALL)

    def test_collision_flight_scores_zero(self):
        flight = approach_traj()
        m = flight_metrics(flight, WALL, collided=True)
        assert (m.min_ttc, m.min_distance) == (0.0, 0.0)

    def test_min_never_exceeds_single_sample_ratio(self):
        flight = approach_traj(speed=0.7, start=1.5)
        series, _ = distance_to_obstacle(flight, WALL)
        got = flight_metrics(flight, WALL).min_ttc
        for d, in zip(series):
            assert got <= d / 0.7 + 1e-12


def one_call_per_metric(flight, obstacle, collided, t_collision):
    """The table row as separate calls, each deriving what it lacks."""
    try:
        return (
            0.0 if collided else distance_to_obstacle(flight, obstacle)[1],
            0.0 if collided else oracle_min_ttc(flight, obstacle),
            masi(flight),
            None if t_collision is None else max_delta_v(flight, t_collision),
        )
    except DecisiveError as exc:
        return type(exc), str(exc)


class TestFlightMetrics:
    APPROACH = approach_traj(speed=0.6, start=1.2, dt=0.05)

    def variant(self, n, kinematics):
        """The first n samples of APPROACH, keeping vel and/or a made-up acc."""
        a = self.APPROACH
        acc = np.tile([0.0, 0.4, 0.0], (n, 1))
        return Trajectory(t=a.t[:n], pos=a.pos[:n],
                          vel=a.vel[:n] if "vel" in kinematics else None,
                          acc=acc if "acc" in kinematics else None)

    @pytest.mark.parametrize("n", [2, 3, 30])
    @pytest.mark.parametrize("kinematics", ["", "vel", "acc", "vel+acc"])
    @pytest.mark.parametrize("collided, t_collision", [
        (False, None), (False, 0.06), (True, None), (True, 0.06), (True, 9.0)])
    def test_same_values_and_errors_with_one_derivation(
            self, n, kinematics, collided, t_collision, monkeypatch):
        flight = self.variant(n, kinematics)
        want = one_call_per_metric(flight, WALL, collided, t_collision)
        calls = {"distance": 0, "derive": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(collision, "distance_to_obstacle",
                            counted("distance", distance_to_obstacle))
        monkeypatch.setattr(collision, "derive_kinematics",
                            counted("derive", derive_kinematics))
        try:
            m = flight_metrics(flight, WALL, collided, t_collision)
            got = (m.min_distance, m.min_ttc, m.severity, m.delta_v)
        except DecisiveError as exc:
            got = type(exc), str(exc)
        assert got == want
        assert calls["distance"] == (0 if collided else 1)
        assert calls["derive"] <= 1

    def test_positions_only_two_samples_is_insufficient(self):
        with pytest.raises(DecisiveError, match="differentiation needs at least 3 samples"):
            flight_metrics(self.variant(2, ""), WALL)

    def test_stationary_error_comes_before_missing_acceleration(self):
        hover = Trajectory(t=np.array([0.0, 1.0]), pos=np.array([[1.0, 0.5, 1.0]] * 2),
                           vel=np.zeros((2, 3)))
        with pytest.raises(DecisiveError, match="no sample moves faster"):
            flight_metrics(hover, WALL)


class TestMasi:
    def test_constant_deceleration(self):
        # braking at 1.96 m/s^2: severity 1.96 / 9.8 = 0.2
        t = np.arange(0, 2.01, 0.05)
        vel = np.column_stack([1.0 - 1.96 * t, np.zeros_like(t), np.zeros_like(t)])
        pos = np.column_stack([t - 0.98 * t**2, np.zeros_like(t), np.zeros_like(t)])
        flight = traj(t, pos, vel)
        assert masi(flight) == pytest.approx(0.2, abs=1e-6)

    def test_zero_acceleration(self):
        t = np.arange(0, 1.01, 0.1)
        pos = np.column_stack([t, np.zeros_like(t), np.zeros_like(t)])
        vel = np.column_stack([np.ones_like(t), np.zeros_like(t), np.zeros_like(t)])
        assert masi(traj(t, pos, vel)) == pytest.approx(0.0, abs=1e-9)

    def test_platform_a_aggregate(self):
        per_flight = [0.17, 0.2, 0.14, 0.15, 0.16]
        assert aggregate_flights(per_flight) == pytest.approx(0.164)

    def test_vertical_excluded(self):
        t = np.arange(0, 1.01, 0.1)
        acc = np.column_stack([np.zeros_like(t), np.zeros_like(t), 5.0 * np.ones_like(t)])
        pos = np.column_stack([t, np.zeros_like(t), np.zeros_like(t)])
        flight = traj(t, pos, acc=acc)
        assert masi(flight) == pytest.approx(0.0)

    @given(theta=st.floats(0, 2 * math.pi))
    def test_rotation_invariance(self, theta):
        t = np.arange(0, 1.01, 0.1)
        acc = np.column_stack([1.5 * np.ones_like(t), 0.8 * np.ones_like(t), np.zeros_like(t)])
        rot = np.array(
            [[math.cos(theta), -math.sin(theta), 0],
             [math.sin(theta), math.cos(theta), 0],
             [0, 0, 1]]
        )
        pos = np.column_stack([t, np.zeros_like(t), np.zeros_like(t)])
        base = masi(traj(t, pos, acc=acc))
        rotated = masi(traj(t, pos @ rot.T, acc=acc @ rot.T))
        assert rotated == pytest.approx(base, abs=1e-9)


class TestMaxDeltaV:
    def make_step_flight(self, rate_hz=20.0, step=-0.5, t_c=1.0):
        dt = 1.0 / rate_hz
        t = np.arange(0.0, 2.0 + dt / 2, dt)
        vy = np.where(t <= t_c, 1.0, 1.0 + step)
        vel = np.column_stack([np.zeros_like(t), vy, np.zeros_like(t)])
        pos = np.column_stack([np.zeros_like(t), np.cumsum(vy) * dt, np.ones_like(t)])
        return traj(t, pos, vel)

    def test_velocity_step(self):
        flight = self.make_step_flight()
        assert max_delta_v(flight, t_c=1.0) == pytest.approx(0.5, abs=1e-6)

    def test_constant_velocity(self):
        flight = self.make_step_flight(step=0.0)
        assert max_delta_v(flight, t_c=1.0) == pytest.approx(0.0)

    def test_platform_a_aggregate(self):
        per_flight = [0.7, 0.8, 1.2, 0.8, 1.1]
        assert aggregate_flights(per_flight) == pytest.approx(0.92)

    def test_rate_too_low(self):
        flight = self.make_step_flight(rate_hz=5.0)
        with pytest.raises(DecisiveError, match="need >= 10 Hz sampling"):
            max_delta_v(flight, t_c=1.0)

    def test_collision_outside_span(self):
        flight = self.make_step_flight()
        with pytest.raises(DecisiveError, match=r"t_c=5.0 outside \["):
            max_delta_v(flight, t_c=5.0)

    @given(shift=st.floats(-3, 3))
    def test_galilean_invariance(self, shift):
        flight = self.make_step_flight()
        shifted = traj(flight.t, flight.pos, flight.vel + np.array([0.0, shift, 0.0]))
        assert max_delta_v(shifted, t_c=1.0) == pytest.approx(
            max_delta_v(flight, t_c=1.0), abs=1e-9
        )


class TestDeriveKinematics:
    def test_linear_position(self):
        t = np.arange(0, 1.01, 0.1)
        pos = np.column_stack([2.0 * t, np.zeros_like(t), np.zeros_like(t)])
        out = derive_kinematics(traj(t, pos))
        assert np.allclose(out.vel[:, 0], 2.0)
        assert np.allclose(out.acc, 0.0, atol=1e-9)

    def test_quadratic_position(self):
        t = np.arange(0, 2.01, 0.05)
        pos = np.column_stack([t**2, np.zeros_like(t), np.zeros_like(t)])
        out = derive_kinematics(traj(t, pos))
        # the ends take one-sided differences, and the width-5 average spreads them two samples in
        assert np.allclose(out.acc[4:-4, 0], 2.0, atol=1e-6)

    def test_insufficient_samples(self):
        with pytest.raises(DecisiveError, match="differentiation needs at least 3 samples"):
            derive_kinematics(traj([0, 1], [(0, 0, 0), (1, 0, 0)]))


def make_trial(i, collisions=0, oa=None, cr=None, test="oa-wall"):
    return TrialRecord(
        trial_id=f"t{i}", test_id=test, suas_id="alpha", outcome="success",
        collisions=collisions, oa_category=oa, cr_category=cr,
    )


def by_test(trial):
    return trial.test_id


class TestCategoryDistribution:
    def test_all_same(self):
        trials = [make_trial(i, oa="OA-A1") for i in range(5)]
        dist = category_distribution(trials, "oa_category", OA_CATEGORIES, by_test)
        assert dist["oa-wall"]["OA-A1"] == 100.0

    def test_split(self):
        trials = [make_trial(i, cr="CR-A1") for i in range(4)]
        trials.append(make_trial(9, cr="CR-C1"))
        dist = category_distribution(trials, "cr_category", CR_CATEGORIES, by_test)
        assert dist["oa-wall"]["CR-A1"] == pytest.approx(80.0)
        assert dist["oa-wall"]["CR-C1"] == pytest.approx(20.0)

    def test_rows_sum_to_100(self):
        trials = [
            make_trial(i, oa=cat)
            for i, cat in enumerate(["OA-A1", "OA-A1", "OA-B2", "OA-B4", "OA-C1", "OA-A1", "OA-B1"])
        ]
        dist = category_distribution(trials, "oa_category", OA_CATEGORIES, by_test)
        assert sum(dist["oa-wall"].values()) == pytest.approx(100.0, abs=0.5)

