import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from decisive.core import Trajectory
from decisive.nav import (
    ReferencePath,
    average_deviation,
    deviation_series,
    deviation_summary,
    segment_distance,
    traversal_speed,
    waypoint_error,
)
from decisive.stats import mean_std


def one_row(p, path: ReferencePath) -> float:
    """`deviation_series` of the one sample `p`."""
    return float(deviation_series(np.asarray(p, float)[None, :], path)[0])


def traj_from_xyz(points):
    points = np.asarray(points, float)
    return Trajectory(t=np.arange(len(points), dtype=float), pos=points)


def dense_oracle_distance(p, path: ReferencePath, step=0.001):
    """Distance via brute-force dense sampling of the path at 1 mm steps."""
    p = np.asarray(p, float)
    best = math.inf
    for a, b in path.segments():
        length = np.linalg.norm(b - a)
        n = max(2, int(math.ceil(length / step)) + 1)
        ts = np.linspace(0.0, 1.0, n)
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        best = min(best, float(np.min(np.linalg.norm(pts - p, axis=1))))
    return best


def scalar_deviation(p, path: ReferencePath) -> float:
    """One point, one segment at a time: the clamped projection, written out in scalars."""
    p = np.asarray(p, float)
    best = math.inf
    for a, b in path.segments():
        ab = b - a
        s = min(max(float((p - a) @ ab) / float(ab @ ab), 0.0), 1.0)
        best = min(best, float(np.linalg.norm(p - (a + s * ab))))
    return best


class TestDeviationSeries:
    def test_matches_scalar_oracle_on_random_paths(self):
        rng = np.random.default_rng(23)
        paths = closed = 0
        while paths < 120:
            verts = rng.uniform(-3, 3, size=(rng.integers(2, 7), 3))
            try:
                path = ReferencePath(tuple(map(tuple, verts)), closed=bool(rng.integers(2)))
            except ValueError:
                continue
            paths += 1
            closed += path.closed
            (a0, b0), (a1, b1) = path.segments()[0], path.segments()[-1]
            beyond = np.concatenate([
                a0 - rng.uniform(0.1, 2.0, (10, 1)) * (b0 - a0),  # before the first segment
                b1 + rng.uniform(0.1, 2.0, (10, 1)) * (b1 - a1),  # past the last one
            ])
            pos = np.concatenate([rng.uniform(-5, 5, size=(60, 3)), beyond, verts])
            got = deviation_series(pos, path)
            want = np.array([scalar_deviation(p, path) for p in pos])
            assert got.shape == (len(pos),)
            assert np.max(np.abs(got - want)) <= 1e-12
        assert 0 < closed < paths

    def test_one_row_matches_the_batch(self):
        path = ReferencePath(((0, 0, 1), (3, 0, 1), (3, 2, 1)), closed=True)
        pos = np.random.default_rng(4).uniform(-1, 4, size=(25, 3))
        one_rows = [one_row(p, path) for p in pos]
        # a batch may round differently from one row in the last place
        assert np.allclose(one_rows, deviation_series(pos, path), rtol=0, atol=1e-12)

    def test_no_samples(self):
        path = ReferencePath(((0, 0, 0), (1, 0, 0)))
        assert deviation_series(np.empty((0, 3)), path).shape == (0,)


def squared_projection(points, a, b, bounded):
    """The per-segment formula the kernel replaced: the projection over the squared length
    and `np.linalg.norm` of the residual. Exact in arithmetic; it overflows or underflows
    where the squares leave the float range."""
    ab = b - a
    s = (points - a) @ ab / (ab @ ab)
    if bounded:
        s = np.clip(s, 0.0, 1.0)
    return np.linalg.norm(points - (a + s[:, None] * ab), axis=1)


#: coordinates on a 1/64 grid within +-1,000, so no square the reference takes leaves the
#: normal range and every power-of-two scale below is exact
GRID = st.integers(-64_000, 64_000).map(lambda i: i / 64)
POINT = st.tuples(GRID, GRID, GRID)


@st.composite
def path_and_samples(draw):
    """A path, free, collinear or zig-zag and maybe closed, and samples: free points, every
    vertex, and one far-away point repeated."""
    n = draw(st.integers(2, 6))
    shape = draw(st.sampled_from(["free", "collinear", "zigzag"]))
    if shape == "free":
        verts = draw(st.lists(POINT, min_size=n, max_size=n))
    else:
        a, d = np.array(draw(POINT)), np.array(draw(POINT))
        steps = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
        verts = [a + k * d for k in steps]
        if shape == "zigzag":
            verts = [v + (k % 2) * np.array([0.0, 0.0, 5.0]) for k, v in enumerate(verts)]
    verts = [tuple(map(float, v)) for v in verts]
    assume(all(u != v for u, v in zip(verts, verts[1:])))
    path = ReferencePath(tuple(verts), closed=draw(st.booleans()))
    far = np.array(draw(POINT)) + 2.0 ** 20
    samples = (draw(st.lists(POINT, max_size=10)) + list(verts)
               + [tuple(far)] * draw(st.integers(1, 3)))
    return path, np.array(samples, dtype=float)


class TestSegmentDistance:
    @given(path_and_samples(), st.integers(-900, 900))
    def test_matches_the_squared_projection_and_scales_exactly(self, drawn, power):
        """Within a few ulps of the magnitudes involved, bounded and unbounded; and a
        power-of-two scale of every input scales every distance by exactly that power."""
        path, points = drawn
        k = 2.0 ** power
        for a, b in path.segments():
            for bounded in (True, False):
                got = segment_distance(points, a, b, bounded)
                want = squared_projection(points, a, b, bounded)
                magnitude = np.linalg.norm(points - a, axis=1) + np.linalg.norm(b - a)
                assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * magnitude)
                scaled = segment_distance(k * points, k * a, k * b, bounded)
                assert np.array_equal(scaled, k * got)

    def test_unbounded_measures_to_the_line(self):
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        points = np.array([[5.0, 2.0], [-3.0, -1.0]])
        assert segment_distance(points, a, b, False).tolist() == [2.0, 1.0]
        assert segment_distance(points, a, b, True) == pytest.approx([math.hypot(4, 2),
                                                                      math.hypot(3, 1)])

    def test_a_huge_but_finite_distance_stays_finite(self):
        a, b = np.array([0.0, 1.0, 1.0]), np.array([3.0, 1.0, 1.0])
        points = np.array([[1e200, 1.0, 1.0], [1e308, 1e308, 1.0]])
        got = segment_distance(points, a, b, True)
        assert got[0] == pytest.approx(1e200)
        assert got[1] == pytest.approx(math.hypot(1e308, 1e308))


class TestOneSampleDeviation:
    def test_point_on_vertex(self):
        path = ReferencePath(((0, 0, 1), (3, 0, 1)))
        assert one_row((0, 0, 1), path) == 0.0

    def test_perpendicular_offset(self):
        path = ReferencePath(((0, 0, 1), (3, 0, 1)))
        assert one_row((1.5, 0.2, 1), path) == pytest.approx(0.2)

    def test_beyond_endpoint_clamps(self):
        path = ReferencePath(((0, 0, 0), (1, 0, 0)))
        assert one_row((2, 0, 0), path) == pytest.approx(1.0)

    def test_closed_path_includes_closing_segment(self):
        square = ReferencePath(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)), closed=True)
        # nearest geometry is the closing segment x=0
        assert one_row((-0.2, 0.5, 0), square) == pytest.approx(0.2)

    def test_matches_dense_sampling_oracle(self):
        rng = np.random.default_rng(11)
        cases = 0
        for _ in range(20):
            n_verts = rng.integers(2, 6)
            verts = rng.uniform(-2, 2, size=(n_verts, 3))
            verts[:, 2] = rng.uniform(0, 2)  # keep altitudes sane
            try:
                path = ReferencePath(tuple(map(tuple, verts)), closed=bool(rng.integers(2)))
            except ValueError:
                continue
            for _ in range(50):
                p = rng.uniform(-3, 3, size=3)
                got = one_row(p, path)
                want = dense_oracle_distance(p, path)
                assert abs(got - want) < 1e-3
                cases += 1
        assert cases >= 900

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        verts = rng.uniform(-1, 1, size=(4, 3))
        path = ReferencePath(tuple(map(tuple, verts)))
        p = rng.uniform(-1, 1, size=3)
        base = one_row(p, path)

        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta), 0.0],
             [math.sin(theta), math.cos(theta), 0.0],
             [0.0, 0.0, 1.0]]
        )
        shift = np.array([3.0, -2.0, 0.5])
        moved_path = ReferencePath(tuple(map(tuple, verts @ rot.T + shift)))
        moved = one_row(rot @ p + shift, moved_path)
        assert moved == pytest.approx(base, abs=1e-9)


class TestAverageDeviation:
    def test_on_path(self):
        path = ReferencePath(((0, 0, 1), (3, 0, 1)))
        traj = traj_from_xyz([(0, 0, 1), (1, 0, 1), (2, 0, 1)])
        assert average_deviation(traj, path) == 0.0

    def test_constant_offset(self):
        path = ReferencePath(((0, 0, 1), (3, 0, 1)))
        xs = np.linspace(0, 3, 20)
        traj = traj_from_xyz([(x, 0.1, 1) for x in xs])
        assert average_deviation(traj, path) == pytest.approx(0.1, abs=1e-9)

    def test_two_halves(self):
        path = ReferencePath(((0, 0, 0), (4, 0, 0)))
        half_a = [(x, 0.1, 0) for x in np.linspace(0.0, 1.9, 10)]
        half_b = [(x, 0.3, 0) for x in np.linspace(2.0, 4.0, 10)]
        traj = traj_from_xyz(half_a + half_b)
        assert average_deviation(traj, path) == pytest.approx(0.2)

    def test_bounded_by_max_point_deviation(self):
        rng = np.random.default_rng(9)
        path = ReferencePath(((0, 0, 0), (5, 0, 0)))
        traj = traj_from_xyz(rng.uniform(-1, 1, size=(30, 3)))
        ad = average_deviation(traj, path)
        worst = max(one_row(p, path) for p in traj.pos)
        assert 0.0 <= ad <= worst


class TestDeviationSummary:
    def test_hand_computed(self):
        path = ReferencePath(((0, 0, 0), (3, 0, 0)))
        flights = [
            (traj_from_xyz([(x, off, 0) for x in (0, 1, 2, 3)]), path)
            for off in (0.1, 0.2, 0.3)
        ]
        summary = deviation_summary(flights)
        assert summary.per_flight_ad == pytest.approx((0.1, 0.2, 0.3))
        assert summary.mean_ad == pytest.approx(0.2)
        assert summary.std_ad == pytest.approx(0.1)

    def test_single_flight_warns(self):
        path = ReferencePath(((0, 0, 0), (3, 0, 0)))
        with pytest.warns(UserWarning):
            summary = deviation_summary([(traj_from_xyz([(0, 0, 0), (1, 0, 0)]), path)])
        assert summary.std_ad == 0.0

    def test_identical_flights(self):
        path = ReferencePath(((0, 0, 0), (3, 0, 0)))
        flights = [
            (traj_from_xyz([(x, 0.2, 0) for x in (0, 1, 2, 3)]), path) for _ in range(5)
        ]
        assert deviation_summary(flights).std_ad == pytest.approx(0.0)


class TestWaypoint:
    def test_on_waypoint(self):
        assert waypoint_error((1, 2, 0), (1, 2, 0)) == 0.0

    def test_altitude_ignored(self):
        assert waypoint_error((1, 2, 0.4), (1, 2, 0.0)) == 0.0

    def test_symmetric_landings(self):
        errors = [
            waypoint_error((0.1, 0, 0), (0, 0, 0)),
            waypoint_error((-0.1, 0, 0), (0, 0, 0)),
        ]
        accuracy, precision = mean_std(errors)
        assert accuracy == pytest.approx(0.1)
        assert precision == pytest.approx(0.0)


class TestTraversalSpeed:
    def test_aperture_example(self):
        assert traversal_speed(39.0, 5.0) == pytest.approx(0.13)

    def test_zero_length(self):
        assert traversal_speed(0.0, 5.0) == 0.0

    def test_arithmetic(self):
        assert traversal_speed(13.0, 1.0) == pytest.approx(0.21667, abs=1e-4)

