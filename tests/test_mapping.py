import math

import pytest

from decisive.errors import DecisiveError
from decisive.mapping import (
    FiducialGroundTruth,
    FiducialObservation,
    difficulty_rating,
    dimensional_accuracy,
    fiducial_coverage,
    fov_coverage,
    global_error,
    shape_accuracy_rate,
)
from decisive.stats import mean_std

# labeled course: (fiducial, min traversal m, min turns, rating)
COURSE = [
    ("A", 11, 2, "M"),
    ("B", 8, 2, "L"),
    ("C", 35, 7, "H"),
    ("D", 5, 2, "L"),
    ("E", 12, 3, "M"),
    ("F", 7, 2, "L"),
    ("G", 27, 5, "H"),
    ("H", 7, 2, "L"),
    ("I", 16, 3, "M"),
    ("J", 10, 2, "L"),
]


class TestDimensionalAccuracy:
    def test_exact(self):
        assert dimensional_accuracy([2.0, 3.0], [2.0, 3.0]) == 100.0

    def test_compensating_errors(self):
        assert dimensional_accuracy([1.9, 2.1], [2.0, 2.0]) == pytest.approx(100.0)

    def test_short_dimensions(self):
        assert dimensional_accuracy([1.8, 1.8], [2.0, 2.0]) == pytest.approx(90.0)

class TestFovCoverage:
    def test_half(self):
        assert fov_coverage(2, 4) == 50.0

    def test_none(self):
        assert fov_coverage(0, 5) == 0.0

    def test_eleven_of_sixteen(self):
        assert fov_coverage(11, 16) == pytest.approx(68.75)

class TestShapeAccuracy:
    def test_seventy_percent(self):
        classes = ["complete", "complete", "complete", "shifted", "complete",
                   "complete", "incomplete", "complete", "shifted", "complete"]
        assert shape_accuracy_rate(classes) == pytest.approx(70.0)

    def test_extremes(self):
        assert shape_accuracy_rate(["complete"] * 4) == 100.0
        assert shape_accuracy_rate(["shifted"] * 3) == 0.0

def unit_square_truth():
    corners = [("A", (0.0, 0.0)), ("B", (1.0, 0.0)), ("C", (1.0, 1.0)), ("D", (0.0, 1.0))]
    return [FiducialGroundTruth(fid, xy, 5.0, 1) for fid, xy in corners]


def observations(points, mapped="complete"):
    return [FiducialObservation(fid, 1, xy, mapped) for fid, xy in points]


def oracle_global_error(map_pts, gt_pts):
    """Brute force over all pairs with independently coded scale fit."""
    ids = sorted(map_pts)
    pairs = [(i, j) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    num = 0.0
    den = 0.0
    for i, j in pairs:
        dm = math.dist(map_pts[ids[i]], map_pts[ids[j]])
        dg = math.dist(gt_pts[ids[i]], gt_pts[ids[j]])
        num += dm * dg
        den += dm * dm
    s = num / den
    total = 0.0
    for i, j in pairs:
        dm = math.dist(map_pts[ids[i]], map_pts[ids[j]])
        dg = math.dist(gt_pts[ids[i]], gt_pts[ids[j]])
        total += abs(s * dm - dg)
    return 100.0 * total / len(pairs)


class TestGlobalError:
    def test_scaled_identical_map(self):
        truth = unit_square_truth()
        for scale in (1.0, 37.5, 0.004):
            obs = observations([(g.fiducial_id, (g.gt_xy[0] * scale, g.gt_xy[1] * scale))
                                for g in truth])
            assert global_error(obs, truth) == pytest.approx(0.0, abs=1e-9)

    def test_rigid_motion_invariance(self):
        truth = unit_square_truth()
        theta = 0.6
        moved = []
        for g in truth:
            x, y = g.gt_xy
            moved.append((
                g.fiducial_id,
                (x * math.cos(theta) - y * math.sin(theta) + 5.0,
                 x * math.sin(theta) + y * math.cos(theta) - 2.0),
            ))
        assert global_error(observations(moved), truth) == pytest.approx(0.0, abs=1e-9)

    def test_perturbed_square_matches_oracle(self):
        truth = unit_square_truth()
        # push corner C 10 cm outward along the diagonal
        d = 0.1 / math.sqrt(2.0)
        map_pts = {"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (1.0 + d, 1.0 + d), "D": (0.0, 1.0)}
        gt_pts = {g.fiducial_id: g.gt_xy for g in truth}
        got = global_error(observations(sorted(map_pts.items())), truth)
        want = oracle_global_error(map_pts, gt_pts)
        assert got == pytest.approx(want, abs=1e-6)
        assert got > 0.0

    def test_too_few(self):
        truth = unit_square_truth()[:2]
        obs = observations([(g.fiducial_id, g.gt_xy) for g in truth])
        with pytest.raises(DecisiveError, match="need >= 3 matched fiducials, have 2"):
            global_error(obs, truth)


class TestFiducialCoverage:
    def test_eleven_of_twenty(self):
        truth = [FiducialGroundTruth(fid, (float(i), 0.0), 5.0, 1)
                 for i, (fid, *_rest) in enumerate(COURSE)]
        obs = []
        k = 0
        for fid, *_rest in COURSE:
            for half in (1, 2):
                if k < 11:
                    obs.append(FiducialObservation(fid, half, (0.0, 0.0), "partial"))
                k += 1
        assert fiducial_coverage(obs, truth) == pytest.approx(55.0)

    def test_all_and_none(self):
        truth = [FiducialGroundTruth("A", (0.0, 0.0), 5.0, 1)]
        both = [FiducialObservation("A", 1, (0, 0), "complete"),
                FiducialObservation("A", 2, (0, 0), "partial")]
        assert fiducial_coverage(both, truth) == 100.0
        assert fiducial_coverage([], truth) == 0.0


class TestDifficultyRating:
    @pytest.mark.parametrize("fid,traversal,turns,expected", COURSE)
    def test_labeled_course(self, fid, traversal, turns, expected):
        assert difficulty_rating(traversal, turns) == expected


class TestAcuitySummary:
    def test_mixed_levels(self):
        mean, std = mean_std([8, 8, 8, 20, 8, 8, 8, 8, 3])
        assert mean == pytest.approx(8.78, abs=0.01)
        assert std == pytest.approx(4.52, abs=0.01)

    def test_single_value(self):
        assert mean_std([3.0]) == (3.0, 0.0)

    def test_extreme_pair(self):
        mean, std = mean_std([20, 0.5])
        assert mean == pytest.approx(10.25)
        assert std == pytest.approx(13.789, abs=1e-3)

