"""Every record class that checks its values does so when it is built.

Each case builds one record with one bad value and expects the exception type
and message exactly, so that a check that moves or changes wording is caught.
"""

import math

import numpy as np
import pytest

from decisive.cfis import TriangularMf
from decisive.core import EnvironmentProfile, ObstacleGeometry, Trajectory, TrialRecord
from decisive.errors import DecisiveError
from decisive.field import Criterion, NlosPosition
from decisive.human_factors import SagatResponse, SeParams
from decisive.mapping import FiducialGroundTruth, FiducialObservation
from decisive.nav import ReferencePath
from decisive.ncap import Feature
from decisive.report import Column

T2, POS2 = [0.0, 1.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
TRIAL = ("t1", "nav-1", "alpha", "success")
SE = dict(se_id="se1", saliency=1.0, effort=1.0, expectancy=1.0, value=1.0)

CASES = [
    (lambda: TriangularMf(0.5, 0.2, 0.9, 0.0, 1.0), ValueError, "(0.5, 0.2, 0.9) not ordered"),
    (lambda: TriangularMf(0.0, 0.5, 2.0, 0.0, 1.0), ValueError,
     "(0.0, 0.5, 2.0) outside range [0.0, 1.0]"),
    (lambda: Trajectory([0.0], [[0.0, 0.0, 0.0]]), ValueError,
     "trajectory needs at least two samples"),
    (lambda: Trajectory([[0.0, 1.0]], POS2), ValueError, "trajectory needs at least two samples"),
    (lambda: Trajectory([0.0, math.nan], POS2), ValueError, "timestamps must be finite"),
    (lambda: Trajectory([1.0, 1.0], POS2), ValueError, "timestamps must be strictly increasing"),
    (lambda: Trajectory(T2, [[0.0, 0.0], [1.0, 0.0]]), ValueError, "pos must be an (n, 3) array"),
    (lambda: Trajectory(T2, [[0.0, 0.0, 0.0], [math.inf, 0.0, 0.0]]), ValueError,
     "pos must be finite"),
    (lambda: Trajectory(T2, POS2 + [[2.0, 0.0, 0.0]]), ValueError,
     "pos length must match timestamps"),
    (lambda: Trajectory(T2, POS2, vel=[[0.0, 0.0], [0.0, 0.0]]), ValueError,
     "vel must be an (n, 3) array"),
    (lambda: Trajectory(T2, POS2, vel=[[0.0, 0.0, 0.0]]), ValueError,
     "vel length must match timestamps"),
    (lambda: Trajectory(T2, POS2, acc=[[0.0, 0.0, math.nan]] * 2), ValueError,
     "acc must be finite"),
    (lambda: Trajectory(T2, POS2, acc=[[0.0, 0.0, 0.0]] * 3), ValueError,
     "acc length must match timestamps"),
    (lambda: ObstacleGeometry("sphere", (0.0, 0.0), (1.0, 0.0), 2.0), ValueError,
     "kind must be plane_segment or infinite_plane"),
    (lambda: ObstacleGeometry("plane_segment", (1.0, 2.0), (1.0, 2.0), 2.0), ValueError,
     "segment endpoints must differ"),
    (lambda: ObstacleGeometry("infinite_plane", (0.0, 0.0), (1.0, 0.0), 0.0), ValueError,
     "height must be positive"),
    (lambda: ObstacleGeometry("plane_segment", (0.0, 0.0), (1.0, 0.0), 2.0, "glass"), ValueError,
     "unknown obstacle material 'glass'"),
    (lambda: TrialRecord("t1", "nav-1", "alpha", "maybe"), ValueError,
     "outcome must be success or failure"),
    (lambda: TrialRecord(*TRIAL, collisions=-1), ValueError, "counts must be non-negative"),
    (lambda: TrialRecord(*TRIAL, rollovers=-1), ValueError, "counts must be non-negative"),
    (lambda: TrialRecord(*TRIAL, duration=-0.5), ValueError, "duration must be non-negative"),
    (lambda: EnvironmentProfile("dim"), ValueError, "lighting must be lighted or dark"),
    (lambda: EnvironmentProfile("lighted", lux=99.0), ValueError,
     "lighted requires measured lux >= 100"),
    (lambda: EnvironmentProfile("dark", lux=1.0), ValueError, "dark requires measured lux < 1"),
    (lambda: NlosPosition("0", 0.0), ValueError, "distance must be positive"),
    (lambda: NlosPosition("0", 5.0, connect="ok"), ValueError, "bad connect value 'ok'"),
    (lambda: NlosPosition("0", 5.0, fly="maybe"), ValueError, "bad fly value 'maybe'"),
    (lambda: Criterion("range_m", "between", 10), ValueError, "unknown criterion op 'between'"),
    *[(lambda name=name: SeParams(**{**SE, name: 0.0}), DecisiveError, f"se1: {name} must be > 0")
      for name in ("saliency", "effort", "expectancy", "value")],
    (lambda: SagatResponse("p1", "q1", "se1", 3, True), ValueError, "sa_level must be 1 or 2"),
    (lambda: FiducialObservation("A", 3), ValueError, "half must be 1 or 2"),
    (lambda: FiducialObservation("A", 1, (1.0, 2.0), "blurred"), ValueError,
     "bad mapped state 'blurred'"),
    (lambda: FiducialObservation("A", 1, None, "partial"), ValueError,
     "mapped fiducial halves need map coordinates"),
    (lambda: FiducialGroundTruth("A", (0.0, 0.0), 0.0, 1), ValueError,
     "min_traversal must be positive"),
    (lambda: FiducialGroundTruth("A", (0.0, 0.0), 4.0, -1), ValueError,
     "min_turns must be non-negative"),
    (lambda: ReferencePath([(0, 0, 0)]), ValueError, "path needs at least two vertices"),
    (lambda: ReferencePath([(0, 0, 0), (0.0, 0.0, 0.0)]), ValueError,
     "consecutive vertices must differ"),
    (lambda: Feature("range", "sideways"), ValueError, "bad direction 'sideways'"),
    (lambda: Column("share", "percent"), ValueError, "bad column kind 'percent'"),
]


@pytest.mark.parametrize("build, kind, message", CASES, ids=[c[2] for c in CASES])
def test_bad_value_fails_at_construction(build, kind, message):
    with pytest.raises(Exception) as caught:
        build()
    assert (caught.type, str(caught.value)) == (kind, message)


def test_constructors_coerce_what_they_store():
    path = ReferencePath([[0, 0, 1], [3, 0, 1]])
    assert path.vertices == ((0.0, 0.0, 1.0), (3.0, 0.0, 1.0))
    assert all(type(c) is float for v in path.vertices for c in v)
    traj = Trajectory([0, 1], [[0, 0, 0], [1, 0, 0]], vel=[[1, 0, 0], [1, 0, 0]])
    for array in (traj.t, traj.pos, traj.vel):
        assert array.dtype == np.float64 and not array.flags.writeable
    assert traj.acc is None and len(traj) == 2
