import math

import numpy as np
import pytest

from decisive.core import Trajectory


def make_traj(t, xs):
    pos = np.column_stack([xs, np.zeros(len(xs)), np.zeros(len(xs))])
    return Trajectory(t=np.asarray(t, float), pos=pos)


class TestTrajectoryInvariants:
    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(ValueError):
            make_traj([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            make_traj([0.0, 2.0, 1.0], [0.0, 1.0, 2.0])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            make_traj([0.0], [0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_traj([0.0, 1.0], [0.0, math.nan])
        with pytest.raises(ValueError):
            make_traj([0.0, math.inf], [0.0, 1.0])

