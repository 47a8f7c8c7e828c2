import numpy as np

from decisive.core import Trajectory


def test_trajectory_stores_read_only_float_arrays():
    traj = Trajectory([0, 1], [[0, 0, 0], [1, 0, 0]], vel=[[1, 0, 0], [1, 0, 0]])
    for array in (traj.t, traj.pos, traj.vel):
        assert array.dtype == np.float64 and not array.flags.writeable
    assert traj.acc is None and len(traj) == 2
