import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decisive.core import Trajectory, apply_marker_offset


def make_traj(t, xs, **kwargs):
    pos = np.column_stack([xs, np.zeros(len(xs)), np.zeros(len(xs))])
    return Trajectory(t=np.asarray(t, float), pos=pos, **kwargs)


# grid-quantized coordinates: exact under add/subtract round trips
grid_floats = st.integers(min_value=-2**20, max_value=2**20).map(lambda n: n / 1024.0)


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


class TestMarkerOffset:
    def test_zero_offset_is_identity(self):
        traj = make_traj([0.0, 1.0], [1.0, 2.0])
        out = apply_marker_offset(traj)
        assert np.array_equal(out.pos, traj.pos)

    def test_pure_translation(self):
        traj = Trajectory(
            t=np.array([0.0, 1.0]),
            pos=np.array([[1.0, 2.0, 0.35], [1.0, 2.0, 0.35]]),
            marker_offset=(0.0, 0.0, 0.05),
        )
        out = apply_marker_offset(traj)
        assert out.pos[0][2] == pytest.approx(0.30)
        assert np.array_equal(out.t, traj.t)

    @given(
        xs=st.lists(grid_floats, min_size=2, max_size=8),
        offset=st.tuples(grid_floats, grid_floats, grid_floats),
    )
    def test_offset_then_negation_recovers_input_bitwise(self, xs, offset):
        traj = make_traj(list(range(len(xs))), xs, marker_offset=offset)
        forward = apply_marker_offset(traj)
        neg = Trajectory(
            t=forward.t, pos=forward.pos,
            marker_offset=tuple(-o for o in offset),
        )
        back = apply_marker_offset(neg)
        assert np.array_equal(back.pos, traj.pos)

    @given(
        xs=st.lists(grid_floats, min_size=3, max_size=8),
        offset=st.tuples(grid_floats, grid_floats, grid_floats),
    )
    def test_preserves_displacements_exactly(self, xs, offset):
        traj = make_traj(list(range(len(xs))), xs, marker_offset=offset)
        out = apply_marker_offset(traj)
        assert np.array_equal(np.diff(out.pos, axis=0), np.diff(traj.pos, axis=0))
