"""Path-deviation geometry and summary metrics for traversal and aperture tests."""

from __future__ import annotations

import functools
import math
import warnings
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .core import Trajectory
from .errors import DataQualityWarning
from .stats import mean, mean_std

if TYPE_CHECKING:
    import numpy as np


class ReferencePath(NamedTuple):
    """Polyline the sUAS was asked to fly; closed paths include the closing edge."""

    vertices: tuple[tuple[float, float, float], ...]  # at least two, consecutive ones distinct
    closed: bool = False

    def segments(self) -> list[tuple[np.ndarray, np.ndarray]]:
        import numpy as np

        verts = [np.asarray(v) for v in self.vertices]
        segs = list(zip(verts, verts[1:]))
        if self.closed and tuple(self.vertices[0]) != tuple(self.vertices[-1]):
            segs.append((verts[-1], verts[0]))
        return segs


class DeviationSummary(NamedTuple):
    per_flight_ad: tuple[float, ...]
    mean_ad: float
    std_ad: float


def deviation_series(pos, path: ReferencePath) -> np.ndarray:
    """Distance from each row of `pos` (n x 3) to the nearest clamped path segment.

    One pass per segment over all samples, keeping a running minimum, so
    memory stays O(samples) whatever the path length.
    """
    import numpy as np

    pos = np.asarray(pos, dtype=float)
    best = np.full(len(pos), np.inf)
    for a, b in path.segments():
        np.minimum(best, segment_distance(pos, a, b, True), out=best)
    return best


def segment_distance(points, a, b, bounded: bool) -> np.ndarray:
    """Distance from each row of `points` to the segment a-b, or to the whole line through
    a and b when not `bounded`; a and b differ.

    The projection is taken on the unit direction and every length with `hypot`, which
    scales before it squares, so no finite distance overflows on the way.
    """
    import numpy as np

    ab = b - a
    length = math.hypot(*ab)
    s = (points - a) @ (ab / length) / length
    if bounded:
        s = np.clip(s, 0.0, 1.0)
    return functools.reduce(np.hypot, (points - (a + s[:, None] * ab)).T)


def average_deviation(traj: Trajectory, path: ReferencePath) -> float:
    """Mean per-sample deviation from the path, equal weight per recorded sample."""
    return mean(deviation_series(traj.pos, path).tolist())


def deviation_summary(flights: Sequence[tuple[Trajectory, ReferencePath]]) -> DeviationSummary:
    """Per-flight average deviation plus the mean and sample std across one or more flights."""
    ads = [average_deviation(traj, path) for traj, path in flights]
    if len(ads) == 1:
        warnings.warn("single flight: std reported as 0", DataQualityWarning)
    mean, std = mean_std(ads)
    return DeviationSummary(tuple(ads), mean, std)


def waypoint_error(final_pos: Sequence[float], waypoint: Sequence[float]) -> float:
    """Horizontal-plane distance between the landing point and the waypoint.

    Altitude is ignored: the vehicle has landed, so any z difference is
    tracker noise.
    """
    return math.dist(final_pos[:2], waypoint[:2])


def traversal_speed(length_m: float, duration_min: float) -> float:
    """Average speed in m/s from total length traversed and a positive duration in minutes."""
    return length_m / (duration_min * 60.0)
