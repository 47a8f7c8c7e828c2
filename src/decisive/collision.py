"""Obstacle-avoidance and collision-resilience numerics.

Per-flight metrics (minimum obstacle distance, minimum time-to-collision,
acceleration severity, post-collision velocity change) plus the categorical
distribution tables. Flight-set aggregation is the mean of per-flight values
throughout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .core import ObstacleGeometry, Trajectory, TrialRecord
from .errors import DecisiveError
from .nav import segment_distance
from .stats import mean

if TYPE_CHECKING:
    import numpy as np

GRAVITY = 9.8  # m/s^2

#: speed below which a sample is treated as stationary for TTC purposes;
#: dividing by near-zero hover speeds would blow the index up
STATIONARY_SPEED = 0.05  # m/s

#: seconds after the collision over which the velocity change is taken
DELTA_V_WINDOW = 0.3

#: odd width of the moving average smoothing a differentiated acceleration
SMOOTH_WIDTH = 5


def distance_to_obstacle(traj: Trajectory, obstacle: ObstacleGeometry) -> tuple[np.ndarray, float]:
    """Per-sample body-center distance to the obstacle and the flight minimum.

    Plan-view distance to the segment (clamped to endpoints, or to the
    infinite line) combined with the vertical gap outside [0, height].
    """
    import numpy as np

    plan = segment_distance(traj.pos[:, :2], np.asarray(obstacle.p0, dtype=float),
                            np.asarray(obstacle.p1, dtype=float),
                            obstacle.kind == "plane_segment")
    z = traj.pos[:, 2]
    vert = np.maximum(0.0, np.maximum(-z, z - obstacle.height))
    series = np.hypot(plan, vert)
    return series, float(series.min())


class FlightMetrics(NamedTuple):
    """One flight's row of the obstacle-avoidance table."""

    min_distance: float
    min_ttc: float
    severity: float
    delta_v: Optional[float]


def flight_metrics(
    traj: Trajectory,
    obstacle: ObstacleGeometry,
    collided: bool = False,
    t_collision: Optional[float] = None,
) -> FlightMetrics:
    """Minimum distance and TTC, severity index and, given t_collision, max delta-v.

    TTC is each sample's obstacle distance over its speed; samples slower than
    STATIONARY_SPEED are left out, and a flight with none faster fails.
    Collision flights score 0 distance and 0 TTC by definition. The obstacle
    distance series is computed once, and missing velocity or acceleration is
    derived at most once, when first needed; values and errors come in the
    order TTC, masi, max_delta_v.
    """
    import numpy as np

    derived = []  # derive_kinematics(traj), once something needs it

    def kinematics(present: bool) -> Trajectory:
        if present:
            return traj
        if not derived:
            derived.append(derive_kinematics(traj))
        return derived[0]

    if collided:
        dist = ttc = 0.0
    else:
        series, dist = distance_to_obstacle(traj, obstacle)
        speed = np.linalg.norm(kinematics(traj.vel is not None).vel, axis=1)
        moving = speed >= STATIONARY_SPEED
        if not moving.any():
            raise DecisiveError("no sample moves faster than the stationary cutoff")
        ttc = float((series[moving] / speed[moving]).min())
    severity = masi(kinematics(traj.acc is not None))
    delta_v = (
        max_delta_v(kinematics(traj.vel is not None), t_collision)
        if t_collision is not None
        else None
    )
    return FlightMetrics(dist, ttc, severity, delta_v)


def aggregate_flights(per_flight: Sequence[float]) -> float:
    """Flight-set value: mean of one or more per-flight metric values."""
    return mean(per_flight)


def masi(traj: Trajectory) -> float:
    """Peak horizontal acceleration magnitude over the flight, over g (dimensionless).

    The vertical axis is left out so that sudden drops (vehicle failures, not
    impacts) do not contaminate the severity index.
    """
    import numpy as np

    acc = (traj if traj.acc is not None else derive_kinematics(traj)).acc
    return float(np.hypot(acc[:, 0], acc[:, 1]).max()) / GRAVITY


def max_delta_v(traj: Trajectory, t_c: float) -> float:
    """Largest velocity change within DELTA_V_WINDOW seconds after the collision at t_c.

    Velocity at t_c is interpolated; the maximum of |v(tau) - v(t_c)| is taken
    over samples in (t_c, t_c + DELTA_V_WINDOW]. Sampling inside the window must
    be at least 10 Hz for the estimate to be meaningful.
    """
    import numpy as np

    source = traj if traj.vel is not None else derive_kinematics(traj)
    t = source.t
    if not (t[0] <= t_c <= t[-1]):
        raise DecisiveError(f"t_c={t_c} outside [{t[0]}, {t[-1]}]")

    t_end = min(t_c + DELTA_V_WINDOW, float(t[-1]))
    in_window = (t >= t_c) & (t <= t_end)
    window_times = t[in_window]
    # gaps are measured over the window including its edges; t increases strictly and
    # t_c <= t_end, so the edges are sorted and a repeated edge is a gap of 0
    edges = np.concatenate(([t_c], window_times, [t_end]))
    if np.diff(edges).max() > 0.1 + 1e-9:
        raise DecisiveError("need >= 10 Hz sampling in the post-collision window")

    v0 = np.array([np.interp(t_c, t, source.vel[:, k]) for k in range(3)])
    after = (t > t_c) & (t <= t_c + DELTA_V_WINDOW)
    if not after.any():
        return 0.0
    dv = np.linalg.norm(source.vel[after] - v0, axis=1)
    return float(dv.max())


def derive_kinematics(traj: Trajectory) -> Trajectory:
    """Fill missing velocity/acceleration by central differences.

    Interior samples use central differences, the ends one-sided differences.
    Acceleration gets a moving average of odd width SMOOTH_WIDTH. Finite but
    huge telemetry can overflow a difference; that fails rather than go on.
    """
    import numpy as np

    if len(traj) < 3:
        raise DecisiveError("differentiation needs at least 3 samples")

    t = traj.t
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        vel = traj.vel if traj.vel is not None else _differentiate(traj.pos, t)
        acc = traj.acc
        if acc is None:
            acc = _moving_average(_differentiate(vel, t), SMOOTH_WIDTH)
    for name, values in (("velocity", vel), ("acceleration", acc)):
        if not np.isfinite(values).all():
            raise DecisiveError(f"derived {name} is not finite: telemetry values too large")
    return Trajectory(t, traj.pos, vel, acc)


def _differentiate(mat: np.ndarray, t: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.gradient(mat, t, axis=0)


def _moving_average(mat: np.ndarray, width: int) -> np.ndarray:
    import numpy as np

    half = width // 2
    padded = np.pad(mat, ((half, half), (0, 0)), mode="edge")
    kernel = np.ones(width) / width
    return np.column_stack(
        [np.convolve(padded[:, k], kernel, mode="valid") for k in range(mat.shape[1])]
    )


def category_distribution(
    trials: Sequence[TrialRecord],
    attr: str,
    vocab: Sequence[str],
    group_by: Callable[[TrialRecord], str],
) -> dict[str, dict[str, float]]:
    """Percentage of trials per category of `vocab`, per group that `group_by` names.

    `attr` is the trial field that holds the category, `oa_category` or
    `cr_category`; every trial carries one.
    """
    groups: dict[str, list[str]] = {}
    for trial in trials:
        groups.setdefault(group_by(trial), []).append(getattr(trial, attr))

    out = {}
    for key, cats in sorted(groups.items()):
        out[key] = {c: 100.0 * cats.count(c) / len(cats) for c in vocab}
    return out
