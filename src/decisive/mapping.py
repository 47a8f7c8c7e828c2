"""Indoor mapping metrics from administrator-measured map observations.

`ingest` checks every value these metrics take when it reads the manifest: the
shape classes, acuity levels and dimension and boundary counts of a test's
blocks, and each fiducial's traversal and turns. A metric here only computes.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional, Sequence

from .errors import DecisiveError
from .stats import mean

#: difficulty thresholds: fixed constants fitted to the ten labeled example
#: fiducials; no input or argument sets them
HARD_TRAVERSAL_M = 20.0
HARD_TURNS = 5
EASY_TRAVERSAL_M = 10.0
EASY_TURNS = 2

SHAPE_CLASSES = ("complete", "incomplete", "shifted")
MAPPED_STATES = ("complete", "partial", "missing")
ACUITY_LEVELS_MM = (20.0, 8.0, 3.0, 1.3, 0.5)


class FiducialObservation(NamedTuple):
    """One mapped half-cylinder as located on the evaluation map."""

    fiducial_id: str
    half: int  # 1 or 2
    map_xy: Optional[tuple[float, float]] = None  # map units (pixels or meters); None if missing
    mapped: str = "missing"  # one of MAPPED_STATES


class FiducialGroundTruth(NamedTuple):
    fiducial_id: str
    gt_xy: tuple[float, float]  # meters
    min_traversal: float  # meters, > 0
    min_turns: int


def dimensional_accuracy(reported: Sequence[float], ground_truth: Sequence[float]) -> float:
    """100 x (sum of reported dimensions) / (sum of ground-truth dimensions)."""
    return 100.0 * sum(reported) / sum(ground_truth)


def fov_coverage(visible_50pct: int, total: int) -> float:
    """Percentage of boundaries at least half visible in the map."""
    return 100.0 * visible_50pct / total


def shape_accuracy_rate(classes: Sequence[str]) -> float:
    """Percentage of fiducial pairs judged to form a complete circle."""
    return 100.0 * sum(1 for c in classes if c == "complete") / len(classes)


def global_error(
    obs: Sequence[FiducialObservation], truth: Sequence[FiducialGroundTruth]
) -> float:
    """Average pairwise map-to-truth distance error in centimeters.

    A single scale s (the map may be in pixels) is fitted in closed form to
    minimize sum((s * d_map - d_gt)^2) over all matched fiducial pairs; the
    reported error is the mean |s * d_map - d_gt| converted to cm. Only
    pairwise distances are compared, so rotation and translation of the map
    never enter. Map coordinates are first divided by their largest magnitude,
    so no map unit enters either: no distance or sum of the fit overflows or
    underflows at any scale of the map.
    """
    gt_by_id = {g.fiducial_id: g.gt_xy for g in truth}
    located: dict[str, tuple[float, float]] = {}
    for o in obs:
        if o.map_xy is not None and o.fiducial_id in gt_by_id:
            located.setdefault(o.fiducial_id, o.map_xy)
    ids = sorted(located)
    if len(ids) < 3:
        raise DecisiveError(f"need >= 3 matched fiducials, have {len(ids)}")

    top = max(abs(c) for xy in located.values() for c in xy) or 1.0  # 0: all at the origin
    scaled = {i: (x / top, y / top) for i, (x, y) in located.items()}
    pairs = list(itertools.combinations(ids, 2))
    d_map = [math.dist(scaled[i], scaled[j]) for i, j in pairs]
    d_gt = [math.dist(gt_by_id[i], gt_by_id[j]) for i, j in pairs]

    denom = sum(m * m for m in d_map)
    if denom == 0:
        raise DecisiveError("all matched fiducials coincide on the map")
    s = sum(m * g for m, g in zip(d_map, d_gt)) / denom
    return 100.0 * mean([abs(s * m - g) for m, g in zip(d_map, d_gt)])


def fiducial_coverage(
    obs: Sequence[FiducialObservation], truth: Sequence[FiducialGroundTruth]
) -> float:
    """Percentage of available fiducial halves mapped at least partially."""
    total_halves = 2 * len(truth)
    truth_ids = {g.fiducial_id for g in truth}
    mapped = {
        (o.fiducial_id, o.half)
        for o in obs
        if o.mapped in ("complete", "partial") and o.fiducial_id in truth_ids
    }
    return 100.0 * len(mapped) / total_halves


def difficulty_rating(min_traversal: float, min_turns: int) -> str:
    """L/M/H difficulty of reaching a fiducial's far side."""
    if min_traversal >= HARD_TRAVERSAL_M or min_turns >= HARD_TURNS:
        return "H"
    if min_traversal <= EASY_TRAVERSAL_M and min_turns <= EASY_TURNS:
        return "L"
    return "M"
