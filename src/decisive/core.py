"""Unit-bearing domain types.

All quantities are SI: seconds, meters, m/s, m/s^2. Trajectories are stored
as immutable numpy arrays.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    import numpy as np

OA_CATEGORIES = ("OA-A1", "OA-B1", "OA-B2", "OA-B3", "OA-B4", "OA-C1")
CR_CATEGORIES = ("CR-A1", "CR-A2", "CR-A3", "CR-B1", "CR-B2", "CR-B3", "CR-B4", "CR-C1")
APERTURE_TIERS = ("A1", "A2", "A3", "B1")
OBSTACLE_MATERIALS = ("wall", "mesh", "chain_link", "door_closed", "door_45", "door_open")


class Trajectory:
    """Time-ordered pose samples from internal telemetry or an external tracker.

    Each array is stored read-only as float64: `t` of n samples, `pos`, `vel`
    and `acc` of shape (n, 3), the last two None when not recorded.
    `ingest.parse_telemetry` checks that there are at least two samples, all
    finite, with time strictly increasing.
    """

    __slots__ = ("t", "pos", "vel", "acc")

    def __init__(self, t: np.ndarray, pos: np.ndarray, vel: Optional[np.ndarray] = None,
                 acc: Optional[np.ndarray] = None):
        import numpy as np

        for name, value in zip(self.__slots__, (t, pos, vel, acc)):
            if value is not None:
                value = np.asarray(value, dtype=float)
                value.setflags(write=False)
            setattr(self, name, value)

    def __len__(self) -> int:
        return self.t.size


class ObstacleGeometry(NamedTuple):
    """Vertical planar obstacle: a floor-plane segment (or infinite line) extruded to `height`."""

    kind: str  # plane_segment | infinite_plane
    p0: tuple[float, float]
    p1: tuple[float, float]
    height: float
    material: str = "wall"  # one of OBSTACLE_MATERIALS


class TrialRecord(NamedTuple):
    """Outcome bookkeeping for one flight attempt."""

    trial_id: str
    test_id: str
    suas_id: str
    outcome: str = "success"  # or failure
    collisions: int = 0
    # one of OA_CATEGORIES, CR_CATEGORIES and APERTURE_TIERS
    oa_category: Optional[str] = None
    cr_category: Optional[str] = None
    aperture_tier: Optional[str] = None
    t_collision_s: Optional[float] = None
    duration_min: float = 0.0
    laps: Optional[int] = None
    telemetry: Optional[Path] = None  # resolved against the manifest's directory


class Campaign(NamedTuple):
    """A full evaluation: sUAS under test, test definitions, trials, telemetry refs."""

    suas: set  # suas ids
    tests: dict  # test_id -> ingest.CampaignTest
    environments: set  # environment ids
    trials: tuple[TrialRecord, ...]

    def trials_for_test(self, test_id: str) -> list[TrialRecord]:
        return [t for t in self.trials if t.test_id == test_id]


def tests_of_kind(campaign: Campaign, kind: str) -> list:
    """The campaign's tests of one category: nav, collision, field or mapping."""
    return [t for t in campaign.tests.values() if t.kind == kind]
