"""Unit-bearing domain types.

All quantities are SI: seconds, meters, m/s, m/s^2. Trajectories are stored
as immutable numpy arrays.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    import numpy as np

Vec3 = tuple[float, float, float]

OA_CATEGORIES = ("OA-A1", "OA-B1", "OA-B2", "OA-B3", "OA-B4", "OA-C1")
CR_CATEGORIES = ("CR-A1", "CR-A2", "CR-A3", "CR-B1", "CR-B2", "CR-B3", "CR-B4", "CR-C1")
APERTURE_TIERS = ("A1", "A2", "A3", "B1")
OBSTACLE_MATERIALS = ("wall", "mesh", "chain_link", "door_closed", "door_45", "door_open")


def _as_matrix(rows, name: str) -> np.ndarray:
    import numpy as np

    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name} must be an (n, 3) array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


class Trajectory:
    """Time-ordered pose samples from internal telemetry or an external tracker."""

    __slots__ = ("t", "pos", "vel", "acc")

    def __init__(self, t: np.ndarray, pos: np.ndarray, vel: Optional[np.ndarray] = None,
                 acc: Optional[np.ndarray] = None):
        import numpy as np

        t = np.asarray(t, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("trajectory needs at least two samples")
        if not np.all(np.isfinite(t)):
            raise ValueError("timestamps must be finite")
        if not np.all(np.diff(t) > 0):
            raise ValueError("timestamps must be strictly increasing")
        t.setflags(write=False)
        self.t = t
        self.pos = _as_matrix(pos, "pos")
        if self.pos.shape[0] != t.size:
            raise ValueError("pos length must match timestamps")
        for name, v in (("vel", vel), ("acc", acc)):
            if v is not None:
                v = _as_matrix(v, name)
                if v.shape[0] != t.size:
                    raise ValueError(f"{name} length must match timestamps")
            setattr(self, name, v)

    def __len__(self) -> int:
        return self.t.size


class ObstacleGeometry:
    """Vertical planar obstacle: a floor-plane segment (or infinite line) extruded to `height`."""

    __slots__ = ("kind", "p0", "p1", "height", "material")

    def __init__(self, kind: str, p0: tuple[float, float], p1: tuple[float, float],
                 height: float, material: str = "wall"):
        if kind not in ("plane_segment", "infinite_plane"):
            raise ValueError("kind must be plane_segment or infinite_plane")
        if kind == "plane_segment" and tuple(p0) == tuple(p1):
            raise ValueError("segment endpoints must differ")
        if not height > 0:
            raise ValueError("height must be positive")
        if material not in OBSTACLE_MATERIALS:
            raise ValueError(f"unknown obstacle material {material!r}")
        self.kind, self.p0, self.p1, self.height, self.material = kind, p0, p1, height, material

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.p0, self.p1, self.height, self.material)
                == (other.kind, other.p0, other.p1, other.height, other.material))


class TrialRecord:
    """Outcome bookkeeping for one flight attempt."""

    __slots__ = ("trial_id", "test_id", "suas_id", "outcome", "collisions", "rollovers",
                 "oa_category", "cr_category", "aperture_tier", "t_collision", "duration",
                 "laps", "telemetry", "notes")

    def __init__(
        self,
        trial_id: str,
        test_id: str,
        suas_id: str,
        outcome: str,  # success | failure
        collisions: int = 0,
        rollovers: int = 0,
        # one of OA_CATEGORIES, CR_CATEGORIES and APERTURE_TIERS, checked where a manifest loads
        oa_category: Optional[str] = None,
        cr_category: Optional[str] = None,
        aperture_tier: Optional[str] = None,
        t_collision: Optional[float] = None,
        duration: float = 0.0,  # minutes
        laps: Optional[int] = None,
        telemetry: Optional[Path] = None,  # resolved against the manifest's directory
        notes: str = "",
    ):
        if outcome not in ("success", "failure"):
            raise ValueError("outcome must be success or failure")
        if collisions < 0 or rollovers < 0:
            raise ValueError("counts must be non-negative")
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.trial_id = trial_id
        self.test_id = test_id
        self.suas_id = suas_id
        self.outcome = outcome
        self.collisions = collisions
        self.rollovers = rollovers
        self.oa_category = oa_category
        self.cr_category = cr_category
        self.aperture_tier = aperture_tier
        self.t_collision = t_collision
        self.duration = duration
        self.laps = laps
        self.telemetry = telemetry
        self.notes = notes


class EnvironmentProfile:
    """Where a test ran: lighting class, dimensions, surfaces, obstructions."""

    __slots__ = ("lighting", "dims", "surfaces", "obstructions", "indoor", "lux")

    def __init__(
        self,
        lighting: str = "lighted",  # lighted | dark
        dims: Optional[Vec3] = None,  # (W, L, H) meters
        surfaces: tuple[str, ...] = (),
        obstructions: tuple[tuple[int, str], ...] = (),
        indoor: bool = True,
        lux: Optional[float] = None,
    ):
        if lighting not in ("lighted", "dark"):
            raise ValueError("lighting must be lighted or dark")
        if lux is not None:
            if lighting == "lighted" and lux < 100:
                raise ValueError("lighted requires measured lux >= 100")
            if lighting == "dark" and lux >= 1:
                raise ValueError("dark requires measured lux < 1")
        self.lighting, self.dims, self.surfaces = lighting, dims, surfaces
        self.obstructions, self.indoor, self.lux = obstructions, indoor, lux


class Campaign(NamedTuple):
    """A full evaluation: sUAS under test, test definitions, trials, telemetry refs."""

    suas: dict  # suas_id -> descriptor dict
    tests: dict  # test_id -> ingest.CampaignTest
    environments: dict  # env_id -> EnvironmentProfile
    trials: tuple[TrialRecord, ...]

    def trials_for_test(self, test_id: str) -> list[TrialRecord]:
        return [t for t in self.trials if t.test_id == test_id]


def tests_of_kind(campaign: Campaign, kind: str) -> list:
    """The campaign's tests of one category: nav, collision, field or mapping."""
    return [t for t in campaign.tests.values() if t.kind == kind]
