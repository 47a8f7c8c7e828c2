"""Unit-bearing domain types.

All quantities are SI: seconds, meters, m/s, m/s^2. Trajectories are stored
as immutable numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

Vec3 = tuple[float, float, float]

OA_CATEGORIES = ("OA-A1", "OA-B1", "OA-B2", "OA-B3", "OA-B4", "OA-C1")
CR_CATEGORIES = ("CR-A1", "CR-A2", "CR-A3", "CR-B1", "CR-B2", "CR-B3", "CR-B4", "CR-C1")
APERTURE_TIERS = ("A1", "A2", "A3", "B1")
OBSTACLE_MATERIALS = ("wall", "mesh", "chain_link", "door_closed", "door_45", "door_open")


def _as_matrix(rows, name: str) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name} must be an (n, 3) array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered pose samples from internal telemetry or an external tracker."""

    t: np.ndarray
    pos: np.ndarray
    vel: Optional[np.ndarray] = None
    acc: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("trajectory needs at least two samples")
        if not np.all(np.isfinite(t)):
            raise ValueError("timestamps must be finite")
        if not np.all(np.diff(t) > 0):
            raise ValueError("timestamps must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "pos", _as_matrix(self.pos, "pos"))
        if self.pos.shape[0] != t.size:
            raise ValueError("pos length must match timestamps")
        for name in ("vel", "acc"):
            v = getattr(self, name)
            if v is not None:
                v = _as_matrix(v, name)
                if v.shape[0] != t.size:
                    raise ValueError(f"{name} length must match timestamps")
                object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class ObstacleGeometry:
    """Vertical planar obstacle: a floor-plane segment (or infinite line) extruded to `height`."""

    kind: str  # plane_segment | infinite_plane
    p0: tuple[float, float]
    p1: tuple[float, float]
    height: float
    material: str = "wall"

    def __post_init__(self):
        if self.kind not in ("plane_segment", "infinite_plane"):
            raise ValueError("kind must be plane_segment or infinite_plane")
        if self.kind == "plane_segment" and tuple(self.p0) == tuple(self.p1):
            raise ValueError("segment endpoints must differ")
        if not self.height > 0:
            raise ValueError("height must be positive")
        if self.material not in OBSTACLE_MATERIALS:
            raise ValueError(f"unknown obstacle material {self.material!r}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome bookkeeping for one flight attempt."""

    trial_id: str
    test_id: str
    suas_id: str
    outcome: str  # success | failure
    collisions: int = 0
    rollovers: int = 0
    oa_category: Optional[str] = None
    cr_category: Optional[str] = None
    aperture_tier: Optional[str] = None
    t_collision: Optional[float] = None
    duration: float = 0.0  # minutes
    laps: Optional[int] = None
    telemetry: Optional[str] = None
    notes: str = ""

    def __post_init__(self):
        if self.outcome not in ("success", "failure"):
            raise ValueError("outcome must be success or failure")
        if self.collisions < 0 or self.rollovers < 0:
            raise ValueError("counts must be non-negative")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.oa_category is not None and self.oa_category not in OA_CATEGORIES:
            raise ValueError(f"unknown OA category {self.oa_category!r}")
        if self.cr_category is not None and self.cr_category not in CR_CATEGORIES:
            raise ValueError(f"unknown CR category {self.cr_category!r}")
        if self.aperture_tier is not None and self.aperture_tier not in APERTURE_TIERS:
            raise ValueError(f"unknown aperture tier {self.aperture_tier!r}")


@dataclass(frozen=True)
class EnvironmentProfile:
    """Where a test ran: lighting class, dimensions, surfaces, obstructions."""

    lighting: str  # lighted | dark
    dims: Optional[Vec3] = None  # (W, L, H) meters
    surfaces: tuple[str, ...] = ()
    obstructions: tuple[tuple[int, str], ...] = ()
    indoor: bool = True
    lux: Optional[float] = None

    def __post_init__(self):
        if self.lighting not in ("lighted", "dark"):
            raise ValueError("lighting must be lighted or dark")
        if self.lux is not None:
            if self.lighting == "lighted" and self.lux < 100:
                raise ValueError("lighted requires measured lux >= 100")
            if self.lighting == "dark" and self.lux >= 1:
                raise ValueError("dark requires measured lux < 1")


@dataclass(frozen=True)
class Campaign:
    """A full evaluation: sUAS under test, test definitions, trials, telemetry refs."""

    suas: dict = field(default_factory=dict)          # suas_id -> descriptor dict
    tests: dict = field(default_factory=dict)         # test_id -> definition dict
    environments: dict = field(default_factory=dict)  # env_id -> EnvironmentProfile
    trials: tuple[TrialRecord, ...] = ()

    def trials_for_test(self, test_id: str) -> list[TrialRecord]:
        return [t for t in self.trials if t.test_id == test_id]


def tests_of_kind(campaign: Campaign, kind: str) -> list[dict]:
    """The campaign's test definitions of one category: nav, collision, field or mapping."""
    return [t for t in campaign.tests.values() if t.get("kind") == kind]
