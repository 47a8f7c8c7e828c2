"""Non-contextual autonomy ranking.

Feature tables are encoded to positive numbers, combined by a weighted
product into a component potential, paired with the capability level into a
coordinate, and ranked by distance from the origin.
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import DataQualityWarning, DecisiveError

#: sentinel for a feature the platform simply does not have
ABSENT = "N/A"


class Feature(NamedTuple):
    name: str
    direction: str  # higher_better | lower_better
    ordinal_map: Optional[dict[str, float]] = None


class FeatureTable(NamedTuple):
    """Per-system feature values; entries are numbers, ordinal tokens, or ABSENT."""

    features: tuple[Feature, ...]
    values: dict[str, dict[str, object]]  # system id -> feature name -> value


def encode_features(table: FeatureTable) -> dict[str, dict[str, float]]:
    """Encode every system's feature values to the positive numbers `ingest` vouches for.

    Ordinal tokens map through the feature's ordinal map. An absent value
    inherits the minimum encoded value of that feature across the cohort
    (floor 1 for an ordinal feature no system has): lacking the component
    scores no better than the worst system that has it.
    """
    encoded: dict[str, dict[str, float]] = {sid: {} for sid in table.values}
    for feat in table.features:
        nums = {}
        for sid, row in table.values.items():
            raw = row.get(feat.name, ABSENT)
            if raw != ABSENT:  # any other string is a token of the ordinal map
                nums[sid] = float(feat.ordinal_map[raw] if isinstance(raw, str) else raw)
        fill = min(nums.values(), default=1.0)
        for sid, row in encoded.items():
            row[feat.name] = nums.get(sid, fill)
    return encoded


def uniform_weights(feature_names: Sequence[str]) -> dict[str, float]:
    """Equal normalized weights."""
    w = 1.0 / len(feature_names)
    return {name: w for name in feature_names}


def degree_of_autonomy_weights(degrees: Mapping[str, int]) -> dict[str, float]:
    """Raw weight 2^-n per feature, n the degree of separation from pure autonomy, normalized."""
    least = min(degrees.values())  # scaled by 2^least, the least degree's raw weight is 1, not 0
    return explicit_weights({name: 2.0 ** (least - n) for name, n in degrees.items()})


def explicit_weights(raw: Mapping[str, float]) -> dict[str, float]:
    """`raw` normalized by the sum of its absolute values. Each weight is first divided by
    the largest magnitude, so the sum cannot overflow."""
    top = max(map(abs, raw.values()))  # `ingest` rejects all-zero weights
    total = sum(abs(w) / top for w in raw.values())
    return {name: w / top / total for name, w in raw.items()}


def weighted_product(
    values: Mapping[str, float],
    weights: Mapping[str, float],
    directions: Mapping[str, str],
) -> float:
    """P = prod(v_i ^ (s_i * w_i)) with s_i = -1 for lower-is-better features; each v_i is
    positive, as `encode_features` makes it. A factor beyond the float range, a tiny v_i
    to a negative power, fails naming the feature."""
    p = 1.0
    for name, w in weights.items():
        v = values[name]
        sign = -1.0 if directions[name] == "lower_better" else 1.0
        try:
            p *= v ** (sign * w)
        except OverflowError:
            raise DecisiveError(f"feature {name}: {v!r} ** {sign * w!r} overflows") from None
    return p


class AutonomyCapabilities(NamedTuple):
    perception: bool = False
    modeling: bool = False
    planning: bool = False
    execution: bool = False


def autonomy_level(caps: AutonomyCapabilities) -> int:
    """Capability level 0-4: one point per autonomous ability area."""
    return sum((caps.perception, caps.modeling, caps.planning, caps.execution))


class NcapResult(NamedTuple):
    suas_id: str
    n_al: int
    n_cp: float
    absolute_distance: float
    relative_distance: float
    rank: int


def component_potential(
    table: FeatureTable, weights: Optional[Mapping[str, float]] = None
) -> dict[str, float]:
    """Weighted-product potential per system, from normalized feature weights; defaults to
    uniform weights."""
    if weights is None:
        weights = uniform_weights([f.name for f in table.features])
    encoded = encode_features(table)
    directions = {f.name: f.direction for f in table.features}
    potentials = {}
    for sid in table.values:
        try:
            potentials[sid] = weighted_product(encoded[sid], weights, directions)
        except DecisiveError as exc:
            raise DecisiveError(f"{sid}: component potential: {exc}") from None
    return potentials


def autonomy_distances(scores: Mapping[str, tuple[int, float]]) -> list[NcapResult]:
    """Rank systems by distance of their (level, potential) coordinate from the origin.

    The best system (largest absolute distance) gets relative distance 0;
    every other system's relative distance is the coordinate-space distance to
    the best one. Ties on the absolute distance break by level then id.
    """
    absolute = {
        sid: math.hypot(float(n_al), n_cp) for sid, (n_al, n_cp) in scores.items()
    }
    best_abs = max(absolute.values())
    contenders = [sid for sid, d in absolute.items() if math.isclose(d, best_abs)]
    if len(contenders) > 1:
        warnings.warn(
            f"absolute-distance tie between {', '.join(sorted(contenders))}",
            DataQualityWarning,
        )
        contenders.sort(key=lambda sid: (-scores[sid][0], sid))
    best = contenders[0]
    bx, by = float(scores[best][0]), scores[best][1]

    ordered = sorted(scores, key=lambda sid: (-absolute[sid], -scores[sid][0], sid))
    results = []
    for rank, sid in enumerate(ordered, start=1):
        n_al, n_cp = scores[sid]
        rel = 0.0 if sid == best else math.dist((float(n_al), n_cp), (bx, by))
        results.append(NcapResult(sid, n_al, n_cp, absolute[sid], rel, rank))
    return results
