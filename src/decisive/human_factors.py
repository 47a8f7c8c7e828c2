"""Attention allocation, situation-awareness scoring, and trust-survey analysis."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import (
    DataQualityWarning,
    EmptyCondition,
    EmptySample,
    LengthMismatch,
    NonPositiveParam,
)
from .stats import MannWhitneyResult, iqr_filter, mann_whitney, mean_std, welch_t

PERCEPTION_VALUES = {"undetected": 0.0, "detected": 0.5, "comprehended": 1.0}


@dataclass(frozen=True)
class SeParams:
    """SEEV parameters for one situation element; effort enters inversely."""

    se_id: str
    saliency: float
    effort: float
    expectancy: float
    value: float

    def __post_init__(self):
        for name in ("saliency", "effort", "expectancy", "value"):
            if getattr(self, name) <= 0:
                raise NonPositiveParam(f"{self.se_id}: {name} must be > 0")

    @property
    def attention_resource(self) -> float:
        return self.expectancy * self.saliency * self.value / self.effort


def attention_allocation(params: Sequence[SeParams]) -> dict[str, float]:
    """Attention proportion per situation element: f_i = A_i / sum(A)."""
    if not params:
        raise EmptySample("no situation elements")
    resources = {p.se_id: p.attention_resource for p in params}
    total = sum(resources.values())
    return {se: a / total for se, a in resources.items()}


@dataclass(frozen=True)
class SagatResponse:
    participant: str
    question_id: str
    se_id: str
    sa_level: int  # 1 = perception, 2 = comprehension
    correct: bool

    def __post_init__(self):
        if self.sa_level not in (1, 2):
            raise ValueError("sa_level must be 1 or 2")


def sagat_correct_rates(responses: Sequence[SagatResponse]) -> dict[str, float]:
    """Fraction of correct answers per situation element."""
    if not responses:
        raise EmptySample("no responses")
    asked: dict[str, int] = {}
    right: dict[str, int] = {}
    for r in responses:
        asked[r.se_id] = asked.get(r.se_id, 0) + 1
        right[r.se_id] = right.get(r.se_id, 0) + (1 if r.correct else 0)
    return {se: right[se] / asked[se] for se in asked}


def perception_level(responses: Sequence[SagatResponse]) -> str:
    """Perception class for one participant/element from their answers.

    Correct at level 2 means the element was comprehended; otherwise correct
    at level 1 means detected; otherwise undetected.
    """
    if any(r.correct and r.sa_level == 2 for r in responses):
        return "comprehended"
    if any(r.correct and r.sa_level == 1 for r in responses):
        return "detected"
    return "undetected"


def perception_vectors(responses: Sequence[SagatResponse]) -> dict[str, dict[str, float]]:
    """Per-participant p(SE) in {0, 0.5, 1} derived from their SAGAT answers."""
    if not responses:
        raise EmptySample("no responses")
    grouped: dict[str, dict[str, list[SagatResponse]]] = {}
    for r in responses:
        grouped.setdefault(r.participant, {}).setdefault(r.se_id, []).append(r)
    return {
        participant: {
            se: PERCEPTION_VALUES[perception_level(rs)] for se, rs in by_se.items()
        }
        for participant, by_se in grouped.items()
    }


def osa(weights: Mapping[str, float], perception: Mapping[str, float]) -> float:
    """Operator situation awareness: weighted sum of perception levels.

    Weights are renormalized to sum to 1, so any attention-allocation vector
    can be passed directly.
    """
    if set(weights) != set(perception):
        raise LengthMismatch("weights and perception vectors cover different elements")
    total = sum(weights.values())
    if total <= 0:
        raise NonPositiveParam("weights must sum to a positive value")
    # single division keeps the result inside [0, 1] even at rounding edges
    return sum(w * perception[se] for se, w in weights.items()) / total


def osa_summary(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample std of per-participant OSA scores."""
    if not values:
        raise EmptySample("no scores")
    return mean_std(values)


def osa_by_mission(
    weights: Mapping[str, float],
    vectors: Mapping[str, Mapping[str, float]],
    missions: Mapping[str, Sequence[str]],
) -> dict[str, tuple[float, float]]:
    """Per-mission (mean, std) of OSA over participants, plus an 'overall' row.

    Each mission names the elements it cares about; weights are restricted to
    that subset and renormalized inside `osa`.
    """
    groups = {name: list(ses) for name, ses in missions.items()}
    groups["overall"] = sorted(weights)
    out = {}
    for name, elements in groups.items():
        scores = []
        for perception in vectors.values():
            applicable = {
                se: weights[se] for se in elements if se in weights and se in perception
            }
            if applicable:
                scores.append(osa(applicable, {se: perception[se] for se in applicable}))
        if scores:
            out[name] = mean_std(scores)
    return out


# --- trust surveys -----------------------------------------------------------

@dataclass(frozen=True)
class SurveyRow:
    participant_id: str
    instrument: str  # CTPA | HCTM
    item_id: str
    score: int  # 1..7 Likert
    manip_pass: bool
    condition: str


@dataclass(frozen=True)
class SurveyDataset:
    rows: tuple[SurveyRow, ...]


@dataclass(frozen=True)
class ItemComparison:
    instrument: str
    item_id: str
    mean_a: float
    mean_b: float
    n_a: int
    n_b: int
    test: MannWhitneyResult
    t_statistic: Optional[float] = None  # Welch's t, convenience only
    t_p: Optional[float] = None


@dataclass(frozen=True)
class TrustReport:
    items: tuple[ItemComparison, ...]


def trust_pipeline(dataset: SurveyDataset, condition_a: str, condition_b: str) -> TrustReport:
    """Manipulation-check filter, per-item IQR outlier removal, then item-wise tests.

    Outliers are fenced within each condition's per-item sample so genuine
    between-condition shifts are not discarded. Each removed participant and
    each item past the 10% removal guidance is reported as a
    DataQualityWarning, never enforced silently.
    """
    for participant in sorted({r.participant_id for r in dataset.rows if not r.manip_pass}):
        warnings.warn(
            f"removed participant (failed manipulation check): {participant}", DataQualityWarning
        )
    # one pass over the valid rows; buckets keep row order, which the
    # floating-point sums below depend on
    buckets: dict[tuple[str, str, str], list[int]] = {}
    for r in dataset.rows:
        if r.manip_pass:
            buckets.setdefault((r.instrument, r.item_id, r.condition), []).append(r.score)

    for label in (condition_a, condition_b):
        if not any(cond == label for _, _, cond in buckets):
            raise EmptyCondition(f"no valid rows for condition {label!r}")

    items = sorted(
        {(inst, item) for inst, item, cond in buckets if cond in (condition_a, condition_b)}
    )
    comparisons = []
    for instrument, item_id in items:
        sides = []
        for label in (condition_a, condition_b):
            scores = [float(v) for v in buckets.get((instrument, item_id, label), ())]
            if len(scores) >= 4:
                kept, removed, warning = iqr_filter(scores)
                if warning:
                    note = f"{instrument} {item_id} [{label}]: {warning}"
                    warnings.warn(note, DataQualityWarning)
                scores = kept
            if not scores:
                raise EmptyCondition(f"{instrument} {item_id}: no scores for {label!r}")
            sides.append(scores)
        a_scores, b_scores = sides
        if len(a_scores) >= 2 and len(b_scores) >= 2:
            t_stat, t_p = welch_t(a_scores, b_scores)
        else:
            t_stat = t_p = None
        comparisons.append(
            ItemComparison(
                instrument,
                item_id,
                mean_std(a_scores)[0],
                mean_std(b_scores)[0],
                len(a_scores),
                len(b_scores),
                mann_whitney(a_scores, b_scores),
                t_stat,
                t_p,
            )
        )
    return TrustReport(tuple(comparisons))
