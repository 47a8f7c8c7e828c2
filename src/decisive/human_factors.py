"""Attention allocation, situation-awareness scoring, and trust-survey analysis."""

from __future__ import annotations

import warnings
from collections import Counter
from itertools import compress
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import DataQualityWarning, DecisiveError
from .stats import (MannWhitneyResult, iqr_filter, mann_whitney, mean_std, tally_summary,
                    welch_t)

PERCEPTION_VALUES = {"undetected": 0.0, "detected": 0.5, "comprehended": 1.0}


class SeParams(NamedTuple):
    """SEEV parameters for one situation element, each > 0; effort enters inversely."""

    se_id: str
    saliency: float
    effort: float
    expectancy: float
    value: float

    @property
    def attention_resource(self) -> float:
        return self.expectancy * self.saliency * self.value / self.effort


def attention_allocation(params: Sequence[SeParams]) -> dict[str, float]:
    """Attention proportion per situation element: f_i = A_i / sum(A); `ingest.parse_sa_weights`
    checks that there is at least one."""
    resources = {p.se_id: p.attention_resource for p in params}
    total = sum(resources.values())
    return {se: a / total for se, a in resources.items()}


class SagatResponse(NamedTuple):
    participant: str
    question_id: str
    se_id: str
    sa_level: int  # 1 = perception, 2 = comprehension
    correct: bool


def sagat_correct_rates(responses: Sequence[SagatResponse]) -> dict[str, tuple[int, float]]:
    """(questions asked, fraction answered correctly) per situation element."""
    if not responses:
        raise DecisiveError("no responses")
    asked: dict[str, int] = {}
    right: dict[str, int] = {}
    for r in responses:
        asked[r.se_id] = asked.get(r.se_id, 0) + 1
        right[r.se_id] = right.get(r.se_id, 0) + (1 if r.correct else 0)
    return {se: (n, right[se] / n) for se, n in asked.items()}


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
    can be passed directly. Both cover the same elements.
    """
    total = sum(weights.values())
    if total <= 0:
        raise DecisiveError("weights must sum to a positive value")
    # single division keeps the result inside [0, 1] even at rounding edges
    return sum(w * perception[se] for se, w in weights.items()) / total


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

class SurveyColumns(NamedTuple):
    """Trust-survey responses a column at a time: response k is entry k of each list."""

    participant_ids: list[str]
    instruments: list[str]  # CTPA | HCTM
    item_ids: list[str]
    scores: list[int]  # 1..7 Likert
    manip_pass: list[bool]
    conditions: list[str]


class ItemComparison(NamedTuple):
    instrument: str
    item_id: str
    mean_a: float
    mean_b: float
    test: MannWhitneyResult
    t_statistic: Optional[float] = None  # Welch's t, convenience only
    t_p: Optional[float] = None


class TrustReport(NamedTuple):
    items: tuple[ItemComparison, ...]


def trust_pipeline(survey: SurveyColumns, condition_a: str, condition_b: str) -> TrustReport:
    """Manipulation-check filter, per-item IQR outlier removal, then item-wise tests.

    Outliers are fenced within each condition's per-item sample so genuine
    between-condition shifts are not discarded. Each removed participant and
    each item past the 10% removal guidance is reported as a
    DataQualityWarning, never enforced silently.
    """
    failed = {p for p, passed in zip(survey.participant_ids, survey.manip_pass) if not passed}
    for participant in sorted(failed):
        warnings.warn(
            f"removed participant (failed manipulation check): {participant}", DataQualityWarning
        )
    # one pass over the valid rows: a score tally {score: count} per (instrument, item, condition)
    tallies: dict[tuple[str, str, str], dict[int, int]] = {}
    for (instrument, item_id, condition, score), count in Counter(compress(
            zip(survey.instruments, survey.item_ids, survey.conditions, survey.scores),
            survey.manip_pass)).items():
        tallies.setdefault((instrument, item_id, condition), {})[score] = count

    labels = (condition_a, condition_b)
    for label in labels:
        if not any(cond == label for _, _, cond in tallies):
            raise DecisiveError(f"no valid rows for condition {label!r}")

    comparisons = []
    for instrument, item_id in sorted({(i, item) for i, item, cond in tallies if cond in labels}):
        sides = []
        for label in labels:
            tally = tallies.get((instrument, item_id, label))
            if tally is None:
                raise DecisiveError(f"{instrument} {item_id}: no scores for {label!r}")
            if sum(tally.values()) >= 4:
                tally, warning = iqr_filter(tally)
                if warning:
                    warnings.warn(f"{instrument} {item_id} [{label}]: {warning}",
                                  DataQualityWarning)
            sides.append(tally)
        summaries = [tally_summary(tally) for tally in sides]
        (_, mean_a, _), (_, mean_b, _) = summaries
        comparisons.append(ItemComparison(instrument, item_id, mean_a, mean_b,
                                          mann_whitney(*sides), *welch_t(*summaries)))
    return TrustReport(tuple(comparisons))
