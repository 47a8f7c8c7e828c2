"""Attention allocation, situation-awareness scoring, and trust-survey analysis."""

from __future__ import annotations

import warnings
from collections import Counter
from itertools import compress
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import DataQualityWarning, DecisiveError
from .stats import MannWhitneyResult, iqr_filter, mann_whitney, tally_summary, welch_t


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


class SagatColumns(NamedTuple):
    """SAGAT answers a column at a time: answer k is entry k of each list."""

    participants: list[str]
    se_ids: list[str]
    sa_levels: list[int]  # 1 = perception, 2 = comprehension
    correct: list[bool]


def sagat_correct_rates(sagat: SagatColumns) -> dict[str, tuple[int, float]]:
    """(questions asked, fraction answered correctly) per situation element."""
    asked = Counter(sagat.se_ids)
    right = Counter(compress(sagat.se_ids, sagat.correct))
    return {se: (n, right[se] / n) for se, n in asked.items()}


def perception_vectors(sagat: SagatColumns) -> dict[str, dict[str, float]]:
    """Per-participant p(SE) in {0, 0.5, 1} derived from their SAGAT answers.

    An element answered correctly at level 2 was comprehended (1.0); otherwise
    correctly at level 1, detected (0.5); otherwise undetected (0.0).
    """
    best: dict[str, dict[str, int]] = {}
    for participant, se, level, correct in zip(sagat.participants, sagat.se_ids,
                                               sagat.sa_levels, sagat.correct):
        levels = best.setdefault(participant, {})
        levels[se] = max(levels.get(se, 0), level if correct else 0)
    return {participant: {se: level / 2 for se, level in levels.items()}
            for participant, levels in best.items()}


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


def osa_by_participant(
    weights: Mapping[str, float],
    vectors: Mapping[str, Mapping[str, float]],
    elements: Iterable[str],
) -> dict[str, float]:
    """OSA of each participant, in `vectors`' order, over the weighted elements of
    `elements`, in its order, that they answered about. A participant with no such
    element is left out."""
    out = {}
    for participant, perception in vectors.items():
        applicable = {se: weights[se] for se in elements if se in weights and se in perception}
        if applicable:
            out[participant] = osa(applicable, perception)
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
