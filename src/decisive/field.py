"""Field-readiness metrics: endurance, NLOS comms range and requirement checklists."""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

FIGURE8_LAP_M = 13.0  # nominal length of one figure-8 lap


class NlosPosition(NamedTuple):
    """One OCU position in a comms range test."""

    distance: float  # meters, > 0
    obstructions: tuple[tuple[int, str], ...] = ()
    connect: str = "none"  # good | bad | none
    fly: str = "not_possible"  # possible | not_possible


def endurance_metrics(laps: int, duration_min: float) -> tuple[float, float]:
    """(distance m, average speed m/s) for the figure-8 endurance test, over a positive
    duration."""
    distance = FIGURE8_LAP_M * laps
    return distance, distance / (duration_min * 60.0)


def nlos_max_performance(
    positions: Sequence[NlosPosition],
) -> tuple[Optional[NlosPosition], Optional[NlosPosition]]:
    """(static, flying) furthest positions with a working link.

    Static requires connect == good, flying additionally fly == possible.
    None means the link never worked; reports render that as 0.
    """
    static = [p for p in positions if p.connect == "good"]
    flying = [p for p in positions if p.connect == "good" and p.fly == "possible"]
    pick = lambda group: max(group, key=lambda p: p.distance) if group else None
    return pick(static), pick(flying)


# --- requirement checklists ------------------------------------------------

OPS = ("equals", "min", "max", "contains")


class Criterion(NamedTuple):
    field: str
    op: str  # one of OPS
    value: object

    def passes(self, response) -> bool:
        if self.op == "equals":
            return response == self.value
        if self.op == "contains":
            return str(self.value).lower() in str(response).lower()
        try:
            number = float(response)
        except (TypeError, ValueError):
            return False
        return number >= self.value if self.op == "min" else number <= self.value


class RequirementsResult(NamedTuple):
    per_field: dict[str, bool]
    percentage: float


def requirements_met(
    responses: Mapping[str, object], criteria: Sequence[Criterion]
) -> RequirementsResult:
    """Evaluate checklist responses against criteria.

    The percentage counts only fields that carry a criterion, of which there is
    at least one; a missing response fails that field.
    """
    per_field = {crit.field: crit.field in responses and crit.passes(responses[crit.field])
                 for crit in criteria}
    return RequirementsResult(per_field, 100.0 * sum(per_field.values()) / len(per_field))
