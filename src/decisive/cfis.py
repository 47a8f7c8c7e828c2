"""Contextual autonomy scoring with cascaded fuzzy inference.

Each complexity axis (mission, environment, human independence) is a small
zero-order inference system: triangular memberships on the inputs, constant
output levels, min AND, weighted-average defuzzification. Axis outputs feed a
combining system; per-test scores normalize against an ideal run and combine
across tests into a predictive mission score.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import (
    AllTestsMissing,
    DataQualityWarning,
    NonPositiveScore,
    NoRuleFired,
    ZeroDenominator,
)

@dataclass(frozen=True)
class TriangularMf:
    """Triangle (a, b, c) over [lo, hi]; a == b or b == c makes a shoulder."""

    a: float
    b: float
    c: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.a <= self.b <= self.c:
            raise ValueError(f"tuple ({self.a}, {self.b}, {self.c}) not ordered")
        if not (self.lo <= self.a and self.c <= self.hi):
            raise ValueError("triangle must lie inside the variable range")


def mf_eval(mf: TriangularMf, x: float) -> float:
    """Degree of membership in [0, 1]; x is clamped into the variable range first."""
    x = min(max(x, mf.lo), mf.hi)
    if mf.a == mf.b and x <= mf.b:
        return 1.0
    if mf.b == mf.c and x >= mf.b:
        return 1.0
    if x < mf.a or x > mf.c:
        return 0.0
    if x < mf.b:
        return (x - mf.a) / (mf.b - mf.a)
    if x > mf.b:
        return (mf.c - x) / (mf.c - mf.b)
    return 1.0


@dataclass(frozen=True)
class LinguisticVariable:
    name: str
    lo: float
    hi: float
    terms: dict[str, TriangularMf]
    aliases: dict[str, str] = field(default_factory=dict)  # e.g. many -> high

    def membership(self, term: str, x: float) -> float:
        return mf_eval(self.terms[self.aliases.get(term, term)], x)

    def has_term(self, term: str) -> bool:
        return term in self.terms or term in self.aliases

    def covered(self, sweep_points: int = 1000) -> bool:
        """True when some term has positive membership everywhere in range."""
        for i in range(sweep_points + 1):
            x = self.lo + (self.hi - self.lo) * i / sweep_points
            if max(mf_eval(mf, x) for mf in self.terms.values()) <= 0.0:
                return False
        return True


@dataclass(frozen=True)
class Rule:
    """IF conjunction of (variable, term[, negated]) THEN output level."""

    antecedents: tuple[tuple[str, str, bool], ...]  # (variable, term, negated)
    consequent: str


@dataclass(frozen=True)
class Fis:
    name: str
    inputs: dict[str, LinguisticVariable]
    output_levels: dict[str, float]
    rules: tuple[Rule, ...]


@dataclass(frozen=True)
class FisConfig:
    """A set of axis systems plus the wiring that combines them."""

    name: str
    fis: dict[str, Fis]
    cascade: dict[str, tuple[str, ...]]  # combined fis name -> axis fis names
    ideal_inputs: dict[str, dict[str, float]] = field(default_factory=dict)


def fis_eval(fis: Fis, inputs: Mapping[str, float]) -> float:
    """Crisp output: strength-weighted average of the fired rules' output levels.

    A rule's strength is the minimum antecedent membership, with negated
    antecedents contributing 1 - membership.
    """
    for name in fis.inputs:
        if name not in inputs:
            raise KeyError(f"{fis.name}: missing input {name!r}")
    num = 0.0
    den = 0.0
    for rule in fis.rules:
        strength = 1.0
        for var_name, term, negated in rule.antecedents:
            mu = fis.inputs[var_name].membership(term, float(inputs[var_name]))
            strength = min(strength, 1.0 - mu if negated else mu)
            if strength == 0.0:
                break
        if strength > 0.0:
            num += strength * fis.output_levels[rule.consequent]
            den += strength
    if den == 0.0:
        raise NoRuleFired(f"{fis.name}: no rule fired for {dict(inputs)}")
    return num / den


@dataclass(frozen=True)
class CascadeResult:
    axis_scores: dict[str, float]
    combined: float


def cascade_eval(config: FisConfig, inputs: Mapping[str, Mapping[str, float]]) -> CascadeResult:
    """Evaluate every axis system present in `inputs`, then the combining stage.

    Axes without inputs are skipped (a test may not exercise, say, human
    independence). With two axes the combining system runs once; a third axis
    is folded in by a second pass of the same 3x3 stage.
    """
    axis_scores = {}
    for name, fis in config.fis.items():
        if name in config.cascade:
            continue
        if name in inputs:
            axis_scores[name] = fis_eval(fis, inputs[name])
    if not axis_scores:
        raise NoRuleFired("no axis inputs provided")

    if len(config.cascade) != 1:
        raise ValueError("config must declare exactly one combining stage")
    combined_name, wiring = next(iter(config.cascade.items()))
    combiner = config.fis[combined_name]
    active = [a for a in wiring if a in axis_scores]
    if len(active) == 1:
        combined = axis_scores[active[0]]
    else:
        first, second = active[0], active[1]
        var_a, var_b = list(combiner.inputs)[:2]
        combined = fis_eval(combiner, {var_a: axis_scores[first], var_b: axis_scores[second]})
        for extra in active[2:]:
            # fold further axes through the same two-input stage
            combined = fis_eval(combiner, {var_a: combined, var_b: axis_scores[extra]})
    return CascadeResult(axis_scores, combined)


def normalized_test_score(combined: float, combined_at_ideal: float) -> float:
    """Fraction of the achievable score, capped at 1."""
    if combined_at_ideal <= 0:
        raise ZeroDenominator("ideal-run score must be positive")
    return min(1.0, combined / combined_at_ideal)


def ideal_combined(config: FisConfig, inputs: Mapping[str, Mapping[str, float]]) -> float:
    """Combined score for an ideal mission run under the same environment.

    The mission-axis inputs are replaced by the config's ideal values
    (no crashes, no rollovers, full completion); all other axes keep the
    observed inputs.
    """
    patched = {name: dict(vals) for name, vals in inputs.items()}
    for axis, ideal_vals in config.ideal_inputs.items():
        if axis in patched:
            patched[axis] = dict(ideal_vals)
    return cascade_eval(config, patched).combined


def predictive_score(test_scores: Mapping[str, Optional[float]]) -> float:
    """Mission score: the geometric mean of the completed tests' scores.

    Missing tests (None) are dropped before the mean is taken.
    """
    present = {k: v for k, v in test_scores.items() if v is not None}
    if not present:
        raise AllTestsMissing("every test score is missing")
    for name, score in present.items():
        if not 0.0 < score <= 1.0:
            raise NonPositiveScore(f"{name}={score} outside (0, 1]")
    return math.exp(sum(1.0 / len(present) * math.log(v) for v in present.values()))


def sweep_outputs(fis: Fis, points_per_axis: int, seed: int = 0) -> list[float]:
    """Outputs over a quasi-random input sweep; NoRuleFired points are skipped.

    Sparse rulebases can leave corners of the input space uncovered; those
    points are surfaced as a warning rather than failing the sweep.
    """
    import random

    rng = random.Random(seed)
    outputs = []
    silent = 0
    for _ in range(points_per_axis):
        inputs = {
            name: var.lo + (var.hi - var.lo) * rng.random()
            for name, var in fis.inputs.items()
        }
        try:
            outputs.append(fis_eval(fis, inputs))
        except NoRuleFired:
            silent += 1
    if silent:
        warnings.warn(
            f"{fis.name}: {silent}/{points_per_axis} sweep points fired no rule",
            DataQualityWarning,
        )
    return outputs
