"""Contextual autonomy scoring with cascaded fuzzy inference.

Each complexity axis (mission, environment, human independence) is a small
zero-order inference system: triangular memberships on the inputs, constant
output levels, min AND, weighted-average defuzzification. Axis outputs feed a
combining system; per-test scores normalize against an ideal run and combine
across tests into a predictive mission score.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import DataQualityWarning, DecisiveError, ParseError, located


class TriangularMf(NamedTuple):
    """Triangle (a, b, c) over [lo, hi], with lo <= a <= b <= c <= hi; a == b or b == c
    makes a shoulder."""

    a: float
    b: float
    c: float
    lo: float
    hi: float


def mf_column(mf: TriangularMf, x: np.ndarray) -> np.ndarray:
    """Degree of membership in [0, 1] of every element of `x`, each clamped into the
    variable range first."""
    # min(max(x, lo), hi) as Python takes it, which keeps x when equal: -0.0 stays -0.0
    x = np.where(mf.lo > x, mf.lo, x)
    x = np.where(mf.hi < x, mf.hi, x)
    # the lower of the two ramps, each above 1 on the other side of the apex and +inf for
    # a shoulder; clipping keeps a -0.0 ramp value
    rising = (x - mf.a) / (mf.b - mf.a) if mf.a < mf.b else np.inf
    falling = (mf.c - x) / (mf.c - mf.b) if mf.b < mf.c else np.inf
    mu = np.minimum(rising, falling, out=np.empty(x.shape))
    return np.clip(mu, 0.0, 1.0, out=mu)


class LinguisticVariable(NamedTuple):
    lo: float
    hi: float
    terms: dict[str, TriangularMf]
    aliases: dict[str, str]  # e.g. many -> high

    def has_term(self, term: str) -> bool:
        return term in self.terms or term in self.aliases

    def covered(self, sweep_points: int = 1000) -> bool:
        """True when some term has positive membership everywhere in range."""
        x = self.lo + (self.hi - self.lo) * np.arange(sweep_points + 1) / sweep_points
        peak = np.max([mf_column(mf, x) for mf in self.terms.values()], axis=0)
        return bool((peak > 0.0).all())


class Rule(NamedTuple):
    """IF conjunction of (variable, term[, negated]) THEN output level."""

    antecedents: tuple[tuple[str, str, bool], ...]  # (variable, term, negated)
    consequent: str


class Fis(NamedTuple):
    name: str
    inputs: dict[str, LinguisticVariable]
    output_levels: dict[str, float]
    rules: tuple[Rule, ...]


class FisConfig(NamedTuple):
    """A set of axis systems plus the wiring that combines them."""

    fis: dict[str, Fis]
    cascade: dict[str, tuple[str, ...]]  # combined fis name -> axis fis names
    ideal_inputs: dict[str, dict[str, float]]


def fis_eval(fis: Fis, inputs: Mapping[str, float]) -> float:
    """Crisp output of one row: `_fis_columns` on `inputs`, a value for each input."""
    outputs, fired = _fis_columns(fis, {v: np.array([float(inputs[v])]) for v in fis.inputs})
    if not fired[0]:
        raise DecisiveError(_no_rule(fis, dict(inputs)))
    return float(outputs[0])


def _no_rule(fis: Fis, inputs: Mapping[str, float]) -> str:
    return f"{fis.name}: no rule fired for {json.dumps(inputs)}"


def _fis_columns(fis: Fis, inputs: Mapping[str, np.ndarray]):
    """Crisp outputs of rows of input columns: (outputs, fired), NaN where none fired.

    Each output is the strength-weighted average of the fired rules' output
    levels. A rule's strength is the minimum antecedent membership, with
    negated antecedents contributing 1 - membership. Each (variable, term)
    membership column is computed once.
    """
    size = len(next(iter(inputs.values())))
    memberships = {}
    num = np.zeros(size)
    den = np.zeros(size)
    for rule in fis.rules:
        strength = np.ones(size)
        for var_name, term, negated in rule.antecedents:
            var = fis.inputs[var_name]
            key = (var_name, var.aliases.get(term, term))
            if key not in memberships:
                memberships[key] = mf_column(var.terms[key[1]], inputs[var_name])
            mu = memberships[key]
            strength = np.minimum(strength, 1.0 - mu if negated else mu)
        fired = strength > 0.0
        np.add(num, strength * fis.output_levels[rule.consequent], out=num, where=fired)
        np.add(den, strength, out=den, where=fired)
    fired = den != 0.0
    return np.divide(num, den, out=np.full(size, np.nan), where=fired), fired


class CascadeColumns(NamedTuple):
    """One value per row: each axis score (NaN where the row skips the axis),
    the combined score and the combined score normalized against the ideal run."""

    axes: dict[str, np.ndarray]
    combined: np.ndarray
    normalized: np.ndarray


def cascade_columns(config: FisConfig, columns: Mapping[str, np.ndarray],
                    where: Callable[[int], tuple[str, str]]) -> CascadeColumns:
    """Evaluate the cascade over many rows at once, each stage on whole columns.

    `columns` holds every axis input variable as one equal-length column of
    row values, NaN for an empty cell. A row runs each axis system whose
    inputs it all has (a test may not exercise, say, human independence). One
    active axis is the row's combined score; more are folded, in wiring order,
    through the two-input combining stage. The ideal run replaces the inputs
    of each axis in `ideal_inputs` (in the shipped config: no crashes, no
    rollovers, full completion) and keeps the observed scores of the others,
    so each ideal axis is scored once. The normalized score is the fraction of
    the ideal combined score, capped at 1.

    The first failing row raises, with the error of the first stage it fails:
    no axis inputs or no wired axis (ParseError), or an axis, the combining
    stage or the ideal run firing no rule, or an ideal score that is not
    positive (DecisiveError). Each stage keeps only its own first failing row,
    which is exact: the stage holding the overall first failing row has it as
    its first. `where(row)` names a row (label, location) and is called for the
    one row that raises. The config's shape (one two-input combining stage,
    complete `ideal_inputs`, a wired axis) is checked when it loads.
    """
    failures = []  # (first failing row, error type, message) of each stage that fails

    def fail(rows: np.ndarray, error: type, message: Callable[[int], str]) -> None:
        if rows.any():
            row = int(np.argmax(rows))
            failures.append((row, error, message(row)))

    systems = {name: fis for name, fis in config.fis.items() if name not in config.cascade}
    active = {name: ~np.isnan([columns[v] for v in fis.inputs]).any(axis=0)
              for name, fis in systems.items()}
    fail(~np.any(list(active.values()), axis=0), ParseError,
         lambda i: "row matches no axis inputs")

    axes = {}
    for name, fis in systems.items():
        scores, fired = _fis_columns(fis, {v: columns[v] for v in fis.inputs})
        axes[name] = np.where(active[name], scores, np.nan)
        fail(active[name] & ~fired, DecisiveError, lambda i: _no_rule(
            fis, {v: float(columns[v][i]) for v in fis.inputs}))

    ((combiner_name, wiring),) = config.cascade.items()
    combiner = config.fis[combiner_name]
    combined = _combine(combiner, wiring, axes, active, fail)

    ideal_axes = dict(axes)
    for name, fis in systems.items():
        if name not in config.ideal_inputs or not active[name].any():
            continue
        try:
            score = fis_eval(fis, config.ideal_inputs[name])
        except DecisiveError as exc:
            score = math.nan
            fail(active[name], DecisiveError, lambda i: str(exc))
        ideal_axes[name] = np.where(active[name], score, np.nan)
    ideal = _combine(combiner, wiring, ideal_axes, active, fail)
    fail(ideal <= 0, DecisiveError, lambda i: "ideal-run score must be positive")

    if failures:
        row, error, message = min(failures, key=lambda failure: failure[0])  # first stage at a tie
        label, location = where(row)
        text = f"{label}: {message}"
        if issubclass(error, ParseError):
            raise error(text, location)
        raise error(located(text, None, location))
    # a row at or above the ideal scores 1.0 undivided: a subnormal ideal would overflow
    return CascadeColumns(axes, combined, np.divide(combined, ideal, out=np.ones_like(combined),
                                                    where=combined < ideal))


def _combine(combiner: Fis, wiring: tuple[str, ...], axes: Mapping[str, np.ndarray],
             active: Mapping[str, np.ndarray], fail: Callable) -> np.ndarray:
    """Each row's combined score: its active wired axes folded in wiring order.

    A row takes the score of its first active wired axis as it is; each
    further one goes through the combiner with the row's score so far. The
    combiner runs on whole columns, and only when some row has two active
    wired axes.
    """
    combined = np.full(len(axes[wiring[0]]), np.nan)
    started = np.zeros(len(combined), dtype=bool)
    for axis in wiring:
        both = active[axis] & started
        if both.any():
            inputs = dict(zip(combiner.inputs, (combined, axes[axis])))
            folded, fired = _fis_columns(combiner, inputs)
            fail(both & ~fired, DecisiveError, lambda i: _no_rule(
                combiner, {v: float(column[i]) for v, column in inputs.items()}))
            combined = np.where(both, folded, combined)
        combined = np.where(started, combined, axes[axis])
        started |= active[axis]
    fail(~started, ParseError, lambda i: f"row matches no axis that {combiner.name!r} combines")
    return combined


def predictive_score(test_scores: Mapping[str, Optional[float]]) -> float:
    """Mission score: the geometric mean of the completed tests' scores.

    Missing tests (None) are dropped before the mean is taken; at least one is present.
    """
    present = {k: v for k, v in test_scores.items() if v is not None}
    for name, score in present.items():
        if not 0.0 < score <= 1.0:
            raise DecisiveError(f"{name}={score} outside (0, 1]")
    weight = 1.0 / len(present)
    return math.exp(sum(map(weight.__mul__, map(math.log, present.values()))))


def sweep_outputs(fis: Fis, points_per_axis: int, seed: int = 0) -> list[float]:
    """Outputs over a quasi-random input sweep; points that fire no rule are skipped.

    Sparse rulebases can leave corners of the input space uncovered; those
    points are surfaced as a warning rather than failing the sweep.
    """
    import random

    rng = random.Random(seed)
    draws = [[var.lo + (var.hi - var.lo) * rng.random() for var in fis.inputs.values()]
             for _ in range(points_per_axis)]
    columns = np.array(draws, dtype=float).reshape(points_per_axis, len(fis.inputs))
    outputs, fired = _fis_columns(fis, dict(zip(fis.inputs, columns.T)))
    silent = int(np.count_nonzero(~fired))
    if silent:
        warnings.warn(
            f"{fis.name}: {silent}/{points_per_axis} sweep points fired no rule",
            DataQualityWarning,
        )
    return outputs[fired].tolist()
