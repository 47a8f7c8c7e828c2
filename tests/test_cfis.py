import bisect
import itertools
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decisive.cfis import (
    Fis,
    FisConfig,
    LinguisticVariable,
    Rule,
    TriangularMf,
    _fis_columns,
    cascade_columns,
    fis_eval,
    mf_column,
    predictive_score,
    sweep_outputs,
)
from decisive.errors import DataQualityWarning, DecisiveError, ParseError
from decisive.ingest import parse_fis_config

CONFIG_PATH = Path(__file__).resolve().parents[1] / "src" / "decisive" / "configs" / "takeoff_land.json"

# the seven published predictive rows: per-test normalized scores -> mission score
PREDICTIVE_ROWS = {
    "A": ([0.90, 1.0, 0.71, 0.87, 0.76, 0.73], 0.82),
    "B": ([1.0, 1.0, 1.0, 1.0, 0.5, 0.76], 0.85),
    "C": ([0.84, 1.0, 1.0, 0.87], 0.92),
    "D": ([0.83, 0.83, 1.0, 1.0, 0.5, 0.79], 0.80),
    "E": ([0.75, 0.97, 0.65, 0.75], 0.77),
    "F": ([0.99, 0.91], 0.95),
    "G": ([0.80, 1.0, 0.82, 0.89, 0.85], 0.87),
}


@pytest.fixture(scope="module")
def config():
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        cfg = parse_fis_config(CONFIG_PATH)
    assert not record
    return cfg


MC_IDEAL = {"crashes": 0, "rollovers": 0, "completion": 1.0}
EC_EASY = {"roll": 10.0, "pitch": 10.0, "lateral_obstruction": 3.6, "vertical_obstruction": 1.8}


def score_rows(config, rows):
    """`cascade_columns` over rows given as {variable: value} dicts; a missing
    variable is an empty cell. Row i is named ("r<i>", "f:<i + 2>")."""
    names = sorted({v for fis in config.fis.values() for v in fis.inputs})
    columns = {v: np.array([row.get(v, np.nan) for row in rows], dtype=float) for v in names}
    return cascade_columns(config, columns, lambda i: (f"r{i}", f"f:{i + 2}"))


def oracle_row(config, row):
    """One row's (axis scores, combined, normalized) from `fis_eval`, one system
    at a time: the per-row cascade and ideal run the column evaluator replaces."""
    axes = {name: fis for name, fis in config.fis.items() if name not in config.cascade}
    inputs = {name: {v: row[v] for v in fis.inputs} for name, fis in axes.items()
              if all(v in row for v in fis.inputs)}
    if not inputs:
        raise ParseError("row matches no axis inputs")

    def cascade(inputs):
        scores = {name: fis_eval(fis, inputs[name]) for name, fis in axes.items()
                  if name in inputs}
        ((combiner_name, wiring),) = config.cascade.items()
        combiner = config.fis[combiner_name]
        var_a, var_b = combiner.inputs
        active = [a for a in wiring if a in scores]
        if not active:
            raise ParseError(f"row matches no axis that {combiner.name!r} combines")
        combined = scores[active[0]]
        for extra in active[1:]:
            combined = fis_eval(combiner, {var_a: combined, var_b: scores[extra]})
        return scores, combined

    scores, combined = cascade(inputs)
    _, ideal = cascade({name: config.ideal_inputs.get(name, vals)
                        for name, vals in inputs.items()})
    if ideal <= 0:
        raise DecisiveError("ideal-run score must be positive")
    return scores, combined, min(1.0, combined / ideal)


def bits(x):
    return None if x is None or math.isnan(x) else float(x).hex()


def assert_matches_oracle(config, rows):
    """The column evaluator equals the oracle bit for bit on the rows the oracle
    scores, and raises the oracle's error, of the same exit code's class, for the
    first row it fails."""
    outcomes = []
    for row in rows:
        try:
            outcomes.append(oracle_row(config, row))
        except DecisiveError as exc:
            outcomes.append(exc)
    failing = [i for i, out in enumerate(outcomes) if isinstance(out, Exception)]
    if failing:
        first = outcomes[failing[0]]
        with pytest.raises(DecisiveError) as exc:
            score_rows(config, rows)
        assert type(exc.value) is type(first)
        assert str(exc.value) == f"r{failing[0]}: {first} (at f:{failing[0] + 2})"
    good = [(row, out) for row, out in zip(rows, outcomes) if not isinstance(out, Exception)]
    scored = score_rows(config, [row for row, _ in good])
    for k, (_, (scores, combined, normalized)) in enumerate(good):
        for name, column in scored.axes.items():
            assert bits(column[k]) == bits(scores.get(name))
        assert bits(scored.combined[k]) == bits(combined)
        assert bits(scored.normalized[k]) == bits(normalized)


GRID = 8  # triangle corners and many inputs sit on eighths of the range, so shoulders and apexes recur


@st.composite
def variables(draw):
    lo = draw(st.sampled_from([0.0, -1.0, 0.5]))
    hi = lo + draw(st.sampled_from([1.0, 3.0, 2.4]))
    corners = st.integers(0, GRID).map(lambda k: lo + (hi - lo) * k / GRID)
    terms = {}
    for t in range(draw(st.integers(1, 3))):
        a, b, c = sorted(draw(st.lists(corners, min_size=3, max_size=3)))
        terms[f"t{t}"] = TriangularMf(a, b, c)
    return LinguisticVariable(lo, hi, terms)


@st.composite
def systems(draw, name, var_names):
    inputs = {v: draw(variables()) for v in var_names}
    levels = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        used = draw(st.lists(st.sampled_from(var_names), min_size=1, unique=True))
        antecedents = tuple(
            (v, draw(st.sampled_from(sorted(inputs[v].terms))), draw(st.booleans()))
            for v in used)
        rules.append(Rule(antecedents, draw(st.sampled_from(levels))))
    return Fis(name, inputs, tuple(rules))


def cell(var):
    """A cell value: on the grid, anywhere in range, or outside it (clamped)."""
    span = var.hi - var.lo
    return st.one_of(st.integers(0, GRID).map(lambda k: var.lo + span * k / GRID),
                     st.floats(var.lo - span, var.hi + span))


@st.composite
def configs_and_rows(draw):
    n_axes = draw(st.integers(1, 3))
    axes = {f"a{k}": draw(systems(f"a{k}", [f"a{k}v{j}" for j in range(draw(st.integers(1, 3)))]))
            for k in range(n_axes)}
    combiner = draw(systems("comb", ["p", "q"]))
    wiring = tuple(draw(st.permutations(sorted(axes)))[:draw(st.integers(1, n_axes))])
    ideal_inputs = {name: {v: draw(cell(var)) for v, var in fis.inputs.items()}
                    for name, fis in axes.items() if draw(st.booleans())}
    config = FisConfig({**axes, "comb": combiner}, {"comb": wiring}, ideal_inputs)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = {}
        for fis in axes.values():
            for v, var in fis.inputs.items():
                if draw(st.integers(0, 5)):  # one cell in six is empty
                    row[v] = draw(cell(var))
        rows.append(row)
    return config, rows


def clamp(var: LinguisticVariable, x: float) -> float:
    """Scalar reference for `LinguisticVariable.clamp`."""
    return min(max(x, var.lo), var.hi)


def mf_eval(mf: TriangularMf, x: float) -> float:
    """Scalar reference for `mf_column`: one value, case by case."""
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


def fis_scalar(fis: Fis, inputs) -> float | None:
    """Scalar reference for the fuzzy evaluator: one row, rule by rule; None where no rule fires."""
    num = 0.0
    den = 0.0
    for rule in fis.rules:
        strength = 1.0
        for var_name, term, negated in rule.antecedents:
            var = fis.inputs[var_name]
            mu = mf_eval(var.terms[term], clamp(var, float(inputs[var_name])))
            strength = min(strength, 1.0 - mu if negated else mu)
            if strength == 0.0:
                break
        if strength > 0.0:
            num += strength * rule.level
            den += strength
    return None if den == 0.0 else num / den


def breakpoints(var: LinguisticVariable) -> list[float]:
    """The range ends and every term corner, sorted and distinct."""
    return sorted({var.lo, var.hi, *(p for mf in var.terms.values() for p in mf)})


def representative(var: LinguisticVariable, x: float) -> float:
    """The decisive point of the cell holding `x`: its clamped value if that is a breakpoint,
    else the point of the gap it lies in."""
    x = clamp(var, x)
    corners = breakpoints(var)
    if x in corners:
        return x
    k = bisect.bisect(corners, x)
    return corners[k - 1] / 2 + corners[k] / 2


def fires_exactly(fis: Fis, inputs) -> bool:
    """Whether some rule fires on `inputs` in exact arithmetic: `mf_eval`'s cases on fractions,
    where no ramp rounds to 0 just past its foot or to 1 just short of its apex."""
    def mu(mf, x):
        x = Fraction(x)
        a, b, c = map(Fraction, mf)
        if (a == b and x <= b) or (b == c and x >= b):
            return Fraction(1)
        if x <= a or x >= c:
            return Fraction(0)
        return (x - a) / (b - a) if x < b else (c - x) / (c - b) if x > b else Fraction(1)

    def strength(var_name, term, negated):
        var = fis.inputs[var_name]
        m = mu(var.terms[term], clamp(var, inputs[var_name]))
        return 1 - m if negated else m

    return any(all(strength(*antecedent) > 0 for antecedent in rule.antecedents)
               for rule in fis.rules)


class TestMembership:
    def test_left_shoulder_apex(self):
        low = TriangularMf(0.0, 0.0, 1.25)
        assert mf_column(low, np.array([0.0])).tolist() == [1.0]

    def test_ramp_midpoint(self):
        low = TriangularMf(0.0, 0.0, 1.25)
        assert mf_column(low, np.array([0.625])).tolist() == pytest.approx([0.5])

    def test_interior_triangle(self):
        med = TriangularMf(0.5, 1.5, 2.5)
        assert mf_column(med, np.array([1.0])).tolist() == pytest.approx([0.5])
        assert mf_column(med, np.array([1.5, 3.0])).tolist() == [1.0, 0.0]

    def test_right_shoulder(self):
        high = TriangularMf(0.7, 1.0, 1.0)
        assert mf_column(high, np.array([1.0])).tolist() == [1.0]

    @given(x=st.floats(-1, 4))
    def test_bounded(self, x):
        med = TriangularMf(0.5, 1.5, 2.5)
        assert 0.0 <= mf_column(med, np.array([x]))[0] <= 1.0

    @given(var=variables(), data=st.data())
    def test_column_bit_identical_to_scalar(self, var, data):
        xs = data.draw(st.lists(cell(var), min_size=1, max_size=20))
        for mf in var.terms.values():
            column = mf_column(mf, var.clamp(np.array(xs)))
            assert [bits(m) for m in column.tolist()] == [bits(mf_eval(mf, clamp(var, x)))
                                                          for x in xs]

    def test_column_keeps_the_sign_of_zero(self):
        # the ramp gives -0.0 at -0.0, and clipping keeps it
        ramp = TriangularMf(0.0, 0.125, 0.125)
        assert bits(mf_column(ramp, np.array([-0.0]))[0]) == bits(mf_eval(ramp, -0.0)) == "-0x0.0p+0"

    XS = [-5.0, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 99.0]

    @pytest.mark.parametrize("mf, lo, hi", [
        (TriangularMf(1.0, 1.0, 1.0), 0.0, 3.0),  # a == b == c: 1 everywhere
        (TriangularMf(0.0, 0.0, 0.0), 0.0, 3.0),  # a == b == c == lo
        (TriangularMf(3.0, 3.0, 3.0), 0.0, 3.0),  # a == b == c == hi
        (TriangularMf(0.0, 1.0, 2.0), 0.0, 3.0),  # a == lo: the rising ramp starts at the clamp
        (TriangularMf(0.0, 0.0, 2.0), 0.0, 3.0),  # a == b == lo: a left shoulder
        (TriangularMf(0.0, 1.5, 3.0), 0.0, 3.0),  # a == lo and c == hi
        (TriangularMf(-1.0, -0.0, 1.0), -1.0, 1.0),  # the apex at -0.0
        (TriangularMf(-1.0, 0.0, 0.0), -1.0, 1.0),  # a right shoulder at 0.0
        (TriangularMf(-0.0, 0.5, 1.0), -0.0, 1.0),  # a == lo == -0.0
    ])
    def test_edge_triangles_bit_identical_to_scalar(self, mf, lo, hi):
        var = LinguisticVariable(lo, hi, {"t": mf})
        column = mf_column(mf, var.clamp(np.array(self.XS)))
        assert column.shape == (len(self.XS),)
        assert [bits(m) for m in column.tolist()] == [bits(mf_eval(mf, clamp(var, x)))
                                                      for x in self.XS]

    @given(var=variables(), samples=st.integers(1, 64))
    def test_covered_equals_scalar_sweep(self, var, samples):
        points = var.decisive_points().tolist()
        corners = breakpoints(var)
        # sorted and distinct, every breakpoint, and one point inside each gap between two
        assert points == sorted(set(points)) and set(corners) <= set(points)
        inside = [sum(a < p < b for p in points) for a, b in zip(corners, corners[1:])]
        assert inside == [1] * (len(corners) - 1)
        expected = all(max(mf_eval(mf, x) for mf in var.terms.values()) > 0.0 for x in points)
        assert var.covered() is expected
        if expected:  # covered at the decisive points, so at every point of a uniform sweep
            sweep = (var.lo + (var.hi - var.lo) * i / samples for i in range(samples + 1))
            assert all(max(mf_eval(mf, x) for mf in var.terms.values()) > 0.0 for x in sweep)

    @pytest.mark.parametrize("hi", [2.0, 3.0])
    def test_feet_that_touch_leave_a_gap_on_any_range(self, hi):
        # low and high are both 0 at x = 1, which a sweep of 1,001 points over [0, 3] misses
        var = LinguisticVariable(0.0, hi, {"low": TriangularMf(0.0, 0.0, 1.0),
                                           "high": TriangularMf(1.0, hi, hi)})
        assert var.covered() is False


class TestClamp:
    SHOULDERS = LinguisticVariable(0.0, 3.0, {"low": TriangularMf(0.0, 0.0, 1.25),
                                              "high": TriangularMf(1.75, 3.0, 3.0)})

    def test_clamping_outliers(self):
        x = self.SHOULDERS.clamp(np.array([99.0, -5.0, 1.5]))
        assert x.tolist() == [3.0, 0.0, 1.5]
        high, low = self.SHOULDERS.terms["high"], self.SHOULDERS.terms["low"]
        assert mf_column(high, x[:1]).tolist() == [1.0]  # clamped to hi
        assert mf_column(low, x[1:2]).tolist() == [1.0]  # clamped to lo

    @given(xs=st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
    def test_column_bit_identical_to_scalar(self, xs):
        column = self.SHOULDERS.clamp(np.array(xs))
        assert [bits(x) for x in column.tolist()] == [bits(clamp(self.SHOULDERS, x)) for x in xs]

    def test_keeps_the_sign_of_zero(self):
        # Python's max(-0.0, 0.0) keeps -0.0, and so does the clamp
        x = self.SHOULDERS.clamp(np.array([-0.0, 0.0]))
        assert [bits(v) for v in x.tolist()] == [bits(clamp(self.SHOULDERS, v)) for v in (-0.0, 0.0)]
        assert [bits(v) for v in x.tolist()] == ["-0x0.0p+0", "0x0.0p+0"]

    def test_shipped_outliers_score_as_the_range_ends(self, config):
        mc = config.fis["mc"]
        outside = fis_eval(mc, {"crashes": -5.0, "rollovers": 99.0, "completion": 2.0})
        assert bits(outside) == bits(fis_eval(mc, {"crashes": 0.0, "rollovers": 3.0,
                                                   "completion": 1.0}))

    @given(data=st.data())
    def test_outside_the_range_evaluates_as_its_end(self, data):
        fis = data.draw(systems("s", [f"v{j}" for j in range(data.draw(st.integers(1, 3)))]))
        outside, ends = {}, {}
        for v, var in fis.inputs.items():
            span = var.hi - var.lo
            below = data.draw(st.booleans())
            beyond = data.draw(st.floats(0.0, span, exclude_min=True))
            outside[v] = var.lo - beyond if below else var.hi + beyond
            ends[v] = var.lo if below else var.hi

        def outcome(inputs):
            try:
                return bits(fis_eval(fis, inputs))
            except DecisiveError:
                return None

        assert outcome(outside) == outcome(ends)


class TestFisEval:
    def test_perfect_run_scores_one(self, config):
        out = fis_eval(config.fis["mc"], {"crashes": 0, "rollovers": 0, "completion": 1.0})
        assert out == 1.0

    def test_disastrous_run_scores_zero(self, config):
        out = fis_eval(config.fis["mc"], {"crashes": 3, "rollovers": 3, "completion": 0.0})
        assert out == 0.0

    def test_output_bounded_by_fired_consequents(self, config):
        mc = config.fis["mc"]
        out = fis_eval(mc, {"crashes": 1.0, "rollovers": 0.4, "completion": 0.8})
        levels = sorted(rule.level for rule in mc.rules)
        assert levels[0] <= out <= levels[-1]

    def test_scale_free_in_rule_strength(self):
        # two symmetric configs where all memberships double: output unchanged
        var = LinguisticVariable(
            0.0, 1.0,
            {"lo": TriangularMf(0.0, 0.0, 1.0),
             "hi": TriangularMf(0.0, 1.0, 1.0)},
        )
        fis = Fis("demo", {"x": var},
                  (Rule((("x", "lo", False),), 0.0), Rule((("x", "hi", False),), 1.0)))
        # weighted average is invariant to common scaling of the strengths
        out = fis_eval(fis, {"x": 0.25})
        assert out == pytest.approx(0.25)

    def test_no_rule_fired(self):
        var = LinguisticVariable(0.0, 1.0, {"lo": TriangularMf(0.0, 0.0, 0.4)})
        fis = Fis("gappy", {"x": var}, (Rule((("x", "lo", False),), 0.0),))
        with pytest.raises(DecisiveError, match=r'^gappy: no rule fired for \{"x": 0.9\}$'):
            fis_eval(fis, {"x": 0.9})

    @given(data=st.data())
    def test_bit_identical_to_scalar_rule_loop(self, data):
        fis = data.draw(systems("s", [f"v{j}" for j in range(data.draw(st.integers(1, 3)))]))
        inputs = {v: data.draw(cell(var)) for v, var in fis.inputs.items()}
        expected = fis_scalar(fis, inputs)
        if expected is None:
            with pytest.raises(DecisiveError, match="^s: no rule fired for "):
                fis_eval(fis, inputs)
        else:
            assert bits(fis_eval(fis, inputs)) == bits(expected)

    @given(data=st.data())
    def test_sweep_bit_identical_to_scalar_rule_loop(self, data):
        fis = data.draw(systems("s", [f"v{j}" for j in range(data.draw(st.integers(1, 3)))]))
        # the sweep runs the grid in row-major order of the inputs' decisive points
        grid = [dict(zip(fis.inputs, p))
                for p in itertools.product(*(var.decisive_points().tolist()
                                             for var in fis.inputs.values()))]
        expected = [fis_scalar(fis, p) for p in grid]
        silent = expected.count(None)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            outputs = sweep_outputs(fis)
        assert [bits(o) for o in outputs] == [bits(o) for o in expected if o is not None]
        assert [str(w.message) for w in record] == (
            [f"s: {silent}/{len(grid)} input cells fired no rule"] if silent else [])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_each_row_fires_as_its_cell_representative(self, data):
        fis = data.draw(systems("s", [f"v{j}" for j in range(data.draw(st.integers(1, 3)))]))
        rows = data.draw(st.lists(st.fixed_dictionaries(
            {v: cell(var) for v, var in fis.inputs.items()}), min_size=1, max_size=20))
        cells = [{v: representative(var, row[v]) for v, var in fis.inputs.items()}
                 for row in rows]
        _, fired = _fis_columns(fis, {v: np.array([c[v] for c in cells]) for v in fis.inputs})
        # the representatives, which the sweep's grid holds, fire as the rows do in exact
        # arithmetic, and as `fis_scalar` says
        assert fired.tolist() == [fires_exactly(fis, row) for row in rows]
        assert fired.tolist() == [fis_scalar(fis, c) is not None for c in cells]


class TestCascade:
    def test_high_high_very_good(self, config):
        assert fis_eval(config.fis["combined"], {"mc": 1.0, "ec": 1.0}) == 1.0

    def test_low_low_very_bad(self, config):
        assert fis_eval(config.fis["combined"], {"mc": 0.0, "ec": 0.0}) == 0.0

    def test_medium_medium(self, config):
        assert fis_eval(config.fis["combined"], {"mc": 0.5, "ec": 0.5}) == 0.5

    def test_full_cascade(self, config):
        scored = score_rows(config, [{**MC_IDEAL, **EC_EASY}])
        assert scored.axes["mc"][0] == 1.0
        assert scored.axes["ec"][0] == 1.0
        assert scored.combined[0] == 1.0

    def test_missing_axis_skipped(self, config):
        scored = score_rows(config, [MC_IDEAL])
        assert math.isnan(scored.axes["ec"][0])
        assert scored.combined[0] == scored.axes["mc"][0]

    def test_three_axis_fold(self, config):
        # a third axis folds through the same combining table
        cfg = FisConfig(
            fis={"mc": config.fis["mc"], "ec": config.fis["ec"],
                 "hi": config.fis["mc"], "combined": config.fis["combined"]},
            cascade={"combined": ("mc", "ec", "hi")},
            ideal_inputs={},
        )
        assert score_rows(cfg, [{**MC_IDEAL, **EC_EASY}]).combined[0] == 1.0

    def test_shipped_config_matches_oracle(self, config):
        rows = [{**MC_IDEAL, **EC_EASY},
                {"crashes": 2, "rollovers": 1, "completion": 0.5, "roll": 5.0, "pitch": 5.0,
                 "lateral_obstruction": 2.4, "vertical_obstruction": 1.2},
                {"crashes": 1, "rollovers": 0, "completion": 0.9},
                {"crashes": 3, "rollovers": 3, "completion": 0.0}]
        assert_matches_oracle(config, rows)

    def test_no_rows(self, config):
        scored = score_rows(config, [])
        assert len(scored.combined) == len(scored.normalized) == 0

    @settings(max_examples=150, deadline=None)
    @given(configs_and_rows())
    def test_bit_identical_to_per_row_oracle(self, case):
        assert_matches_oracle(*case)


def one_axis(ideal: float) -> FisConfig:
    """One axis whose score is its input, v in [0, 1], and whose ideal run sets v = `ideal`."""
    var = LinguisticVariable(0.0, 1.0, {"lo": TriangularMf(0.0, 0.0, 1.0),
                                        "hi": TriangularMf(0.0, 1.0, 1.0)})
    axis = Fis("x", {"v": var},
               (Rule((("v", "lo", False),), 0.0), Rule((("v", "hi", False),), 1.0)))
    combiner = Fis("comb", {}, ())
    return FisConfig({"x": axis, "comb": combiner}, {"comb": ("x",)}, {"x": {"v": ideal}})


def combining_gap() -> FisConfig:
    """Axes x, scoring its input v, and y, scoring w where z > 0 and firing no rule at
    w = 1, z = 0; wired (x, y) into a combiner that fires only where both inputs are above 0."""
    unit = LinguisticVariable(0.0, 1.0, {"lo": TriangularMf(0.0, 0.0, 1.0),
                                         "hi": TriangularMf(0.0, 1.0, 1.0)})
    x = Fis("x", {"v": unit},
            (Rule((("v", "lo", False),), 0.0), Rule((("v", "hi", False),), 1.0)))
    y = Fis("y", {"w": unit, "z": unit},
            (Rule((("w", "lo", False),), 0.0),
             Rule((("w", "hi", False), ("z", "hi", False)), 1.0)))
    comb = Fis("comb", {"p": unit, "q": unit},
               (Rule((("p", "hi", False), ("q", "hi", False)), 1.0),))
    return FisConfig({"x": x, "y": y, "comb": comb}, {"comb": ("x", "y")}, {})


class TestNormalizedScore:
    def test_equal_to_ideal(self):
        assert score_rows(one_axis(0.9), [{"v": 0.9}]).normalized[0] == 1.0

    def test_half(self):
        assert score_rows(one_axis(1.0), [{"v": 0.5}]).normalized[0] == 0.5

    def test_capped(self):
        assert score_rows(one_axis(0.25), [{"v": 0.5}]).normalized[0] == 1.0

    def test_zero_denominator(self):
        with pytest.raises(DecisiveError, match=r"^r0: ideal-run score must be positive \(at f:2\)$"):
            score_rows(one_axis(0.0), [{"v": 0.5}])

    def test_ideal_run_patches_mission_inputs(self, config):
        row = {"crashes": 2, "rollovers": 1, "completion": 0.5, "roll": 5.0, "pitch": 5.0,
               "lateral_obstruction": 2.4, "vertical_obstruction": 1.2}
        scored = score_rows(config, [row])
        # the ideal run keeps the observed environment score and scores mc at its ideal, 1
        ideal = fis_eval(config.fis["combined"], {"mc": 1.0, "ec": scored.axes["ec"][0]})
        assert ideal >= scored.combined[0]
        assert scored.normalized[0] == scored.combined[0] / ideal


class TestCascadeErrors:
    NO_RULE = {"crashes": 0, "rollovers": 0, "completion": 1.0,
               "roll": 10, "pitch": 0, "lateral_obstruction": 1.2, "vertical_obstruction": 0.6}

    def test_no_rule_names_row_and_inputs_in_config_order(self, config):
        with pytest.raises(DecisiveError) as exc:
            score_rows(config, [MC_IDEAL, self.NO_RULE])
        assert type(exc.value) is DecisiveError
        assert str(exc.value) == (
            'r1: ec: no rule fired for {"roll": 10.0, "pitch": 0.0, '
            '"lateral_obstruction": 1.2, "vertical_obstruction": 0.6} (at f:3)')

    def test_no_axis_row_after_no_rule_row(self, config):
        with pytest.raises(DecisiveError, match=r"^r0: ec: ") as exc:
            score_rows(config, [self.NO_RULE, {"roll": 1.0}])
        assert type(exc.value) is DecisiveError

    def test_no_rule_row_after_no_axis_row(self, config):
        with pytest.raises(ParseError) as exc:
            score_rows(config, [{"roll": 1.0}, self.NO_RULE])
        assert str(exc.value) == "r0: row matches no axis inputs (at f:2)"

    def test_row_with_only_an_unwired_axis(self, config):
        cfg = FisConfig(config.fis, {"combined": ("mc",)}, config.ideal_inputs)
        with pytest.raises(ParseError) as exc:
            score_rows(cfg, [MC_IDEAL, EC_EASY])
        assert str(exc.value) == "r1: row matches no axis that 'combined' combines (at f:3)"

    def test_axis_fails_before_ideal_run(self):
        # the ideal run scores v = 0 as 0; the observed axis fires no rule first
        cfg = one_axis(0.0)
        gappy = Fis("x", cfg.fis["x"].inputs,
                    (Rule((("v", "lo", False), ("v", "hi", False)), 0.0),))
        cfg = FisConfig({"x": gappy, "comb": cfg.fis["comb"]}, cfg.cascade, {})
        with pytest.raises(DecisiveError, match=r'^r0: x: no rule fired for \{"v": 1.0\}'):
            score_rows(cfg, [{"v": 1.0}])

    def test_combining_stage_names_the_first_failing_rows_own_inputs(self):
        # r0 skips x, so r1 is the first row the combiner folds; r2 fails it too
        rows = [{"w": 0.5, "z": 1.0}, {"v": 0.25, "w": 0.0, "z": 1.0},
                {"v": 0.0, "w": 0.75, "z": 1.0}]
        with pytest.raises(DecisiveError) as exc:
            score_rows(combining_gap(), rows)
        assert type(exc.value) is DecisiveError
        assert str(exc.value) == 'r1: comb: no rule fired for {"p": 0.25, "q": 0.0} (at f:3)'

    def test_skipped_axis_reports_no_rule_of_its_own(self):
        # r0 skips y (no z), and its w = 1 fires none of y's rules; r1 fails the combiner
        cfg = combining_gap()
        skipping = {"v": 0.5, "w": 1.0}
        scored = score_rows(cfg, [skipping])
        assert math.isnan(scored.axes["y"][0])
        assert scored.combined[0] == 0.5
        with pytest.raises(DecisiveError) as exc:
            score_rows(cfg, [skipping, {"v": 0.25, "w": 0.0, "z": 1.0}])
        assert str(exc.value) == 'r1: comb: no rule fired for {"p": 0.25, "q": 0.0} (at f:3)'


class TestPredictiveScore:
    @pytest.mark.parametrize("row", sorted(PREDICTIVE_ROWS))
    def test_published_rows(self, row):
        scores, expected = PREDICTIVE_ROWS[row]
        table = {f"test{i}": s for i, s in enumerate(scores)}
        assert predictive_score(table) == pytest.approx(expected, abs=0.01)

    def test_missing_tests_dropped(self):
        table = {"a": 0.84, "b": None, "c": 1.0, "d": 1.0, "e": 0.87}
        assert predictive_score(table) == pytest.approx((0.84 * 0.87) ** 0.25, abs=1e-9)

    def test_all_ones(self):
        assert predictive_score({"a": 1.0, "b": 1.0}) == pytest.approx(1.0)

    def test_between_min_and_max(self):
        table = {"a": 0.6, "b": 0.9, "c": 0.75}
        score = predictive_score(table)
        assert 0.6 <= score <= 0.9

    def test_non_positive_score(self):
        with pytest.raises(DecisiveError, match=r"a=0.0 outside \(0, 1\]"):
            predictive_score({"a": 0.0})


class TestShippedConfig:
    def test_coverage_of_every_variable(self, config):
        for fis in config.fis.values():
            for name, var in fis.inputs.items():
                assert var.covered(), f"{fis.name}.{name} has gaps"

    # input cells of the shipped stages that fire no rule, of the grid's cells; mc's lie at
    # crashes = 0 or at rollovers = 0 (81 each), where low is 1 and "not low" 0
    SILENT_CELLS = {"mc": "162/2197", "ec": "21942/24167"}

    def test_sweep_outputs_in_unit_interval(self, config):
        for fis in config.fis.values():
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                outputs = sweep_outputs(fis)
            expected = ([f"{fis.name}: {self.SILENT_CELLS[fis.name]} input cells fired no rule"]
                        if fis.name in self.SILENT_CELLS else [])
            assert [str(w.message) for w in record] == expected
            assert all(w.category is DataQualityWarning for w in record)
            assert outputs, f"{fis.name}: sweep produced nothing"
            assert all(0.0 <= o <= 1.0 for o in outputs)

    def test_combined_fires_everywhere(self, config):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(sweep_outputs(config.fis["combined"])) == 25
