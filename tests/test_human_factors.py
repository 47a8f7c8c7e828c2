import random
import sys
import warnings
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decisive import human_factors, ingest, stats, tables
from decisive.cli import main
from decisive.errors import DataQualityWarning, DecisiveError
from decisive.human_factors import (
    SagatColumns,
    SeParams,
    SurveyColumns,
    attention_allocation,
    osa,
    osa_by_participant,
    perception_vectors,
    sagat_correct_rates,
    trust_pipeline,
)
from decisive.ingest import ParseReport
from decisive.report import render_tables
from decisive.stats import mann_whitney, mean_std
from test_cli import CAMPAIGN, TRUST
from test_stats import reference_iqr_filter, reference_welch_t

# golden attention-allocation column: ten elements summing to 1.000
GOLDEN_F_COLUMN = [0.116, 0.125, 0.135, 0.143, 0.112, 0.114, 0.054, 0.051, 0.051, 0.099]


class TestAttentionAllocation:
    def test_normalization(self):
        params = [
            SeParams("a", 2.0, 1.0, 1.0, 1.0),
            SeParams("b", 1.0, 1.0, 1.0, 1.0),
            SeParams("c", 1.0, 1.0, 1.0, 1.0),
        ]
        f = attention_allocation(params)
        assert f == {"a": 0.5, "b": 0.25, "c": 0.25}

    @given(
        values=st.lists(
            st.tuples(
                st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0.1, 10)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_always_a_probability_vector(self, values):
        params = [SeParams(f"se{i}", *v) for i, v in enumerate(values)]
        f = attention_allocation(params)
        assert sum(f.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 < x <= 1.0 for x in f.values())

    def test_effort_enters_inversely(self):
        easy = SeParams("easy", 1.0, 0.5, 1.0, 1.0)
        hard = SeParams("hard", 1.0, 2.0, 1.0, 1.0)
        f = attention_allocation([easy, hard])
        assert f["easy"] > f["hard"]

    def test_golden_column_sums_to_one(self):
        assert sum(GOLDEN_F_COLUMN) == pytest.approx(1.0, abs=1e-9)


class Answer(NamedTuple):
    """One SAGAT answer, a row as the row-based reference below reads it."""

    participant: str
    question_id: str
    se_id: str
    sa_level: int  # 1 = perception, 2 = comprehension
    correct: bool


def response(participant, se, level, correct, q="q"):
    return Answer(participant, q, se, level, correct)


def sagat(rows):
    """SagatColumns holding `rows`, Answers in file order; the record keeps no question ids."""
    if not rows:
        return SagatColumns([], [], [], [])
    participants, _, *columns = map(list, zip(*rows))
    return SagatColumns(participants, *columns)


class TestSagat:
    def test_correct_rate(self):
        rs = [response("p1", "alt", 1, c) for c in (True, True, True, False)]
        assert sagat_correct_rates(sagat(rs))["alt"] == (4, pytest.approx(0.75))

    def test_recount_oracle(self):
        rng = random.Random(31)
        rs = []
        for i in range(200):
            rs.append(response(f"p{i % 7}", f"se{i % 5}", rng.choice([1, 2]), rng.random() < 0.6, q=f"q{i}"))
        rates = sagat_correct_rates(sagat(rs))
        for se in {r.se_id for r in rs}:
            mine = [r for r in rs if r.se_id == se]
            right = sum(r.correct for r in mine)
            assert rates[se] == (len(mine), pytest.approx(right / len(mine)))

    @pytest.mark.parametrize("answers, expected", [
        ([(1, False)], 0.0),
        ([(2, False), (1, False)], 0.0),
        ([(1, True)], 0.5),
        ([(1, True), (2, False)], 0.5),
        ([(2, True)], 1.0),
        ([(1, True), (2, True)], 1.0),
        ([(2, True), (1, False)], 1.0),
    ])
    def test_perception_levels(self, answers, expected):
        rs = [response("p", "se", level, correct) for level, correct in answers]
        assert perception_vectors(sagat(rs)) == {"p": {"se": expected}}
        assert REFERENCE_PERCEPTION[reference_perception_level(rs)] == expected

    def test_all_undetected_vector(self):
        rs = [response("p1", f"se{i}", 1, False, q=f"q{i}") for i in range(4)]
        vec = perception_vectors(sagat(rs))["p1"]
        assert all(v == 0.0 for v in vec.values())


# --- the row-based SA scoring the column code replaced, kept as its reference ---------------

REFERENCE_PERCEPTION = {"undetected": 0.0, "detected": 0.5, "comprehended": 1.0}


def reference_perception_level(rows) -> str:
    """Correct at level 2 means comprehended; otherwise correct at level 1, detected."""
    if any(r.correct and r.sa_level == 2 for r in rows):
        return "comprehended"
    if any(r.correct and r.sa_level == 1 for r in rows):
        return "detected"
    return "undetected"


def reference_correct_rates(rows):
    if not rows:
        raise DecisiveError("no responses")
    asked, right = {}, {}
    for r in rows:
        asked[r.se_id] = asked.get(r.se_id, 0) + 1
        right[r.se_id] = right.get(r.se_id, 0) + (1 if r.correct else 0)
    return {se: (n, right[se] / n) for se, n in asked.items()}


def reference_vectors(rows):
    grouped = {}
    for r in rows:
        grouped.setdefault(r.participant, {}).setdefault(r.se_id, []).append(r)
    return {participant: {se: REFERENCE_PERCEPTION[reference_perception_level(rs)]
                          for se, rs in by_se.items()}
            for participant, by_se in grouped.items()}


def reference_osa_by_mission(weights, vectors, missions):
    """Per-mission (mean, std) of OSA over participants in file order, plus an "overall"
    row over the sorted weighted elements."""
    groups = {name: list(ses) for name, ses in missions.items()}
    groups["overall"] = sorted(weights)
    out = {}
    for name, elements in groups.items():
        scores = []
        for perception in vectors.values():
            applicable = {se: weights[se] for se in elements
                          if se in weights and se in perception}
            if applicable:
                scores.append(osa(applicable, {se: perception[se] for se in applicable}))
        if scores:
            out[name] = mean_std(scores)
    return out


def reference_sa_tables(rows, weights, missions):
    """`tables.sa_tables` a row at a time: each table as (title, headers, rows)."""
    rates = reference_correct_rates(rows)
    vectors = reference_vectors(rows)
    if weights is None:
        weights = {se: 1.0 for se in rates}
    out = [("SAGAT correct rate", ["element", "asked", "correct rate"],
            [(se, *rates[se]) for se in sorted(rates)])]
    osa_rows, scores = [], []
    for participant in sorted(vectors):
        perception = vectors[participant]
        applicable = {se: w for se, w in weights.items() if se in perception}
        if not applicable:
            continue
        value = osa(applicable, {se: perception[se] for se in applicable})
        scores.append(value)
        osa_rows.append((participant, value))
    if scores:
        mean, std = mean_std(scores)
        osa_rows += [("mean", mean), ("std", std)]
    out.append(("Operator situation awareness", ["participant", "OSA"], osa_rows))
    grid = reference_osa_by_mission(weights, vectors, missions)
    if len(grid) > 1:
        out.append(("OSA by mission", ["mission", "mean", "std"],
                    [(name, *grid[name]) for name in sorted(grid)]))
    return out


def outcome(compute):
    try:
        return ("ok", compute())
    except DecisiveError as exc:
        return ("error", str(exc))


ELEMENTS = ["alt", "hdg", "fuel", "wx"]


@st.composite
def sa_inputs(draw):
    """SAGAT answers, at least one as in any file the parser accepts, over a few participants
    and elements, repeated (participant, element) pairs and both levels included, with no
    weights or weights over any elements (zero weights and elements no one answered about
    included), and missions over any elements, one of them perhaps named "overall"."""
    rows = draw(st.lists(st.builds(
        Answer, st.sampled_from(["p3", "p1", "p2", "p10"]), st.sampled_from(["q1", "q2"]),
        st.sampled_from(ELEMENTS), st.sampled_from([1, 2]), st.booleans()), min_size=1,
        max_size=40))
    weight = st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]) | st.floats(0.01, 10.0)
    weights = draw(st.none() | st.dictionaries(st.sampled_from(ELEMENTS + ["gps"]), weight,
                                               min_size=1))
    missions = draw(st.dictionaries(
        st.sampled_from(["aviate", "navigate", "overall", "z"]),
        st.lists(st.sampled_from(ELEMENTS + ["gps"]), max_size=5), max_size=3))
    return rows, weights, missions


class TestColumnsAgreeWithRowReference:
    @settings(max_examples=300, deadline=None)
    @given(inputs=sa_inputs())
    def test_any_answers(self, inputs):
        rows, weights, missions = inputs
        columns = sagat(rows)
        assert outcome(lambda: sagat_correct_rates(columns)) == outcome(
            lambda: reference_correct_rates(rows))
        vectors, expected = perception_vectors(columns), reference_vectors(rows)
        # dict order included
        assert [(p, list(v.items())) for p, v in vectors.items()] == [
            (p, list(v.items())) for p, v in expected.items()]

        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            got = outcome(lambda: [(t.title, [c.header for c in t.columns], t.rows)
                                   for t in tables.sa_tables(columns, weights, missions)])
        want = outcome(lambda: reference_sa_tables(rows, weights, missions))
        # each weighted element no answer names, then each answered element with no weight
        answered = list(dict.fromkeys(row.se_id for row in rows))
        unresolved = [] if weights is None else [
            *(f"SA element {se!r} has a weight but no SAGAT answer"
              for se in weights if se not in answered),
            *(f"SAGAT element {se!r} has no weight; it is left out of OSA"
              for se in answered if se not in weights)]
        assert [str(w.message) for w in record] == unresolved
        # the overall row is the OSA table's mean and std, where the reference summed each
        # participant's weights in sorted order and took participants in file order
        got_overall, want_overall = pop_overall(got), pop_overall(want)
        assert got == want
        assert got_overall == pytest.approx(want_overall, rel=1e-12, abs=1e-15)

    def test_overall_row_on_a_rounding_tie(self):
        # OSA 0.25, 1.0, 0.5 and 1/6 for p3, p2, p1, p4 (file order) under unit weights: the
        # std is 0.375 exactly, which the two summation orders round to either side of
        rows = [response("p3", "a", 1, True), response("p4", "b", 1, False),
                response("p3", "c", 2, False), response("p2", "a", 2, True),
                response("p1", "a", 1, True), response("p4", "a", 2, False),
                response("p4", "c", 1, True)]
        weights, missions = {"a": 1.0, "b": 1.0, "c": 1.0}, {"m": ["a"]}
        _, osa_table, mission_table = tables.sa_tables(sagat(rows), weights, missions)
        _, std = osa_table.rows[-1]
        assert std < 0.375
        assert mission_table.rows[-1] == ("overall", osa_table.rows[-2][1], std)
        text = render_tables([osa_table, mission_table], "md").decode()
        assert "| std | 0.375 |" in text
        assert "| overall | 0.48 | 0.37 |" in text
        # the row-based reference's std lies above the tie, so it printed 0.38 there
        (_, _, want_std), = [row for row in reference_sa_tables(rows, weights, missions)[2][2]
                             if row[0] == "overall"]
        assert want_std > 0.375 and "%.2f" % want_std == "0.38"


def pop_overall(result):
    """The mission table's "overall" (mean, std), taken out of an ("ok", tables) result;
    () for no mission table."""
    if result[0] != "ok" or len(result[1]) < 3:
        return ()
    title, headers, rows = result[1][2]
    (overall,) = [row[1:] for row in rows if row[0] == "overall"]
    result[1][2] = (title, headers, [row for row in rows if row[0] != "overall"])
    return overall


class TestOsa:
    def test_uniform_all_comprehended(self):
        weights = {f"se{i}": 0.25 for i in range(4)}
        perception = {f"se{i}": 1.0 for i in range(4)}
        assert osa(weights, perception) == pytest.approx(1.0)

    def test_dot_product(self):
        assert osa({"a": 0.5, "b": 0.25, "c": 0.25}, {"a": 1.0, "b": 0.0, "c": 0.0}) == 0.5

    def test_renormalizes_weights(self):
        assert osa({"a": 2.0, "b": 2.0}, {"a": 1.0, "b": 0.0}) == pytest.approx(0.5)

    @given(
        ws=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        ps=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=8),
    )
    def test_unit_interval(self, ws, ps):
        n = min(len(ws), len(ps))
        weights = {f"se{i}": ws[i] for i in range(n)}
        perception = {f"se{i}": ps[i] for i in range(n)}
        assert 0.0 <= osa(weights, perception) <= 1.0

    def test_summary(self):
        mean, std = mean_std([0.2, 0.3, 0.4])
        assert mean == pytest.approx(0.3)

    def test_by_mission_grid(self):
        weights = {"alt": 1.0, "heading": 1.0, "landolt": 2.0}
        vectors = {
            "p1": {"alt": 1.0, "heading": 1.0, "landolt": 0.0},
            "p2": {"alt": 0.5, "heading": 1.0, "landolt": 0.5},
        }
        aviate = osa_by_participant(weights, vectors, ["alt", "heading"])
        assert mean_std(list(aviate.values()))[0] == pytest.approx((1.0 + 0.75) / 2)
        # overall weights: alt 0.25, heading 0.25, landolt 0.5
        p1 = 0.25 * 1.0 + 0.25 * 1.0 + 0.5 * 0.0
        p2 = 0.25 * 0.5 + 0.25 * 1.0 + 0.5 * 0.5
        overall = osa_by_participant(weights, vectors, weights)
        assert overall == {"p1": pytest.approx(p1), "p2": pytest.approx(p2)}
        assert mean_std(list(overall.values()))[0] == pytest.approx((p1 + p2) / 2)


def survey(rows):
    """SurveyColumns holding `rows`, each (participant, instrument, item, score, passed,
    condition)."""
    return SurveyColumns(*map(list, zip(*rows)))


def survey_rows(condition, participants, item_scores, instrument="HCTM", manip=True):
    rows = []
    for p in participants:
        for item, score in item_scores(p):
            rows.append((p, instrument, item, score, manip, condition))
    return rows


class TestTrustPipeline:
    def test_identical_conditions_p_near_one(self):
        scores = [3, 4, 4, 5, 5, 6]
        rows = []
        for i, score in enumerate(scores):
            rows.append((f"a{i}", "HCTM", "i1", score, True, "A"))
            rows.append((f"b{i}", "HCTM", "i1", score, True, "B"))
        report = trust_pipeline(survey(rows), "A", "B")
        assert report.items[0].test.u == pytest.approx(18.0)  # n1*n2/2
        assert report.items[0].test.p_two_sided == pytest.approx(1.0)

    def test_shifted_likert_significant(self):
        rng = random.Random(99)
        rows = []
        for i in range(30):
            for item in ("i1", "i2", "i3"):
                base = rng.randint(2, 4)
                rows.append((f"a{i}", "HCTM", item, base, True, "A"))
                rows.append((f"b{i}", "HCTM", item, min(base + 2, 7), True, "B"))
        report = trust_pipeline(survey(rows), "A", "B")
        assert all(item.test.p_two_sided < 0.05 for item in report.items)

    def test_manipulation_check_removal(self):
        rows = survey_rows("A", ["p1", "p2", "p3"], lambda p: [("i1", 4)])
        rows += survey_rows("B", ["p4", "p5"], lambda p: [("i1", 5)])
        rows += survey_rows("B", ["cheater"], lambda p: [("i1", 7)], manip=False)
        with pytest.warns(DataQualityWarning) as record:
            report = trust_pipeline(survey(rows), "A", "B")
        assert [str(w.message) for w in record] == [
            "removed participant (failed manipulation check): cheater"
        ]
        # the failed participant's score is excluded from the mean
        assert report.items[0].mean_b == pytest.approx(5.0)

    def test_empty_condition(self):
        rows = survey_rows("A", ["p1"], lambda p: [("i1", 4)])
        with pytest.raises(DecisiveError, match="no valid rows for condition 'B'"):
            trust_pipeline(survey(rows), "A", "B")

    def test_outliers_fenced_within_condition(self):
        # a genuine between-condition shift must survive the IQR filter
        rows = []
        for i in range(10):
            rows.append((f"a{i}", "CTPA", "i1", 2, True, "A"))
            rows.append((f"b{i}", "CTPA", "i1", 6, True, "B"))
        report = trust_pipeline(survey(rows), "A", "B")
        assert report.items[0].mean_a == pytest.approx(2.0)
        assert report.items[0].mean_b == pytest.approx(6.0)
        assert report.items[0].test == mann_whitney([2] * 10, [6] * 10)  # no value was fenced


def reference_trust(survey, condition_a, condition_b):
    """The list-based trust pipeline the score tallies replaced, kept as their reference:
    (one (instrument, item, mean_a, mean_b, U, p, t, t p) per item, the warning
    texts in order). Scores are grouped per row into lists and fenced, and Welch's t takes
    the standard library's variance of each list."""
    failed = {p for p, passed in zip(survey.participant_ids, survey.manip_pass) if not passed}
    messages = [f"removed participant (failed manipulation check): {p}" for p in sorted(failed)]
    buckets = {}
    for instrument, item_id, score, passed, condition in zip(
            survey.instruments, survey.item_ids, survey.scores, survey.manip_pass,
            survey.conditions):
        if passed:
            buckets.setdefault((instrument, item_id, condition), []).append(score)
    items = sorted({(inst, item) for inst, item, cond in buckets
                    if cond in (condition_a, condition_b)})
    rows = []
    for instrument, item_id in items:
        sides = []
        for label in (condition_a, condition_b):
            scores = [float(v) for v in buckets[(instrument, item_id, label)]]
            if len(scores) >= 4:
                scores, _, warning = reference_iqr_filter(scores)
                if warning:
                    messages.append(f"{instrument} {item_id} [{label}]: {warning}")
            sides.append(scores)
        a, b = sides
        t, t_p = reference_welch_t(a, b) if len(a) >= 2 and len(b) >= 2 else (None, None)
        test = mann_whitney(a, b)
        rows.append((instrument, item_id, sum(a) / len(a), sum(b) / len(b), test.u,
                     test.p_two_sided, t, t_p))
    return rows, messages


#: one condition's scores on one item, as a tally {score: count}: a few scores, up to seven
#: levels of up to 400 each, or one level of up to 2,000 (a constant side)
SIDES = st.one_of(
    st.lists(st.integers(1, 7), min_size=1, max_size=12).map(Counter),
    st.dictionaries(st.integers(1, 7), st.integers(1, 400), min_size=1, max_size=7),
    st.builds(lambda score, count: {score: count}, st.integers(1, 7), st.integers(1, 2000)),
)


def tally_survey(items, failing, shuffle):
    """SurveyColumns with one row per score of each item's two tallies (conditions A and B),
    participant k of a side answering its k-th score, plus `failing` rows that fail the
    manipulation check, in an order `shuffle` picks."""
    rows = []
    for i, (side_a, side_b) in enumerate(items):
        for label, tally in (("A", side_a), ("B", side_b)):
            scores = [score for score, count in sorted(tally.items()) for _ in range(count)]
            rows += [(f"{label}{k}", "CTPA" if i % 2 else "HCTM", f"i{i}", score, True, label)
                     for k, score in enumerate(scores)]
    rows += [(f"x{k}", "HCTM", "i0", score, False, "AB"[k % 2]) for k, score in enumerate(failing)]
    shuffle(rows)
    return survey(rows)


def bits(value):
    """A float as its exact `float.hex` text, so that equal means equal to the last bit;
    any other value as it is."""
    return value.hex() if isinstance(value, float) else value


class TestTallyPipelineMatchesListReference:
    """The score-tally pipeline against the list-based one it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(items=st.lists(st.tuples(SIDES, SIDES), min_size=1, max_size=3),
           failing=st.lists(st.integers(1, 7), max_size=3), rng=st.randoms())
    @example(items=[({3: 1, 4: 2, 5: 1}, {2: 600, 3: 700, 4: 700})], failing=[],
             rng=random.Random(0))  # 4 vs 2,000
    @example(items=[({5: 6}, {3: 6}), ({4: 1}, {1: 1, 7: 1})], failing=[7],
             rng=random.Random(1))  # constant sides, one-value side
    @example(items=[({4: 20, 1: 3, 7: 3}, {2: 2, 3: 5, 4: 2, 7: 2}), ({4: 9, 1: 1}, {5: 18, 7: 2})],
             failing=[], rng=random.Random(2))  # the fence removes 6/26, 2/11, then just 10%
    def test_same_results_and_warnings(self, items, failing, rng):
        data = tally_survey(items, failing, rng.shuffle)
        expected_rows, expected_messages = reference_trust(data, "A", "B")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = trust_pipeline(data, "A", "B")
        assert [str(w.message) for w in caught] == expected_messages
        got = [(item.instrument, item.item_id, item.mean_a, item.mean_b, item.test.u,
                item.test.p_two_sided, item.t_statistic, item.t_p)
               for item in report.items]
        assert [list(map(bits, row)) for row in got] == [list(map(bits, row))
                                                         for row in expected_rows]


def spy(monkeypatch, module, name):
    """The calls of `module.name`, as (args, result), recorded wherever a loaded `decisive`
    module binds that function, which is where the benchmark's tracer wraps it."""
    function, calls = getattr(module, name), []

    def recording(*args, **kwargs):
        result = function(*args, **kwargs)
        calls.append((args, result))
        return result

    for module_name, loaded in list(sys.modules.items()):
        if module_name == "decisive" or module_name.startswith("decisive."):
            for attr, value in list(vars(loaded).items()):
                if value is function:
                    monkeypatch.setattr(loaded, attr, recording)
    return calls


class TestBenchCounters:
    """The public calls and results that the benchmark's work counters read by name:
    `stats.rank_tests` and `stats.exact_share` from `mann_whitney`, `human_factors.items`
    from `trust_pipeline`, `ingest.rows` from `parse_survey`."""

    def test_trust_run_makes_the_counted_calls(self, monkeypatch, capsys):
        rank_tests = spy(monkeypatch, stats, "mann_whitney")
        pipelines = spy(monkeypatch, human_factors, "trust_pipeline")
        parses = spy(monkeypatch, ingest, "parse_survey")
        assert main(["trust", "--survey", str(CAMPAIGN / "surveys.csv"), *TRUST]) == 0
        ((_, (survey, parsed)),) = parses
        rows = len((CAMPAIGN / "surveys.csv").read_text().splitlines()) - 1
        assert type(parsed) is ParseReport and parsed == ParseReport({"responses": rows})
        assert len(survey.participant_ids) == rows
        ((_, report),) = pipelines
        assert len(report.items) == 21  # 12 HCTM and 9 CTPA items
        # one rank test per item, whose result is the item's test
        assert [result for _, result in rank_tests] == [item.test for item in report.items]
