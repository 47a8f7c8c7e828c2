import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from decisive.errors import DataQualityWarning, DecisiveError
from decisive.human_factors import (
    SagatResponse,
    SeParams,
    SurveyColumns,
    attention_allocation,
    osa,
    perception_level,
    perception_vectors,
    sagat_correct_rates,
    trust_pipeline,
)
from decisive.stats import mean_std

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


def response(participant, se, level, correct, q="q"):
    return SagatResponse(participant, q, se, level, correct)


class TestSagat:
    def test_correct_rate(self):
        rs = [response("p1", "alt", 1, c) for c in (True, True, True, False)]
        assert sagat_correct_rates(rs)["alt"] == pytest.approx(0.75)

    def test_recount_oracle(self):
        rng = random.Random(31)
        rs = []
        for i in range(200):
            rs.append(response(f"p{i % 7}", f"se{i % 5}", rng.choice([1, 2]), rng.random() < 0.6, q=f"q{i}"))
        rates = sagat_correct_rates(rs)
        for se in {r.se_id for r in rs}:
            mine = [r for r in rs if r.se_id == se]
            assert rates[se] == pytest.approx(sum(r.correct for r in mine) / len(mine))

    def test_perception_levels(self):
        assert perception_level([response("p", "se", 1, False)]) == "undetected"
        assert perception_level([response("p", "se", 1, True)]) == "detected"
        assert perception_level(
            [response("p", "se", 1, True), response("p", "se", 2, True)]
        ) == "comprehended"

    def test_all_undetected_vector(self):
        rs = [response("p1", f"se{i}", 1, False, q=f"q{i}") for i in range(4)]
        vec = perception_vectors(rs)["p1"]
        assert all(v == 0.0 for v in vec.values())


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
        from decisive.human_factors import osa_by_mission

        weights = {"alt": 1.0, "heading": 1.0, "landolt": 2.0}
        vectors = {
            "p1": {"alt": 1.0, "heading": 1.0, "landolt": 0.0},
            "p2": {"alt": 0.5, "heading": 1.0, "landolt": 0.5},
        }
        grid = osa_by_mission(weights, vectors, {"aviate": ["alt", "heading"]})
        assert set(grid) == {"aviate", "overall"}
        assert grid["aviate"][0] == pytest.approx((1.0 + 0.75) / 2)
        # overall weights: alt 0.25, heading 0.25, landolt 0.5
        p1 = 0.25 * 1.0 + 0.25 * 1.0 + 0.5 * 0.0
        p2 = 0.25 * 0.5 + 0.25 * 1.0 + 0.5 * 0.5
        assert grid["overall"][0] == pytest.approx((p1 + p2) / 2)


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
        assert report.items[0].n_a == 10 and report.items[0].n_b == 10
