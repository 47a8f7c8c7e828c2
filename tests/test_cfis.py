import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from decisive.cfis import (
    Fis,
    LinguisticVariable,
    Rule,
    TriangularMf,
    cascade_eval,
    fis_eval,
    ideal_combined,
    mf_eval,
    normalized_test_score,
    predictive_score,
    sweep_outputs,
)
from decisive.errors import (
    AllTestsMissing,
    DataQualityWarning,
    NonPositiveScore,
    NoRuleFired,
    ZeroDenominator,
)
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
        cfg, _ = parse_fis_config(CONFIG_PATH)
    assert not record
    return cfg


class TestMembership:
    def test_left_shoulder_apex(self):
        low = TriangularMf(0.0, 0.0, 1.25, 0.0, 3.0)
        assert mf_eval(low, 0.0) == 1.0

    def test_ramp_midpoint(self):
        low = TriangularMf(0.0, 0.0, 1.25, 0.0, 3.0)
        assert mf_eval(low, 0.625) == pytest.approx(0.5)

    def test_interior_triangle(self):
        med = TriangularMf(0.5, 1.5, 2.5, 0.0, 3.0)
        assert mf_eval(med, 1.0) == pytest.approx(0.5)
        assert mf_eval(med, 1.5) == 1.0
        assert mf_eval(med, 3.0) == 0.0

    def test_right_shoulder(self):
        high = TriangularMf(0.7, 1.0, 1.0, 0.0, 1.0)
        assert mf_eval(high, 1.0) == 1.0

    def test_clamping_outliers(self):
        high = TriangularMf(1.75, 3.0, 3.0, 0.0, 3.0)
        assert mf_eval(high, 99.0) == 1.0  # clamped to hi
        low = TriangularMf(0.0, 0.0, 1.25, 0.0, 3.0)
        assert mf_eval(low, -5.0) == 1.0  # clamped to lo

    @given(x=st.floats(-1, 4))
    def test_bounded(self, x):
        med = TriangularMf(0.5, 1.5, 2.5, 0.0, 3.0)
        assert 0.0 <= mf_eval(med, x) <= 1.0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TriangularMf(2.0, 1.0, 3.0, 0.0, 3.0)


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
        levels = sorted(mc.output_levels.values())
        assert levels[0] <= out <= levels[-1]

    def test_scale_free_in_rule_strength(self):
        # two symmetric configs where all memberships double: output unchanged
        var = LinguisticVariable(
            "x", 0.0, 1.0,
            {"lo": TriangularMf(0.0, 0.0, 1.0, 0.0, 1.0),
             "hi": TriangularMf(0.0, 1.0, 1.0, 0.0, 1.0)},
        )
        fis = Fis(
            "demo", {"x": var}, {"bad": 0.0, "good": 1.0},
            (Rule((("x", "lo", False),), "bad"), Rule((("x", "hi", False),), "good")),
        )
        # weighted average is invariant to common scaling of the strengths
        out = fis_eval(fis, {"x": 0.25})
        assert out == pytest.approx(0.25)

    def test_no_rule_fired(self):
        var = LinguisticVariable(
            "x", 0.0, 1.0, {"lo": TriangularMf(0.0, 0.0, 0.4, 0.0, 1.0)}
        )
        fis = Fis("gappy", {"x": var}, {"bad": 0.0}, (Rule((("x", "lo", False),), "bad"),))
        with pytest.raises(NoRuleFired):
            fis_eval(fis, {"x": 0.9})

    def test_missing_input(self, config):
        with pytest.raises(KeyError):
            fis_eval(config.fis["mc"], {"crashes": 0})


class TestCascade:
    def test_high_high_very_good(self, config):
        assert fis_eval(config.fis["combined"], {"mc": 1.0, "ec": 1.0}) == 1.0

    def test_low_low_very_bad(self, config):
        assert fis_eval(config.fis["combined"], {"mc": 0.0, "ec": 0.0}) == 0.0

    def test_medium_medium(self, config):
        assert fis_eval(config.fis["combined"], {"mc": 0.5, "ec": 0.5}) == 0.5

    def test_full_cascade(self, config):
        result = cascade_eval(config, {
            "mc": {"crashes": 0, "rollovers": 0, "completion": 1.0},
            "ec": {"roll": 10.0, "pitch": 10.0,
                   "lateral_obstruction": 3.6, "vertical_obstruction": 1.8},
        })
        assert result.axis_scores["mc"] == 1.0
        assert result.axis_scores["ec"] == 1.0
        assert result.combined == 1.0

    def test_missing_axis_skipped(self, config):
        result = cascade_eval(config, {"mc": {"crashes": 0, "rollovers": 0, "completion": 1.0}})
        assert result.combined == result.axis_scores["mc"]

    def test_three_axis_fold(self, config):
        # a third axis folds through the same combining table
        hi_fis = config.fis["mc"]
        cfg = type(config)(
            name="threeway",
            fis={"mc": config.fis["mc"], "ec": config.fis["ec"],
                 "hi": hi_fis, "combined": config.fis["combined"]},
            cascade={"combined": ("mc", "ec", "hi")},
        )
        result = cascade_eval(cfg, {
            "mc": {"crashes": 0, "rollovers": 0, "completion": 1.0},
            "ec": {"roll": 10.0, "pitch": 10.0,
                   "lateral_obstruction": 3.6, "vertical_obstruction": 1.8},
            "hi": {"crashes": 0, "rollovers": 0, "completion": 1.0},
        })
        assert result.combined == 1.0


class TestNormalizedScore:
    def test_equal_to_ideal(self):
        assert normalized_test_score(0.9, 0.9) == 1.0

    def test_half(self):
        assert normalized_test_score(0.45, 0.9) == pytest.approx(0.5)

    def test_capped(self):
        assert normalized_test_score(1.2, 0.9) == 1.0

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            normalized_test_score(0.5, 0.0)

    def test_ideal_combined_patches_mission_inputs(self, config):
        inputs = {
            "mc": {"crashes": 2, "rollovers": 1, "completion": 0.5},
            "ec": {"roll": 5.0, "pitch": 5.0,
                   "lateral_obstruction": 2.4, "vertical_obstruction": 1.2},
        }
        ideal = ideal_combined(config, inputs)
        observed = cascade_eval(config, inputs).combined
        assert ideal >= observed


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

    def test_all_missing(self):
        with pytest.raises(AllTestsMissing):
            predictive_score({"a": None})

    def test_non_positive_score(self):
        with pytest.raises(NonPositiveScore):
            predictive_score({"a": 0.0})


class TestShippedConfig:
    def test_coverage_of_every_variable(self, config):
        for fis in config.fis.values():
            for var in fis.inputs.values():
                assert var.covered(1000), f"{fis.name}.{var.name} has gaps"

    def test_sweep_outputs_in_unit_interval(self, config):
        for fis in config.fis.values():
            if fis.name == "ec":  # the shipped ec rulebase leaves input regions unscored
                with pytest.warns(DataQualityWarning, match="fired no rule"):
                    outputs = sweep_outputs(fis, 2000, seed=7)
            else:
                outputs = sweep_outputs(fis, 2000, seed=7)
            assert outputs, f"{fis.name}: sweep produced nothing"
            assert all(0.0 <= o <= 1.0 for o in outputs)

    def test_mc_and_combined_fire_everywhere(self, config):
        for name in ("mc", "combined"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sweep_outputs(config.fis[name], 2000, seed=7)
