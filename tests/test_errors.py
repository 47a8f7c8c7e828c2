"""Every computation failure is a plain DecisiveError, so the CLI exits 2 on it.

The CLI maps an error to its exit code by class alone: ParseError (an input
failure that names its file) exits 1, any other DecisiveError exits 2. A
pytest.raises(DecisiveError) also accepts a ParseError, so the table below
checks the exact class, and the exact message, of each failure that the
metric modules raise once their inputs have parsed.
"""

import pytest

from decisive import cfis, collision, field, human_factors, mapping, nav, ncap, report, stats
from decisive.cfis import Fis, LinguisticVariable, Rule, TriangularMf
from decisive.core import ObstacleGeometry, TrialRecord, Trajectory
from decisive.errors import DecisiveError, ParseError
from decisive.human_factors import SurveyColumns
from decisive.mapping import FiducialGroundTruth, FiducialObservation
from decisive.ncap import Feature, FeatureTable, WeightScheme
from decisive.report import Column, ReportTable


def still(n=5):
    return Trajectory(t=[0.1 * i for i in range(n)], pos=[[1.0, 1.0, 1.0]] * n,
                      vel=[[0.0, 0.0, 0.0]] * n)


def sparse():
    """Moving at 1 m/s along x, sampled at 2 Hz."""
    return Trajectory(t=[0.0, 0.5, 1.0], pos=[[0, 0, 1], [0.5, 0, 1], [1, 0, 1]],
                      vel=[[1, 0, 0]] * 3)


def two_samples():
    return Trajectory(t=[0.0, 0.1], pos=[[0, 0, 1], [0.1, 0, 1]])


WALL = ObstacleGeometry("plane_segment", (0.0, 5.0), (3.0, 5.0), 2.0)


def features(*feats, **values):
    return FeatureTable(tuple(feats), values)


def one_term_fis():
    x = LinguisticVariable("x", 0.0, 2.0, {"low": TriangularMf(0.0, 0.0, 1.0, 0.0, 2.0)}, {})
    return Fis("demo", {"x": x}, {"good": 1.0}, (Rule((("x", "low", False),), "good"),))


def table(column, *cells):
    t = ReportTable("T", [column])
    t.add_row(*cells)
    return t


def survey(*rows):
    """SurveyColumns of CTPA score 4 responses, each row (participant, item, condition)."""
    participants, items, conditions = map(list, zip(*rows))
    n = len(rows)
    return SurveyColumns(participants, ["CTPA"] * n, items, [4] * n, [True] * n, conditions)


def matched(*points):
    obs = [FiducialObservation(f"f{i}", 1, xy, "complete") for i, xy in enumerate(points)]
    truth = [FiducialGroundTruth(f"f{i}", (float(i), 0.0), 1.0, 0) for i in range(len(points))]
    return obs, truth


COMPUTATION_FAILURES = {
    # trajectory and kinematics
    "nav-deviation-no-flights": (lambda: nav.deviation_summary([]), "no flights"),
    "nav-waypoint-no-trials": (lambda: nav.waypoint_summary([]), "no trials"),
    "nav-traversal-zero-duration": (lambda: nav.traversal_speed(10.0, 0.0),
                                    "duration must be positive"),
    "collision-two-samples": (lambda: collision.derive_kinematics(two_samples()),
                              "differentiation needs at least 3 samples"),
    "collision-hover-only": (lambda: collision.flight_metrics(still(), WALL),
                             "no sample moves faster than the stationary cutoff"),
    "collision-time-outside-span": (lambda: collision.max_delta_v(sparse(), 5.0),
                                    "t_c=5.0 outside [0.0, 1.0]"),
    "collision-sampling-too-sparse": (lambda: collision.max_delta_v(sparse(), 0.1),
                                      "need >= 10 Hz sampling in the post-collision window"),
    "collision-no-flights": (lambda: collision.aggregate_flights([]), "no flights"),
    "collision-missing-category": (
        lambda: collision.category_distribution([TrialRecord("t1", "T", "a", "success")], "oa"),
        "trial t1 lacks oa_category"),
    # statistics
    "stats-rate-no-trials": (lambda: stats.completion_rate(0, 0), "no trials"),
    "stats-threshold-outside-unit": (lambda: stats.completion_confidence(1, 1, 1.0),
                                     "p0 must be inside (0, 1), got 1.0"),
    "stats-confidence-no-trials": (lambda: stats.completion_confidence(0, 0, 0.5), "no trials"),
    "stats-quartiles-empty": (lambda: stats.quartiles([]), "no values"),
    "stats-iqr-three-values": (lambda: stats.iqr_filter([1.0, 2.0, 3.0]),
                               "IQR filtering needs at least 4 values"),
    "stats-mann-whitney-empty-side": (lambda: stats.mann_whitney([], [1.0]),
                                      "both samples must be non-empty"),
    "stats-mean-std-empty": (lambda: stats.mean_std([]), "no values"),
    "stats-welch-one-value": (lambda: stats.welch_t([1.0], [1.0, 2.0]),
                              "Welch's t needs at least two values per side"),
    # field and mapping
    "field-endurance-zero-duration": (lambda: field.endurance_metrics(3, 0.0),
                                      "duration must be positive"),
    "field-no-criteria": (lambda: field.requirements_met({}, []), "no criteria provided"),
    "mapping-length-mismatch": (lambda: mapping.dimensional_accuracy([1.0], [1.0, 2.0]),
                                "1 reported vs 2 truth values"),
    "mapping-no-dimensions": (lambda: mapping.dimensional_accuracy([], []), "no dimensions"),
    "mapping-fov-zero-total": (lambda: mapping.fov_coverage(1, 0), "total must be positive"),
    "mapping-fov-count-outside": (lambda: mapping.fov_coverage(5, 4),
                                  "visible count 5 outside [0, 4]"),
    "mapping-no-shapes": (lambda: mapping.shape_accuracy_rate([]),
                          "no fiducial classifications"),
    "mapping-two-fiducials": (lambda: mapping.global_error(*matched((0, 0), (1, 0))),
                              "need >= 3 matched fiducials, have 2"),
    "mapping-coincident-fiducials": (lambda: mapping.global_error(*matched(*[(1, 1)] * 3)),
                                     "all matched fiducials coincide on the map"),
    "mapping-no-ground-truth": (lambda: mapping.fiducial_coverage([], []),
                                "no ground-truth fiducials"),
    "mapping-no-acuity": (lambda: mapping.acuity_summary([]), "no acuity readings"),
    # autonomy
    "ncap-unranked-token": (
        lambda: ncap.encode_features(features(Feature("res", "higher_better", {"FHD": 3}),
                                              alpha={"res": "4K"})),
        "res: no ordinal rank for '4K'"),
    "ncap-zero-value": (
        lambda: ncap.encode_features(features(Feature("t", "higher_better"), alpha={"t": 0})),
        "t=0.0 for alpha (must be > 0)"),
    "ncap-absent-everywhere": (
        lambda: ncap.encode_features(features(Feature("t", "higher_better"), alpha={})),
        "t: absent for every system"),
    "ncap-zero-weights": (lambda: WeightScheme.explicit({"t": 0.0}),
                          "weights must not all be zero"),
    "ncap-product-zero-value": (
        lambda: ncap.weighted_product({"t": 0.0}, WeightScheme({"t": 1.0}), {"t": "higher_better"}),
        "t=0.0: weighted product needs positive values"),
    "ncap-no-systems": (lambda: ncap.autonomy_distances({}), "no systems to rank"),
    "cfis-no-rule-fired": (lambda: cfis.fis_eval(one_term_fis(), {"x": 1.5}),
                           "demo: no rule fired for {'x': 1.5}"),
    "cfis-all-tests-missing": (lambda: cfis.predictive_score({"a": None}),
                               "every test score is missing"),
    "cfis-zero-test-score": (lambda: cfis.predictive_score({"a": 0.0}), "a=0.0 outside (0, 1]"),
    # human factors
    "hf-no-elements": (lambda: human_factors.attention_allocation([]), "no situation elements"),
    "hf-rates-no-responses": (lambda: human_factors.sagat_correct_rates([]), "no responses"),
    "hf-vectors-no-responses": (lambda: human_factors.perception_vectors([]), "no responses"),
    "hf-osa-element-mismatch": (lambda: human_factors.osa({"a": 1.0}, {"b": 1.0}),
                                "weights and perception vectors cover different elements"),
    "hf-osa-zero-weights": (lambda: human_factors.osa({"a": 0.0}, {"a": 1.0}),
                            "weights must sum to a positive value"),
    "hf-osa-no-scores": (lambda: human_factors.osa_summary([]), "no scores"),
    "hf-trust-empty-condition": (
        lambda: human_factors.trust_pipeline(survey(("p1", "i1", "A")), "A", "B"),
        "no valid rows for condition 'B'"),
    "hf-trust-item-empty-side": (
        lambda: human_factors.trust_pipeline(survey(("p1", "i1", "A"), ("p2", "i2", "B")),
                                             "A", "B"),
        "CTPA i1: no scores for 'B'"),
    # reporting
    "report-unknown-glyph": (
        lambda: report.render_table(table(Column("Link", "glyph"), "maybe")),
        "Link: glyph cell 'maybe' not in ['bad', 'good', 'none']"),
    "report-text-in-number-column": (
        lambda: report.render_table(table(Column("Speed", "number"), "fast")),
        "Speed: expected a number, got 'fast'"),
    "report-row-length": (lambda: report.render_table(table(Column("A"), 1, 2)),
                          "T: row 0 has 2 cells, expected 1"),
    "report-scatter-empty": (lambda: report.ncap_scatter_svg([]), "no systems to plot"),
    "report-deviation-empty": (lambda: report.deviation_svg([]), "no deviation samples"),
}


@pytest.mark.parametrize("case", sorted(COMPUTATION_FAILURES))
def test_computation_failure_is_a_plain_decisive_error(case):
    call, message = COMPUTATION_FAILURES[case]
    with pytest.raises(DecisiveError) as exc:
        call()
    assert type(exc.value) is DecisiveError
    assert str(exc.value) == message


def test_parse_error_is_the_only_subclass():
    assert DecisiveError.__subclasses__() == [ParseError]
