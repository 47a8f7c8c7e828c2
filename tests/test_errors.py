"""Every computation failure is a plain DecisiveError, so the CLI exits 2 on it.

The CLI maps an error to its exit code by class alone: ParseError (an input
failure that names its file) exits 1, any other DecisiveError exits 2. A
pytest.raises(DecisiveError) also accepts a ParseError, so the table below
checks the exact class, and the exact message, of each failure that a metric
module still raises once its inputs have parsed, called on data built in
code. `test_cli.RUN_ERRORS` and `WARNING_LINES` hold the CLI input that reaches
each one, and `test_raises.py` checks that every raise in the package has one.
"""

import pytest

from decisive import cfis, collision, human_factors, mapping
from decisive.cfis import Fis, LinguisticVariable, Rule, TriangularMf
from decisive.core import ObstacleGeometry, Trajectory
from decisive.errors import DecisiveError, ParseError
from decisive.human_factors import SurveyColumns
from decisive.mapping import FiducialGroundTruth, FiducialObservation


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


def one_term_fis():
    x = LinguisticVariable(0.0, 2.0, {"low": TriangularMf(0.0, 0.0, 1.0)})
    return Fis("demo", {"x": x}, (Rule((("x", "low", False),), 1.0),))


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
    "collision-two-samples": (lambda: collision.derive_kinematics(two_samples()),
                              "differentiation needs at least 3 samples"),
    "collision-hover-only": (lambda: collision.flight_metrics(still(), WALL),
                             "no sample moves faster than the stationary cutoff"),
    "collision-time-outside-span": (lambda: collision.max_delta_v(sparse(), 5.0),
                                    "t_c=5.0 outside [0.0, 1.0]"),
    "collision-sampling-too-sparse": (lambda: collision.max_delta_v(sparse(), 0.1),
                                      "need >= 10 Hz sampling in the post-collision window"),
    # mapping
    "mapping-two-fiducials": (lambda: mapping.global_error(*matched((0, 0), (1, 0))),
                              "need >= 3 matched fiducials, have 2"),
    "mapping-coincident-fiducials": (lambda: mapping.global_error(*matched(*[(1, 1)] * 3)),
                                     "all matched fiducials coincide on the map"),
    # fuzzy inference
    "cfis-no-rule-fired": (lambda: cfis.fis_eval(one_term_fis(), {"x": 1.5}),
                           'demo: no rule fired for {"x": 1.5}'),
    "cfis-zero-test-score": (lambda: cfis.predictive_score({"a": 0.0}), "a=0.0 outside (0, 1]"),
    # human factors
    "hf-osa-zero-weights": (lambda: human_factors.osa({"a": 0.0}, {"a": 1.0}),
                            "weights must sum to a positive value"),
    "hf-trust-empty-condition": (
        lambda: human_factors.trust_pipeline(survey(("p1", "i1", "A")), "A", "B"),
        "no valid rows for condition 'B'"),
    "hf-trust-item-empty-side": (
        lambda: human_factors.trust_pipeline(survey(("p1", "i1", "A"), ("p2", "i2", "B")),
                                             "A", "B"),
        "CTPA i1: no scores for 'B'"),
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
