import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from decisive.errors import DecisiveError
from decisive.ncap import (
    ABSENT,
    AutonomyCapabilities,
    Feature,
    FeatureTable,
    autonomy_distances,
    autonomy_level,
    component_potential,
    degree_of_autonomy_weights,
    encode_features,
    explicit_weights,
    uniform_weights,
    weighted_product,
)


def acquisition_table():
    """The worked two-system data-acquisition example."""
    feats = (
        Feature("flight_time", "higher_better"),
        Feature("charge_time", "lower_better"),
        Feature("stream_resolution", "higher_better", {"FHD": 3, "FHD30p": 2}),
        Feature("fov", "higher_better"),
        Feature("max_range", "higher_better"),
        Feature("thermal_resolution", "higher_better", {"160x120": 1}),
        Feature("weight", "lower_better"),
        Feature("max_speed", "higher_better"),
        Feature("sensors", "higher_better"),
        Feature("smart_behaviors", "higher_better"),
    )
    values = {
        "alpha": {
            "flight_time": 15, "charge_time": 50, "stream_resolution": "FHD",
            "fov": 100, "max_range": 2000, "thermal_resolution": ABSENT,
            "weight": 370, "max_speed": 3, "sensors": 3, "smart_behaviors": 2,
        },
        "bravo": {
            "flight_time": 10, "charge_time": 90, "stream_resolution": "FHD30p",
            "fov": 114, "max_range": 500, "thermal_resolution": "160x120",
            "weight": 1450, "max_speed": 6.5, "sensors": 10, "smart_behaviors": 7,
        },
    }
    return FeatureTable(feats, values)


class TestEncodeFeatures:
    def test_ordinal_tokens(self):
        encoded = encode_features(acquisition_table())
        assert encoded["alpha"]["stream_resolution"] == 3.0
        assert encoded["bravo"]["stream_resolution"] == 2.0

    def test_absent_inherits_cohort_minimum(self):
        encoded = encode_features(acquisition_table())
        # alpha has no thermal camera; bravo's rank-1 value is the cohort floor
        assert encoded["alpha"]["thermal_resolution"] == 1.0

    def test_zero_value_rejected(self):
        table = FeatureTable(
            (Feature("speed", "higher_better"),),
            {"a": {"speed": 0.0}},
        )
        with pytest.raises(DecisiveError, match=r"speed=0.0 for a \(must be > 0\)"):
            encode_features(table)


class TestWeightedProduct:
    def test_reproduces_alpha_potential(self):
        table = acquisition_table()
        potentials = component_potential(table)
        assert potentials["alpha"] == pytest.approx(2.48, abs=0.01)
        # published 2.69 for the second system is not reproducible from its
        # own inputs; the computation gives 2.29
        assert potentials["bravo"] == pytest.approx(2.29, abs=0.01)

    def test_all_ones_identity(self):
        values = {f"f{i}": 1.0 for i in range(5)}
        weights = uniform_weights(list(values))
        directions = {k: "higher_better" for k in values}
        assert weighted_product(values, weights, directions) == pytest.approx(1.0)

    def test_doubling_law_of_exponents(self):
        names = [f"f{i}" for i in range(10)]
        values = {n: 2.0 + i for i, n in enumerate(names)}
        weights = uniform_weights(names)
        directions = {n: "higher_better" for n in names}
        base = weighted_product(values, weights, directions)
        values2 = dict(values, f0=2.0 * values["f0"])
        assert weighted_product(values2, weights, directions) == pytest.approx(
            base * 2.0**0.1
        )

    def test_monotone_in_directions(self):
        names = ["up", "down"]
        weights = uniform_weights(names)
        directions = {"up": "higher_better", "down": "lower_better"}
        base = weighted_product({"up": 2.0, "down": 2.0}, weights, directions)
        more_up = weighted_product({"up": 3.0, "down": 2.0}, weights, directions)
        more_down = weighted_product({"up": 2.0, "down": 3.0}, weights, directions)
        assert more_up > base
        assert more_down < base

    @given(factor=st.floats(0.1, 10.0))
    def test_common_factor_preserves_ranking(self, factor):
        table = acquisition_table()
        potentials = component_potential(table)
        scaled_values = {
            sid: dict(row, fov=row["fov"] * factor)
            for sid, row in table.values.items()
        }
        scaled = component_potential(FeatureTable(table.features, scaled_values))
        assert (potentials["alpha"] > potentials["bravo"]) == (
            scaled["alpha"] > scaled["bravo"]
        )

class TestWeightSchemes:
    def test_uniform_sums_to_one(self):
        weights = uniform_weights([f"f{i}" for i in range(10)])
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_degree_of_autonomy(self):
        weights = degree_of_autonomy_weights({"a": 1, "b": 2})
        # raw 0.5 and 0.25 normalize to 2/3 and 1/3
        assert weights["a"] == pytest.approx(2 / 3)
        assert weights["b"] == pytest.approx(1 / 3)

    @given(ws=st.lists(st.floats(0.01, 5.0), min_size=2, max_size=12))
    def test_explicit_normalizes(self, ws):
        raw = {f"f{i}": w for i, w in enumerate(ws)}
        weights = explicit_weights(raw)
        assert sum(abs(w) for w in weights.values()) == pytest.approx(1.0, abs=1e-12)


class TestAutonomyLevel:
    def test_extremes(self):
        assert autonomy_level(AutonomyCapabilities()) == 0
        assert autonomy_level(AutonomyCapabilities(True, True, True, True)) == 4

    def test_worked_levels(self):
        assert autonomy_level(AutonomyCapabilities(True, True, True, False)) == 3
        assert autonomy_level(AutonomyCapabilities(perception=True)) == 1


class TestAutonomyDistances:
    def test_uniform_weights_table(self):
        results = {r.suas_id: r for r in autonomy_distances({"alpha": (3, 2.48), "bravo": (1, 2.69)})}
        assert results["alpha"].relative_distance == 0.0
        assert results["bravo"].relative_distance == pytest.approx(2.01, abs=0.01)
        assert results["alpha"].rank == 1

    def test_user_weights_table(self):
        results = {r.suas_id: r for r in autonomy_distances({"alpha": (3, 3.17), "bravo": (1, 4.66)})}
        assert results["bravo"].relative_distance == 0.0
        assert results["alpha"].relative_distance == pytest.approx(2.49, abs=0.01)
        assert results["bravo"].rank == 1

    def test_single_system(self):
        (result,) = autonomy_distances({"solo": (2, 1.5)})
        assert result.relative_distance == 0.0

    def test_relative_is_euclidean_to_best(self):
        scores = {"a": (3, 2.0), "b": (1, 1.0), "c": (2, 2.5)}
        results = {r.suas_id: r for r in autonomy_distances(scores)}
        best = min(results.values(), key=lambda r: r.rank)
        for r in results.values():
            expected = math.hypot(r.n_al - best.n_al, r.n_cp - best.n_cp)
            assert r.relative_distance == pytest.approx(expected)

    def test_tie_warns_and_breaks_by_level(self):
        with pytest.warns(UserWarning):
            results = autonomy_distances({"a": (0, 5.0), "b": (3, 4.0)})
        assert results[0].suas_id == "b"
        assert results[0].relative_distance == 0.0
