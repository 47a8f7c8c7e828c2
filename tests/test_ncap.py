import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decisive.errors import DataQualityWarning, ParseError
from decisive.ingest import parse_feature_sheet
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

    def test_zero_value_fails_at_load(self, tmp_path):
        sheet = tmp_path / "f.json"
        sheet.write_text(json.dumps({"features": [{"name": "speed", "direction": "higher"}],
                                     "systems": [{"id": "a", "values": {"speed": 0.0}}]}))
        with pytest.raises(ParseError, match=re.escape(
                f"system a: bad 'speed' field (must be > 0, got 0.0) (at {sheet})")):
            parse_feature_sheet(sheet)


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

    def test_degree_beyond_the_float_exponents(self):
        # 2^-1100 is 0 as a float, yet the weights still normalize to 2/3 and 1/3
        weights = degree_of_autonomy_weights({"a": 1100, "b": 1101})
        assert weights == {"a": pytest.approx(2 / 3), "b": pytest.approx(1 / 3)}

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


#: the ordinal map of the drawn ordinal features, its tokens split by the sign of their value
ORDINAL = {"off": 0, "down": -1.5, "mid": 2, "top": 5.5}
UNSET = object()  # a value left out of its system's `values`
ABSENT_VALUES = st.sampled_from(["N/A", None, UNSET])
NON_POSITIVE = st.floats(-1e3, -1e-3) | st.integers(-50, -1) | st.sampled_from([0, 0.0])


@st.composite
def feature_sheets(draw):
    """Feature-sheet JSON of 1-4 features, some ordinal, and 0-4 systems. A value is a number
    in [1e-3, 1e3], a token of an ordinal feature, "N/A", null or unset, and about one in
    ten is a number or token that is not positive."""
    features = [{"name": f"f{i}", "direction": draw(st.sampled_from(["higher", "lower"])),
                 "degree": draw(st.sampled_from([0, 1, 2, 5, 1100])),
                 **({"ordinal_map": ORDINAL} if draw(st.booleans()) else {})}
                for i in range(draw(st.integers(1, 4)))]
    systems = []
    for k in range(draw(st.integers(0, 4))):
        values = {}
        for f in features:
            tokens = sorted(ORDINAL) if "ordinal_map" in f else []
            positive = [t for t in tokens if ORDINAL[t] > 0]
            if draw(st.integers(0, 9)) == 9:
                value = draw(NON_POSITIVE | st.sampled_from(sorted(set(tokens) - set(positive))
                                                            or [0]))
            else:
                value = draw(st.floats(1e-3, 1e3) | ABSENT_VALUES
                             | st.sampled_from(positive or ["N/A"]))
            if value is not UNSET:
                values[f["name"]] = value
        systems.append({"id": f"s{k}", "values": values})
    return {"features": features, "systems": systems}


@pytest.fixture(scope="module")
def sheet_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sheets")


@settings(max_examples=300, deadline=None)
@given(doc=feature_sheets())
def test_every_sheet_the_parser_accepts_ranks(sheet_dir, doc):
    path = sheet_dir / "sheet.json"
    path.write_text(json.dumps(doc))
    try:
        sheet = parse_feature_sheet(path)
    except ParseError:
        return
    names = [f.name for f in sheet.table.features]
    for weights in (uniform_weights(names), degree_of_autonomy_weights(sheet.degrees)):
        potentials = component_potential(sheet.table, weights)
        assert list(potentials) == list(sheet.table.values)
        assert all(p > 0 and math.isfinite(p) for p in potentials.values())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataQualityWarning)  # a tie between systems
            results = autonomy_distances({sid: (int(sid[1:]) % 5, p)
                                          for sid, p in potentials.items()})
        assert sorted(r.rank for r in results) == list(range(1, len(potentials) + 1))
