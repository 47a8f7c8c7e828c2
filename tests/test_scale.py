"""Finite in, finite out: unit changes and huge or tiny numbers, through the CLI.

Each property runs `cli.main` in process on an edited copy of `sample_campaign/`
and reads its cells from `--format json`. A metric that should not depend on an
input's units keeps its relation to the sample's value when those units change
by a power of ten k: the printed value is the same, or k times the same, within
the printed rounding. Otherwise the run exits 2 with one `error:` line; it never
exits 0 with another value. k ranges over the powers of ten that keep every
scaled input a normal float, since below that range the input itself loses
digits. An exception escaping `main` is the traceback the CLI would print, so
each property also holds that none does. The last property puts a value of
any shape in place of any node of a JSON input: the run gives its output, or
one error line that names where the value is, never Python's own words; an
entry of a map whose keys are data is named by its key.
"""

import copy
import decimal
import functools
import json
import operator
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from test_ingest import FEATURES, JSON_INPUTS, SAMPLE, entries, run_probe, well_formed

#: the least and the largest positive normal float
TINY, HUGE = 2.2250738585072014e-308, 1.7976931348623157e308

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def scaled(text: str, power: int) -> str:
    """The number `text` times 10**power, rounded once."""
    return repr(float(decimal.Decimal(text).scaleb(power)))


def powers(texts) -> st.SearchStrategy[int]:
    """The powers of ten that keep every number of `texts` a normal float, or zero."""
    values = [abs(decimal.Decimal(t)) for t in texts if decimal.Decimal(t)]
    lo = min(p for p in range(-340, 1) if all(float(v.scaleb(p)) >= TINY for v in values))
    hi = max(p for p in range(0, 340) if all(float(v.scaleb(p)) <= HUGE for v in values))
    return st.integers(lo, hi)


def csv_numbers(path: Path, columns) -> list[str]:
    """The non-empty cells of `columns` in the data rows of the CSV at `path`."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [row[c] for row in rows for c in columns if row[c]]


def scale_csv(path: Path, columns, power: int) -> None:
    header, *rows = path.read_text().splitlines()
    out = [header]
    for row in rows:
        cells = row.split(",")
        for c in columns:
            cells[c] = cells[c] and scaled(cells[c], power)
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n")


def run_json(edit, argv) -> tuple[int, dict]:
    """(exit code, {table title: rows}) of `argv --format json` on an edited sample copy;
    on a failure, no output and one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        code, out, errors = run_probe(Path(tmp), edit, lambda d: argv(d) + ["--format", "json"])
    if code:
        assert (code, out, len(errors)) == (2, "", 1)
        return code, {}
    assert not errors
    return code, {table["title"]: table["rows"] for table in json.loads(out)}


def close(got: float, want: float, digits: int) -> bool:
    """Whether two printed cells agree within their rounding: a tie may round either way."""
    return abs(got - want) <= 10.0 ** -digits * (1 + 1e-9) + 1e-12 * abs(want)


# --- the map's unit ------------------------------------------------------------------------

MAP_COLUMNS = (2, 3)  # x, y of fiducials.csv


def map_metrics(power: int) -> tuple[int, dict]:
    return run_json(lambda d: scale_csv(d / "fiducials.csv", MAP_COLUMNS, power),
                    lambda d: ["metrics", d / "campaign.json", "--test", "mapping"])


@PROPERTY
@given(powers(csv_numbers(SAMPLE / "fiducials.csv", MAP_COLUMNS)))
@example(160)
def test_scaling_the_map_keeps_the_global_error(power):
    _, base = map_metrics(0)
    code, tables = map_metrics(power)
    if code == 0:
        title = "Map metrics: map-loop"
        got = {row["metric"]: row["value"] for row in tables[title]}
        want = {row["metric"]: row["value"] for row in base[title]}
        assert "global error" in want and got.keys() == want.keys()
        assert all(close(got[m], want[m], 1) for m in want), (got, want)


# --- the weights' unit ---------------------------------------------------------------------

#: explicit weights of the sample's features, one over each feature's degree
WEIGHTS = {f["name"]: repr(1 / f["degree"]) for f in FEATURES["features"]}
RANKING = "Non-contextual autonomy ranking"


def ranking(power: int) -> tuple[int, dict]:
    def edit(directory):
        weights = {name: float(scaled(w, power)) for name, w in WEIGHTS.items()}
        (directory / "weights.json").write_text(json.dumps(weights))
    return run_json(edit, lambda d: ["ncap", "--features", d / "features.json",
                                     "--weights", d / "weights.json"])


@PROPERTY
@given(powers(WEIGHTS.values()))
@example(308)
def test_scaling_the_weights_keeps_the_potentials(power):
    _, base = ranking(0)
    code, tables = ranking(power)
    if code == 0:
        got, want = tables[RANKING], base[RANKING]
        assert [r["sUAS"] for r in got] == [r["sUAS"] for r in want]
        for g, w in zip(got, want):
            assert (g["autonomy level"], g["rank"]) == (w["autonomy level"], w["rank"])
            for column in ("component potential", "absolute distance", "relative distance"):
                assert close(g[column], w[column], 2), (column, g, w)


# --- the length unit of a traversal --------------------------------------------------------

NAV_FILES = ("wf_alpha_1.csv", "wf_alpha_2.csv", "wf_alpha_3.csv",
             "wf_bravo_1.csv", "wf_bravo_2.csv")
NAV_COLUMNS = (1, 2, 3, 4, 5, 6)  # x, y, z, vx, vy, vz
NAV_TEST = next(t for t in json.loads((SAMPLE / "campaign.json").read_text())["tests"]
                if t["test_id"] == "wall-follow-1m")
#: the cells in meters: (table, column)
LENGTHS = (("Path deviation", "mean AD (m)"), ("Path deviation", "std AD (m)"),
           ("Waypoint accuracy", "accuracy (m)"), ("Waypoint accuracy", "precision (m)"))


def nav_metrics(power: int) -> tuple[int, dict]:
    def edit(directory):
        for name in NAV_FILES:
            scale_csv(directory / name, NAV_COLUMNS, power)
        manifest = directory / "campaign.json"
        doc = json.loads(manifest.read_text())
        test = next(t for t in doc["tests"] if t["test_id"] == "wall-follow-1m")
        test["path"]["vertices"] = [[float(scaled(repr(c), power)) for c in v]
                                    for v in test["path"]["vertices"]]
        test["waypoint"] = [float(scaled(repr(c), power)) for c in test["waypoint"]]
        manifest.write_text(json.dumps(doc))
    return run_json(edit, lambda d: ["metrics", d / "campaign.json", "--test", "nav"])


def nav_numbers() -> list[str]:
    texts = [t for name in NAV_FILES for t in csv_numbers(SAMPLE / name, NAV_COLUMNS)]
    coordinates = [c for v in NAV_TEST["path"]["vertices"] for c in v] + NAV_TEST["waypoint"]
    return texts + [repr(float(c)) for c in coordinates]


@PROPERTY
@given(powers(nav_numbers()))
@example(200)
def test_scaling_the_traversal_scales_its_lengths(power):
    _, base = nav_metrics(0)
    code, tables = nav_metrics(power)
    if code == 0:
        k = 10.0 ** power
        for title, column in LENGTHS:
            for g, w in zip(tables[title], base[title], strict=True):
                assert (g["test"], g["sUAS"]) == (w["test"], w["sUAS"])
                # each printed to 3 decimals: k times the sample's rounding, and its own
                bound = 5e-4 * (1 + k) * (1 + 1e-9) + 1e-12 * abs(k * w[column])
                assert abs(g[column] - k * w[column]) <= bound, (column, g, w)


# --- any number in a numeric cell ----------------------------------------------------------

def metrics(test):
    return lambda d, fmt: ["metrics", d / "campaign.json", "--test", test, "--format", fmt]


def ncap(weights):
    return lambda d, fmt: ["ncap", "--features", d / "features.json", "--weights", weights(d),
                           "--format", fmt]


def deviation_plot(d, fmt):
    return ["plot", "--kind", "deviation", "--telemetry", d / "wf_alpha_1.csv",
            "--path", d / "path.json"]


def scatter(d, fmt):
    return ["plot", "--kind", "ncap-scatter", "--features", d / "features.json"]


def side_files(directory: Path) -> None:
    """The path and weight files the commands below read, beside the sample's own."""
    (directory / "path.json").write_text(json.dumps({"vertices": NAV_TEST["path"]["vertices"]}))
    (directory / "weights.json").write_text(json.dumps({f["name"]: f["degree"]
                                                        for f in FEATURES["features"]}))


#: the files whose numbers are mutated, and the commands that read each, as functions of the
#: copy's directory and a table format
NUMERIC_FILES = {
    "wf_alpha_1.csv": (metrics("nav"), deviation_plot),
    "oa_alpha_1.csv": (metrics("collision"),),
    "fiducials.csv": (metrics("mapping"),),
    "features.json": (ncap(lambda d: "degree"), ncap(lambda d: "uniform"), scatter),
    "weights.json": (ncap(lambda d: d / "weights.json"),),
}
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TINY, HUGE, -HUGE, 1e200, -1e200, 1e-200]),
    st.integers(-(10 ** 310), 10 ** 310),
)


def numeric_cells(name: str) -> list:
    """Where file `name` holds a number: (row, column) in a CSV, or a JSON path."""
    if name == "weights.json":  # written by `side_files`, one number per feature
        return [(f["name"],) for f in FEATURES["features"]]
    if name.endswith(".json"):
        return [where for where, value in entries(json.loads((SAMPLE / name).read_text()))
                if isinstance(value, (int, float)) and not isinstance(value, bool)]
    cells = []
    for row, line in enumerate((SAMPLE / name).read_text().splitlines()[1:], start=1):
        for column, cell in enumerate(line.split(",")):
            try:
                float(cell)
            except ValueError:
                continue
            cells.append((row, column))
    return cells


CELLS = {name: numeric_cells(name) for name in NUMERIC_FILES}


def set_number(path: Path, where, number) -> None:
    if path.suffix == ".csv":
        lines = path.read_text().split("\n")
        row, column = where
        cells = lines[row].split(",")
        cells[column] = repr(number)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines))
        return
    doc = json.loads(path.read_text())
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = number
    path.write_text(json.dumps(doc))


#: (file, command) pairs, the file's mutated number drawn among its CELLS by index
TARGETS = [(name, command) for name, commands in NUMERIC_FILES.items() for command in commands]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(TARGETS), st.integers(0, 10 ** 4), NUMBERS, st.sampled_from(["csv", "json"]))
# the last x of a flight sets its waypoint error, whose std squared 1e200 until it was a hypot
@example(TARGETS[0], CELLS["wf_alpha_1.csv"].index((122, 1)), 1e200, "csv")
def test_any_number_in_a_numeric_cell_gives_output_or_one_error(target, cell, number, fmt):
    name, command = target
    where = CELLS[name][cell % len(CELLS[name])]
    if command in (deviation_plot, scatter):
        fmt = "svg"

    def edit(directory):
        side_files(directory)
        set_number(directory / name, where, number)

    with tempfile.TemporaryDirectory() as tmp:
        code, out, errors = run_probe(Path(tmp), edit, lambda d: command(d, fmt))
    if code == 0:
        assert not errors
        well_formed(fmt, out)
    else:
        assert code in (1, 2) and out == "" and len(errors) == 1


# --- any value in place of a JSON node -----------------------------------------------------

#: what a node is replaced with: a value of each JSON type, arrays and an object that hold
#: one, or DROP, which deletes the node's key
DROP = "drop"
NODE_VALUES = (5, "x", [1], {"k": 1}, None, True, [[1]], [], DROP)
#: (file, path) of every node of each JSON input; () is the whole document
NODES = [(name, path) for name, (doc, _) in JSON_INPUTS.items()
         for path in [(), *(where for where, _ in entries(doc))]]
#: Python's own words for a value of the wrong shape, and its reprs of a value, which no
#: error line may show
LEAKS = ("object is not", "indices must", "unhashable", "unpack", "unexpected keyword", "None",
         "{'")


#: the maps whose keys are data, by file, each the path to the map with "*" for any key or
#: index: a parser reads one with `_fields(value, kind, owner)`, so an error about an entry
#: names its key
DATA_MAPS = {
    "fis.json": [("fis",), ("fis", "*", "inputs"), ("fis", "*", "outputs"),
                 ("fis", "*", "inputs", "*", "terms"), ("fis", "*", "inputs", "*", "aliases"),
                 ("fis", "*", "rules", "*", "if"), ("cascade",), ("ideal_inputs",),
                 ("ideal_inputs", "*")],
    "sa_weights.json": [("params",), ("missions",)],
    "features.json": [("features", "*", "ordinal_map"), ("systems", "*", "values"),
                      ("systems", "*", "capabilities")],
    "campaign.json": [("tests", "*", "shape_classes"), ("tests", "*", "responses")],
    "criteria.json": [()],
    "caps.json": [(), ("*",)],
    "weights.json": [()],
}


def in_data_map(name: str, path: tuple) -> bool:
    """Whether the node at `path` of JSON input `name` is an entry of a map whose keys are data."""
    return any(len(where) == len(path) - 1 and all(w in ("*", p) for w, p in zip(where, path))
               for where in DATA_MAPS.get(name, ()))


def node_edit(name: str, path: tuple, value):
    """An edit of a sample copy writing JSON input `name` with the node at `path` replaced by
    `value`, or deleted for DROP."""
    doc = copy.deepcopy(JSON_INPUTS[name][0])
    if not path:
        doc = value
    else:
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if value == DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return lambda directory: (directory / name).write_text(json.dumps(doc))


#: nodes and values that each once failed with Python's words or no entry named; the sweep
#: runs each, and tests/compare_outputs.py replays them
NODE_EXAMPLES = [
    (("fis.json", ("fis", "mc", "rules")), 5),
    (("fis.json", ("fis", "mc", "inputs", "crashes", "aliases", "many")), [1]),
    (("fis.json", ("fis", "mc", "inputs", "crashes", "range")), DROP),
    (("sa_weights.json", ("params", "altitude")), [1]),
    (("sa_weights.json", ("missions", "aviate", 0)), 5),
    (("campaign.json", ("tests", 0, "kind")), [1]),
    (("campaign.json", ("tests", 3, "nlos_positions", 0, "obstructions")), [[1]]),
    (("criteria.json", ("hd_video_min", "op")), DROP),
    (("caps.json", ("alpha",)), {"k": 1}),
    (("weights.json", ("flight_time",)), "x"),
    (("campaign.json", ()), 5),
    (("campaign.json", ("tests", 3, "nlos_positions", 0, "connect")), None),
    (("path.json", ("closed",)), None),
    (("campaign.json", ("trials", 15, "test_id")), None),
    (("fis.json", ("fis", "mc", "rules", 0)), DROP),
    (("fis.json", ("ideal_inputs", "mc", "crashes")), "x"),
    (("fis.json", ("fis", "mc", "outputs", "good")), "x"),
]


def node_examples(test):
    """`test` with each of NODE_EXAMPLES as an explicit example."""
    for node, value in NODE_EXAMPLES:
        test = example(node, value)(test)
    return test


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(NODES), st.sampled_from(NODE_VALUES))
@node_examples
def test_any_value_for_a_json_node_gives_output_or_one_named_error(node, value):
    name, path = node
    assume(path or value != DROP)
    with tempfile.TemporaryDirectory() as tmp:
        code, out, errors = run_probe(Path(tmp), node_edit(name, path, value),
                                      JSON_INPUTS[name][1])
    assert code in (0, 1, 2)
    if code:
        assert out == "" and len(errors) == 1
        assert not errors[0].startswith(("error: malformed input", "error: missing key"))
        assert not any(leak in errors[0] for leak in LEAKS), errors[0]
        # a value put in an entry's place fails naming the entry; a deleted one may fail
        # wherever it is missed
        if value not in (DROP, None) and in_data_map(name, path):
            assert str(path[-1]) in errors[0], errors[0]
    else:
        assert not errors
