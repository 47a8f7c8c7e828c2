"""Each check on an input value runs once, in the parser that reads the value.

The records hold fields only, and only fields something reads (the last test).
Each case edits one value in a copy of the sample input that carries it, runs
the CLI, and expects its exact `error:` line and exit code: each check that
moved from a record into its parser, and the parser checks that made a record's
own check redundant. The manifest entry checks (outcome, duration, lighting,
lux) and the SEEV parameter and FIS term checks are cases of `test_cli.py`'s
`TestValidate.test_bad_entry_value_names_the_entry` and `LOAD_ERRORS` tables.
"""

import ast
import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest

import decisive.cfis
import decisive.core
import decisive.field
import decisive.human_factors
import decisive.mapping
import decisive.nav
import decisive.ncap
import decisive.report
from decisive.cli import main
from test_surface import ROOT_FILES, TREES

REPO = Path(__file__).resolve().parents[1]
SAMPLE = REPO / "sample_campaign"
PACKAGE = REPO / "src" / "decisive"


def edit_json(edit):
    def apply(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return apply


def edit_test(test_id, edit):
    """An edit of the manifest test `test_id`."""
    return edit_json(lambda doc: edit(next(t for t in doc["tests"] if t["test_id"] == test_id)))


def edit_cell(line, column, text):
    """An edit of one cell of a CSV file, at a 1-based file line."""
    def apply(path):
        lines = path.read_text().split("\n")
        cells = lines[line - 1].split(",")
        cells[column] = text
        lines[line - 1] = ",".join(cells)
        path.write_text("\n".join(lines))
    return apply


def write_path(vertices):
    return lambda path: path.write_text(json.dumps({"vertices": vertices}))


VALIDATE = lambda d: ["validate", d / "campaign.json"]  # noqa: E731
PLOT = lambda d: ["plot", "--kind", "deviation", "--telemetry", d / "wf_alpha_1.csv",  # noqa: E731
                  "--path", d / "path.json"]
OBSTACLE = "test oa-wall obstacle{}"
NLOS = "test endurance-indoor nlos_positions 1{}"
PATH = "test wall-follow-1m path: {}"

#: case -> (the file of the sample campaign copy it edits, the edit, the command, the error
#: line after "error: ", with {file} for the edited file)
CASES = {
    "obstacle-kind": ("campaign.json", edit_test("oa-wall", lambda t: t["obstacle"].update(
        kind="sphere")), VALIDATE,
        OBSTACLE.format(": bad 'kind' field (expected one of \"plane_segment\", "
                        "\"infinite_plane\", got \"sphere\")") + " (at {file})"),
    "obstacle-endpoints": ("campaign.json", edit_test("oa-wall", lambda t: t["obstacle"].update(
        p1=[0.0, 0.0])), VALIDATE, OBSTACLE.format(": segment endpoints must differ") + " (at {file})"),
    "obstacle-height": ("campaign.json", edit_test("oa-wall", lambda t: t["obstacle"].update(
        height=0)), VALIDATE,
        OBSTACLE.format(": bad 'height' field (expected a number > 0, got 0)") + " (at {file})"),
    "obstacle-material": ("campaign.json", edit_test("oa-wall", lambda t: t["obstacle"].update(
        material="glass")), VALIDATE,
        OBSTACLE.format(": bad 'material' field (expected one of \"wall\", \"mesh\", "
                        "\"chain_link\", \"door_closed\", \"door_45\", \"door_open\", "
                        "got \"glass\")") + " (at {file})"),
    "nlos-distance": ("campaign.json", edit_test("endurance-indoor", lambda t: t[
        "nlos_positions"][1].update(distance=0)), VALIDATE,
        NLOS.format(": bad 'distance' field (expected a number > 0, got 0)") + " (at {file})"),
    "nlos-connect": ("campaign.json", edit_test("endurance-indoor", lambda t: t[
        "nlos_positions"][1].update(connect="ok")), VALIDATE,
        NLOS.format(": bad 'connect' field (expected one of \"good\", \"bad\", \"none\", "
                    "got \"ok\")") + " (at {file})"),
    "nlos-fly": ("campaign.json", edit_test("endurance-indoor", lambda t: t[
        "nlos_positions"][1].update(fly="maybe")), VALIDATE,
        NLOS.format(": bad 'fly' field (expected one of \"possible\", \"not_possible\", "
                    "got \"maybe\")") + " (at {file})"),
    "fiducial-min-traversal": ("campaign.json", edit_test("map-loop", lambda t: t[
        "fiducials"][1].update(min_traversal=0)), VALIDATE,
        "test map-loop fiducials 1: bad 'min_traversal' field (expected a number > 0, got 0) "
        "(at {file})"),
    "path-one-vertex": ("campaign.json", edit_test("wall-follow-1m", lambda t: t["path"].update(
        vertices=[[0, 1, 1]])), VALIDATE,
        PATH.format("bad 'vertices' field (expected at least two vertices, got 1)")
        + " (at {file})"),
    "path-repeated-vertex": ("campaign.json", edit_test("wall-follow-1m", lambda t: t[
        "path"].update(vertices=[[0, 1, 1], [0.0, 1.0, 1.0], [3, 1, 1]])), VALIDATE,
        PATH.format("bad 'vertices' field (expected consecutive vertices to differ)")
        + " (at {file})"),
    "plot-path-one-vertex": ("path.json", write_path([[0, 1, 1]]), PLOT,
                             "path file: bad 'vertices' field (expected at least two "
                             "vertices, got 1) (at {file})"),
    "plot-path-repeated-vertex": ("path.json", write_path([[0, 1, 1], [0, 1, 1]]), PLOT,
                                  "path file: bad 'vertices' field (expected consecutive "
                                  "vertices to differ) (at {file})"),
    "criterion-op": ("criteria.json", edit_json(lambda doc: doc["hd_video_min"].update(
        op="between")), VALIDATE, "criterion 'hd_video_min': bad 'op' field (expected one of "
        "\"equals\", \"min\", \"max\", \"contains\", got \"between\") (at {file})"),
    "fiducial-mapped-state": ("fiducials.csv", edit_cell(3, 4, "blurred"), VALIDATE,
                              "bad mapped state 'blurred' (at {file}:3)"),
    # a record used to repeat each of these parser checks
    "fiducial-half": ("fiducials.csv", edit_cell(3, 1, "3"), VALIDATE,
                      "half '3' must be 1 or 2 (at {file}:3)"),
    "fiducial-min-turns": ("campaign.json", edit_test("map-loop", lambda t: t[
        "fiducials"][1].update(min_turns=-1)), VALIDATE, "test map-loop fiducials 1: bad "
        "'min_turns' field (expected a non-negative integer, got -1) (at {file})"),
    "feature-direction": ("features.json", edit_json(lambda doc: doc["features"][1].update(
        direction="sideways")), lambda d: ["ncap", "--features", d / "features.json"],
        "feature 'charge_time': bad 'direction' field (expected one of \"higher\", \"lower\", "
        "got \"sideways\") (at {file})"),
}


@pytest.mark.parametrize("name", CASES)
def test_bad_value_fails_in_its_parser(tmp_path, name):
    target, edit, argv, message = CASES[name]
    directory = shutil.copytree(SAMPLE, tmp_path / "sample")
    edit(directory / target)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv(directory)])
    assert (code, out.getvalue(), err.getvalue()) == (
        1, "", "error: " + message.format(file=directory / target) + "\n")


#: the records, each a NamedTuple of fields
RECORDS = [decisive.cfis.TriangularMf, decisive.core.ObstacleGeometry, decisive.core.TrialRecord,
           decisive.field.NlosPosition, decisive.field.Criterion, decisive.human_factors.SeParams,
           decisive.human_factors.SagatColumns, decisive.mapping.FiducialObservation,
           decisive.mapping.FiducialGroundTruth, decisive.nav.ReferencePath,
           decisive.ncap.Feature, decisive.report.Column]

#: the only classes of the package, exception types aside, that build themselves
BUILT = {"Trajectory", "ReportTable", "_Parser"}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_record_is_a_named_tuple(record):
    assert issubclass(record, tuple) and hasattr(record, "_fields")


def test_only_the_listed_classes_define_init():
    exceptions = {"ParseError"}  # errors.py: an exception carries its location
    defining = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name in ("__init__", "__new__", "__eq__")
                for f in node.body)
    }
    assert defining - exceptions <= BUILT
    assert not defining & {r.__name__ for r in RECORDS}


#: the one record whose fields are not all read by name: `cli.cmd_validate` counts the
#: `suas` and `environments` blocks of a Campaign through its `_fields`
FIELDS_READ_AS_A_WHOLE = {("core", "Campaign")}


def _strings(tree):
    """The string constants of `tree`, docstrings aside."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in docstrings}


def test_every_record_field_is_read():
    """A field is read where `.field` is loaded in the package, the acceptance suite or the
    benchmark, or where a package module names it in a string, as `tables` does for
    `getattr(trial, attr)`; `ingest`'s strings are input keys, not reads."""
    trees = [*TREES.values(), *(ast.parse(p.read_text(encoding="utf-8")) for p in ROOT_FILES)]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    read |= {text for module, tree in TREES.items() if module != "ingest"
             for text in _strings(tree)}
    unread = [f"{module}.{node.name}.{item.target.id}"
              for module, tree in TREES.items() for node in tree.body
              if isinstance(node, ast.ClassDef)
              and (module, node.name) not in FIELDS_READ_AS_A_WHOLE
              and any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    assert not unread, f"record fields nothing reads: {', '.join(unread)}"
