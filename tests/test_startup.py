"""Each subcommand loads only the package modules it runs, and numpy only where it builds arrays.

Each case runs one subcommand on the sample campaign in a fresh interpreter,
through `decisive.cli.main`, and reports whether `numpy`, `dataclasses`,
`inspect` and `numpy.ma` were imported and which `decisive.*` modules were. The subcommands
that do need numpy are checked too, so the test cannot pass because the probe
never sees an import; `cli` and `errors`, which every run loads, play that part
for the package's modules. The package defines its records without
`dataclasses`, which would also import `inspect`; numpy imports `inspect` itself.
No subcommand loads `numpy.ma`, which numpy's `np.unique` imports on its first call.
`metrics --test collision` on trials without telemetry only counts categories, so it
loads no numpy either: that is why `collision` and `core` import numpy where they build
arrays, not when they load.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CAMPAIGN = REPO / "sample_campaign"
MODULES = {p.stem for p in (REPO / "src" / "decisive").glob("*.py")} - {"__init__"}

PROBE = """
import contextlib, io, os, sys
from decisive.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *(m in sys.modules for m in ("numpy", "dataclasses", "inspect", "numpy.ma")))
print(*sorted(m.removeprefix("decisive.") for m in sys.modules if m.startswith("decisive.")))
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""

MANIFEST = CAMPAIGN / "campaign.json"
FEATURES = CAMPAIGN / "features.json"
TRUST = ["trust", "--survey", CAMPAIGN / "surveys.csv",
         "--condition-a", "caged", "--condition-b", "exposed"]
CFIS = ["cfis", "--scores", CAMPAIGN / "cfis_scores.csv"]

def untracked_collision(tmp_path):
    """`metrics --test collision` on a copy of the sample whose collision trials carry no
    telemetry, so only the OA/CR category tables print."""
    manifest = shutil.copytree(CAMPAIGN, tmp_path / "campaign") / "campaign.json"
    doc = json.loads(manifest.read_text())
    for trial in doc["trials"]:
        if trial["test_id"] == "oa-wall":
            trial.pop("telemetry")
    manifest.write_text(json.dumps(doc))
    return ["metrics", manifest, "--test", "collision"]


#: the modules a survey subcommand leaves unloaded
NOT_SURVEY = {"cfis", "collision", "core", "field", "mapping", "nav", "ncap"}

CASES = {  # argv (or a function of a temporary directory giving it), whether it loads numpy,
    # the modules it must not load
    "help": (["--help"], False, MODULES - {"cli", "errors"}),
    "validate": (["validate", MANIFEST], False, set()),
    "trust": (TRUST, False, NOT_SURVEY),
    "sa": (["sa", "--sagat", CAMPAIGN / "sagat.csv",
            "--weights", CAMPAIGN / "sa_weights.json"], False, NOT_SURVEY),
    "ncap": (["ncap", "--features", FEATURES], False, set()),
    "plot-ncap-scatter": (["plot", "--kind", "ncap-scatter", "--features", FEATURES], False,
                          set()),
    "metrics-field": (["metrics", MANIFEST, "--test", "field"], False, set()),
    "metrics-mapping": (["metrics", MANIFEST, "--test", "mapping"], False, set()),
    "metrics-collision-untracked": (untracked_collision, False, {"cfis", "human_factors", "ncap"}),
    "report": (["report", MANIFEST], True, {"cfis", "human_factors", "ncap"}),
    "metrics-nav": (["metrics", MANIFEST, "--test", "nav"], True, set()),
    "cfis": (CFIS, True, {"collision", "core", "field", "human_factors", "mapping", "nav",
                          "ncap", "stats"}),
}


def probe(argv, env=os.environ):
    """The probe's three lines for `argv`, run in environment `env`."""
    env = {**env, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", PROBE, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=60)
    lines = done.stdout.splitlines()
    assert len(lines) == 3, done.stderr
    return lines


@pytest.mark.parametrize("argv, loads_numpy, unloaded", CASES.values(), ids=CASES.keys())
def test_subcommand_loads_only_what_it_runs(argv, loads_numpy, unloaded, tmp_path):
    status, modules, _ = probe(argv(tmp_path) if callable(argv) else argv)
    code, numpy, dataclasses, inspect, numpy_ma = status.split()
    assert (code, numpy, dataclasses, numpy_ma) == ("0", str(loads_numpy), "False", "False")
    assert loads_numpy or inspect == "False"
    loaded = set(modules.split())
    assert {"cli", "errors"} <= loaded
    assert not loaded & unloaded


@pytest.mark.parametrize("given, seen", [(None, "1"), ("3", "3")], ids=["unset", "caller's"])
def test_cli_runs_openblas_on_one_thread_unless_the_caller_says(given, seen):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    status, _, value = probe(CFIS, env)
    assert (status.split()[:2], value) == (["0", "True"], seen)


def test_no_module_imports_dataclasses():
    for path in sorted((REPO / "src" / "decisive").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
        assert "dataclasses" not in imported, path.name
