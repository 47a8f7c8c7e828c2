"""Only the subcommands that build arrays load numpy.

Each case runs one subcommand on the sample campaign in a fresh interpreter,
through `decisive.cli.main`, and reports whether `numpy` was imported. The
subcommands that do need numpy are checked too, so the test cannot pass
because the probe never sees an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CAMPAIGN = REPO / "sample_campaign"

PROBE = """
import contextlib, io, sys
from decisive.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""

MANIFEST = CAMPAIGN / "campaign.json"
FEATURES = CAMPAIGN / "features.json"

CASES = {
    "help": (["--help"], False),
    "validate": (["validate", MANIFEST], False),
    "trust": (["trust", "--survey", CAMPAIGN / "surveys.csv",
               "--condition-a", "caged", "--condition-b", "exposed"], False),
    "sa": (["sa", "--sagat", CAMPAIGN / "sagat.csv",
            "--weights", CAMPAIGN / "sa_weights.json"], False),
    "ncap": (["ncap", "--features", FEATURES], False),
    "plot-ncap-scatter": (["plot", "--kind", "ncap-scatter", "--features", FEATURES], False),
    "metrics-field": (["metrics", MANIFEST, "--test", "field"], False),
    "metrics-mapping": (["metrics", MANIFEST, "--test", "mapping"], False),
    "report": (["report", MANIFEST], True),
    "metrics-nav": (["metrics", MANIFEST, "--test", "nav"], True),
    "cfis": (["cfis", "--scores", CAMPAIGN / "cfis_scores.csv"], True),
}


@pytest.mark.parametrize("argv, loads_numpy", CASES.values(), ids=CASES.keys())
def test_numpy_is_loaded_only_where_arrays_are_built(argv, loads_numpy):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", PROBE, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.stdout == f"0 {loads_numpy}\n", done.stderr
