"""`compare_outputs.py` refuses, with a usage line, to run without a commit to compare against."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "compare_outputs.py"


@pytest.mark.parametrize("argv", [[], ["--help"], ["no-such-ref"]], ids=["none", "help", "bad-ref"])
def test_usage_line_and_exit_two(argv):
    proc = subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"usage: {SCRIPT} REF, a commit of this repository\n"
