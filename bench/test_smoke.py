"""Smoke test: every workload at a tiny scale, untraced and traced, with passing oracles.

    python3 -m unittest bench/test_smoke.py      (or: python3 -m pytest bench)

Also checks that each oracle rejects a corrupted output, so a pass means the
checks looked at the numbers.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402

TINY = "0.05"


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        for workload in workloads.BUILDERS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = run_bench(workload, trace)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    if trace == 0:
                        self.assertGreater(result["metrics"]["wall_s"]["value"], 0)
                    else:
                        self.assertIn("trace.overhead_s", result["metrics"])

    def test_oracles_reject_a_changed_number(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), DECISIVE_NO_COLOR="1")
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        for name in workloads.BUILDERS:
            workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".bench_work"))
            try:
                wl = workloads.build(name, 5, workdir, ROOT, float(TINY))
                for index, argv in enumerate(wl.invocations):
                    with self.subTest(workload=name, invocation=index):
                        out = subprocess.run([sys.executable, "-m", "decisive.cli", *argv],
                                             cwd=workdir, env=env, capture_output=True,
                                             text=True, timeout=120, check=True).stdout
                        self.assertEqual(oracles.check(wl, index, out), [])
                        changed = corrupt(out, CHECKED_COLUMN[name])
                        self.assertNotEqual(oracles.check(wl, index, changed), [])
            finally:
                shutil.rmtree(workdir, ignore_errors=True)


#: a checked numeric column of each workload's first table
CHECKED_COLUMN = {"campaign": 4, "survey-exact": 2, "survey-large": 2, "scores": -1}


def corrupt(text: str, column: int) -> str:
    """Add 0.5 to a checked number: in the first table row, or the first plot point."""
    if text.startswith("<?xml"):
        return re.sub(r'points="(\d+)\.', lambda m: f'points="{int(m.group(1)) + 1}.', text, 1)
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("| ---")) + 1
    cells = lines[row].rstrip("\n").removesuffix(" |").split(" | ")
    cells[column] = f"{float(cells[column]) + 0.5:.2f}"
    lines[row] = " | ".join(cells) + " |\n"
    return "".join(lines)


if __name__ == "__main__":
    unittest.main()
