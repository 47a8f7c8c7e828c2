#!/usr/bin/env python3
"""Benchmark for the `decisive` command line, run from the repository root.

    python3 bench/run.py --workload campaign --seed 1 --seconds 22 --trace 0

Generates the workload's inputs from the seed, then repeats passes (every
invocation of the workload, in sequence, each a `python -m decisive.cli`
subprocess) for the given number of seconds and checks every output. Each
timing is scaled to a nominal host speed by a fixed reference program timed
right after it (bench/reference.py). With `--trace 1` it instead alternates
untraced and traced in-process passes and reports per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import oracles
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

#: after every pass the reference program runs twice, then the no-op
#: invocation; the no-op invocation at least this many times per run
PROBES_MIN = 11
#: the reference program's time at nominal host speed; each pass and each no-op
#: invocation is scaled by REF_NOMINAL_S / (mean of the two reference runs
#: just before it)
REF_NOMINAL_S = 0.25
#: separate interpreters timing the imports, per traced run
IMPORT_PROBES = 5
#: an invocation running longer than this is killed and counts as failed, so a
#: run ends within its time limit even if a change makes a subcommand hang
INVOCATION_TIMEOUT_S = 30

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "items_per_s": "items/s",
    "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in tracing.NAMED_LAYERS},
    **{f"{layer}.calls": "count" for layer in tracing.NAMED_LAYERS},
    "other.self_s": "s",
    "nav.samples": "count", "nav.samples_per_s": "1/s",
    "ingest.rows": "count", "ingest.rows_per_s": "1/s",
    "collision.distance_evals": "count", "collision.kinematics_derivations": "count",
    "stats.rank_tests": "count", "stats.exact_share": "ratio", "stats.rank_test_s": "s",
    "human_factors.items": "count",
    "cfis.rows": "count", "cfis.evals": "count", "cfis.rows_per_s": "1/s",
    "report.rows": "count", "report.bytes": "bytes",
    "setup.import_numpy_s": "s", "setup.import_decisive_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["DECISIVE_NO_COLOR"] = "1"
    return env


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def why(workload: str) -> str:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(w["why"] for w in doc["workloads"] if w["name"] == workload)


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it, with the count."""
    n = len(values)
    if n < 11:
        return f"no percentile has ten samples beyond it (n={n})"
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))  # nearest rank; n - rank >= 10
    return f"p{pct}={sorted(values)[rank - 1]:.6f} (n={n})"


class Invocation:
    """One `python -m decisive.cli` subprocess, timed with its child rusage."""

    def __init__(self, argv, cwd: Path, env: dict, out: Path, err: Path):
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "decisive.cli", *argv],
                                    cwd=cwd, env=env, stdout=stdout, stderr=stderr)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - start
            timer.cancel()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        self.stdout = out.read_text(encoding="utf-8", errors="replace")
        self.stderr = err.read_text(encoding="utf-8", errors="replace")


class Checker:
    """Counts failed invocations; an output already judged is not checked again."""

    def __init__(self, wl):
        self.wl = wl
        self.verdicts = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def judge(self, index: int, code, stdout: str, stderr: str) -> None:
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {stderr[-300:]!r}")
        elif "Traceback" in stderr:
            problems.append("traceback on stderr")
        else:
            key = (index, stdout)
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = oracles.check(self.wl, index, stdout)
                except (ValueError, IndexError, KeyError) as exc:
                    self.verdicts[key] = [f"output could not be read: {exc!r}"]
            problems = self.verdicts[key]
        if problems:
            self.failed += 1
            argv = " ".join(self.wl.invocations[index])
            self.problems.append(f"`{argv}`: " + "; ".join(problems[:3]))


def setup_probe(cwd: Path, env: dict, scratch: Path) -> Invocation:
    """The no-op invocation timed for setup_s: interpreter start plus imports."""
    return Invocation(["--help"], cwd, env, scratch / "help.out", scratch / "help.err")


def reference_probe(scratch: Path) -> float:
    """Wall time of the fixed reference program, which tracks the host's speed."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "reference.py")], cwd=scratch, check=True,
                   timeout=INVOCATION_TIMEOUT_S)
    return time.perf_counter() - start


def measure(wl, seconds: float, env: dict, scratch: Path, checker: Checker) -> dict:
    """Timed subprocess passes; per-pass samples, raw and scaled to nominal host speed.

    Each pass is followed by two runs of the reference program, which give the
    host's speed at that moment, and then by one no-op invocation.
    """
    samples = {name: [] for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "raw_wall_s",
                                     "raw_cpu_s", "raw_setup_s", "reference_s")}

    def one_pass():
        calls = [Invocation(argv, wl.workdir, env, scratch / f"{i}.out", scratch / f"{i}.err")
                 for i, argv in enumerate(wl.invocations)]
        for i, call in enumerate(calls):
            checker.judge(i, call.code, call.stdout, call.stderr)
        return calls

    def host_speed() -> float:
        runs = [reference_probe(scratch), reference_probe(scratch)]
        samples["reference_s"] += runs
        return REF_NOMINAL_S / statistics.mean(runs)

    def record(name: str, value: float, factor: float) -> None:
        samples[f"raw_{name}"].append(value)
        samples[name].append(value * factor)

    one_pass()  # warm-up, untimed (still checked): writes bytecode, fills the page cache
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples["wall_s"]) < 3:
        calls = one_pass()
        factor = host_speed()
        record("wall_s", sum(c.wall for c in calls), factor)
        record("cpu_s", sum(c.cpu for c in calls), factor)
        samples["peak_rss_mb"].append(max(c.rss_mb for c in calls))
        record("setup_s", setup_probe(wl.workdir, env, scratch).wall, factor)
    while len(samples["setup_s"]) < PROBES_MIN:
        factor = host_speed()
        record("setup_s", setup_probe(wl.workdir, env, scratch).wall, factor)
    return samples


def end_to_end(wl, samples: dict) -> dict:
    """Medians over the run of the scaled samples."""
    wall = statistics.median(samples["wall_s"])
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(samples["cpu_s"]),
        "items_per_s": wl.items / wall,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "setup_s": statistics.median(samples["setup_s"]),
    }


def traced(wl, seconds: float, env: dict, scratch: Path, checker: Checker, stem: str):
    """Per-layer metrics from the traced child, plus problems found by the trace."""
    imports = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, str(BENCH / "tracing.py"), "imports"],
                              cwd=wl.workdir, env=env, capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S, check=True)
        imports.append(json.loads(proc.stdout))
    spec = {
        "invocations": wl.invocations,
        "seconds": seconds,
        "spans": str(RESULTS / f"{stem}-spans.jsonl.gz"),
        "outputs": str(scratch / "traced."),
        "summary": str(scratch / "summary.json"),
    }
    (scratch / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH / "tracing.py"), "run", str(scratch / "spec.json")],
                   cwd=wl.workdir, env=env, timeout=150, check=True)
    summary = json.loads((scratch / "summary.json").read_text(encoding="utf-8"))

    for index, code, stderr, digest in summary["outcomes"]:
        stdout = (scratch / f"traced.{digest}").read_text(encoding="utf-8")
        checker.judge(index, code, stdout, stderr)
    problems = list(summary["errors"])

    metrics, entered = tracing.aggregate(spec["spans"], summary)
    for layer in wl.layers:
        if layer not in entered:
            problems.append(f"layer {layer!r} recorded no call")
    pairs = zip(summary["traced_s"], summary["untraced_s"])
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    for key in ("import_numpy_s", "import_decisive_s"):
        metrics[f"setup.{key}"] = statistics.median(p[key] for p in imports)
    metrics = {name: metrics.get(name, 0) for name in PER_LAYER_UNITS}
    info = {"passes": summary["passes"], "untraced_s": summary["untraced_s"],
            "traced_s": summary["traced_s"]}
    return metrics, problems, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "decisive" / "cli.py").is_file():
        print(f"error: no decisive sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        scratch = workdir / ".bench"
        scratch.mkdir()
        env = child_env()
        probe = setup_probe(workdir, env, scratch)
        if probe.code != 0:
            print(f"error: `python -m decisive.cli --help` exited {probe.code}:\n"
                  f"{probe.stderr[-2000:]}", file=sys.stderr)
            return 1
        wl = workloads.build(args.workload, args.seed, workdir, ROOT, args.scale)
        checker = Checker(wl)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "items": wl.items, "item_kind": wl.item_kind, "why": why(wl.name),
                  "environment": environment()}
        if args.trace:
            metrics, problems, info = traced(wl, args.seconds, env, scratch, checker, stem)
            units = PER_LAYER_UNITS
            record["trace"] = info
        else:
            samples = measure(wl, args.seconds, env, scratch, checker)
            metrics, problems, units = end_to_end(wl, samples), [], END_TO_END_UNITS
            record["samples"] = samples
        problems = checker.problems + problems
        correct = not problems
        record.update(metrics=metrics, problems=problems, attempted=checker.attempted,
                      failed=checker.failed)
        (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_report(record, units, correct)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def print_report(record: dict, units: dict, correct: bool) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"items/pass {record['items']} {record['item_kind']}")
    print(f"  why: {record['why']}")
    print(f"  python {env['python']}  numpy {env['numpy']}  cpu {env['cpu']}  "
          f"nproc {env['nproc']}  loadavg {' '.join(map(str, env['loadavg']))}")
    samples = record.get("samples", {})
    for name, value in record["metrics"].items():
        spread = f"  median; {tail(samples[name])}" if name in samples else ""
        print(f"  {name:34s} {value:>16.6f} {units[name]}{spread}")
    if samples:
        print(f"  unscaled (reference program median "
              f"{statistics.median(samples['reference_s']):.6f} s, nominal {REF_NOMINAL_S} s):")
        for name in ("wall_s", "cpu_s", "setup_s"):
            raw = samples[f"raw_{name}"]
            print(f"    {name:32s} {statistics.median(raw):>16.6f} s  median; {tail(raw)}")
        # printed only: on a host whose speed drifts, the fastest pass is the
        # least repeatable statistic, so BENCHMARK.json does not gate it
        print(f"    {'wall_min_s':32s} {min(samples['raw_wall_s']):>16.6f} s  "
              f"fastest of n={len(samples['raw_wall_s'])}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'fail_ratio':34s} {failed / attempted if attempted else 1.0:>16.6f} ratio  "
          f"({failed} of {attempted} invocations)")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(f"  outputs {'correct' if correct else 'INCORRECT'}")


if __name__ == "__main__":
    sys.exit(main())
