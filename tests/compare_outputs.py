#!/usr/bin/env python3
"""Compare the CLI's outputs of this checkout against those of another commit.

Run from the repository root:

    python3 tests/compare_outputs.py REF

`REF` is extracted with `git archive` into a temporary directory; without
one argument naming a commit, the script prints a usage line and exits 2.
Each invocation below runs as a subprocess once with that tree's `src` and
once with this checkout's `src` on PYTHONPATH, both from the same working
directory. The invocations are every golden command of the acceptance suite,
`sa` without `--weights`, and the benchmark's `campaign`, `survey-large` and
`scores` workloads generated from seed 61, each table command in every
`--format`; then each case of `test_cli`'s tables of load errors, run
errors and warning lines, so that error and warning lines are compared too;
then each of `test_ingest`'s huge values, of `test_records`' bad values and
of `test_scale`'s JSON-node examples, its command run on a copy of the sample
campaign that the case edits. Every invocation whose stdout, stderr or exit
code differs is printed, a case by its name, and the script exits 1 if any
does. The workload inputs are written by `bench/workloads.build`, and each
case's files by the case, in a directory of its own under the temporary
directory; nothing in the repository is written.
"""

import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "tests"), str(REPO / "src"), str(REPO / "bench")]

import test_acceptance  # noqa: E402
import test_cli  # noqa: E402
import test_ingest  # noqa: E402
import test_records  # noqa: E402
import test_scale  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("campaign", "survey-large", "scores")
SEED = 61
FORMATS = ("md", "csv", "json")


def in_each_format(argv: list[str]) -> list[list[str]]:
    """`argv` once per `--format` its subcommand accepts (`plot` accepts none), any format
    it names replaced."""
    if argv[0] == "plot":
        return [argv]
    if "--format" in argv:
        k = argv.index("--format")
        argv = argv[:k] + argv[k + 2:]
    return [argv + ["--format", fmt] for fmt in FORMATS]


def invocations(scratch: Path) -> list[tuple[str, Path, list[str]]]:
    """(label, working directory, CLI arguments) of every compared invocation."""
    golden = list(test_acceptance.GOLDEN_COMMANDS.values())
    sa = test_acceptance.GOLDEN_COMMANDS["sa.md"]
    golden.append(sa[:sa.index("--weights")])
    out = [(REPO, each) for argv in golden for each in in_each_format(argv)]
    for name in WORKLOADS:
        workdir = scratch / "workloads" / name
        workdir.mkdir(parents=True)
        wl = workloads.build(name, SEED, workdir, REPO)
        out += [(workdir, each) for argv in wl.invocations for each in in_each_format(argv)]
    out = [(f"{' '.join(argv)}  [in {cwd}]", cwd, argv) for cwd, argv in out]
    for k, (name, case) in enumerate(test_cli.table_cases()):
        workdir = scratch / "cases" / str(k)
        workdir.mkdir(parents=True)
        out.append((name, workdir, [str(arg) for arg in case(workdir)]))
    for k, (name, (edit, argv, _, _)) in enumerate(test_ingest.MAGNITUDES.items()):
        sample = shutil.copytree(test_ingest.SAMPLE, scratch / "magnitudes" / str(k))
        edit(sample)
        out.append((f"magnitude {name}", sample, [str(arg) for arg in argv(sample)]))
    for k, (name, (target, edit, argv, _)) in enumerate(test_records.CASES.items()):
        sample = shutil.copytree(test_records.SAMPLE, scratch / "records" / str(k))
        edit(sample / target)
        out.append((f"bad value {name}", sample, [str(arg) for arg in argv(sample)]))
    for k, ((name, path), value) in enumerate(test_scale.NODE_EXAMPLES):
        sample = shutil.copytree(test_ingest.SAMPLE, scratch / "nodes" / str(k))
        test_scale.node_edit(name, path, value)(sample)
        argv = test_ingest.JSON_INPUTS[name][1](sample)
        out.append((f"JSON node {name} {list(path)} <- {value!r}", sample,
                    [str(arg) for arg in argv]))
    return out


def run(src: Path, cwd: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "decisive.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def compare(ref: str) -> int:
    archive = subprocess.run(["git", "archive", ref], cwd=REPO, capture_output=True,
                             check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # the "data" filter, where this Python has it, keeps members inside the directory
            tar.extractall(scratch / "ref", **({"filter": "data"}
                                               if hasattr(tarfile, "data_filter") else {}))
        runs = invocations(scratch)
        differ = 0
        for label, cwd, argv in runs:
            theirs = run(scratch / "ref" / "src", cwd, argv)
            ours = run(REPO / "src", cwd, argv)
            streams = [name for name, a, b in zip(("exit code", "stdout", "stderr"), theirs, ours)
                       if a != b]
            if streams:
                differ += 1
                print(f"differ ({', '.join(streams)}): {label}")
    print(f"{differ} of {len(runs)} invocations differ from {ref}")
    return 1 if differ else 0


def is_commit(ref: str) -> bool:
    return not ref.startswith("-") and subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}"], cwd=REPO,
        capture_output=True).returncode == 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or not is_commit(sys.argv[1]):
        print(f"usage: {sys.argv[0]} REF, a commit of this repository", file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(sys.argv[1]))
