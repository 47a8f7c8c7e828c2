"""Every `raise` in the package is reached by a CLI input.

One fixed table of in-process `cli.main` runs goes under a tracer that records
the lines run in the package's own frames. The table is the CLI tests' tables
themselves: the load errors, run errors, warning lines, huge values and
scaled inputs. A `raise` statement that no run executes is a check that no
input reaches (or one the tables do not pin yet), and the test names it. One
raise is exempt, named below with its reason.
"""

import ast
import sys
from pathlib import Path

import decisive
from test_cli import call, table_cases
from test_ingest import MAGNITUDES, SCALED, run_probe

PACKAGE = Path(decisive.__file__).parent

#: the raises no CLI input reaches, by the function that holds them, with the reason each stays
EXEMPT = {
    "stats._betacf": "the continued fraction failing to converge is a fault in the program's "
                     "own numerics, which the README bounds; no input is known to reach it",
}


def raises() -> dict[tuple[str, int], str]:
    """(file, line) of each raise statement in the package -> `module.function` holding it."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # outer functions first, so a nested function's raises end up under its own name
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Raise):
                        found[(str(path), node.lineno)] = f"{path.stem}.{func.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                found.setdefault((str(path), node.lineno), f"{path.stem}.<module>")
    return found


def runs():
    """Each run of the table: (name, a function that runs it in a fresh directory)."""
    for name, argv in table_cases():
        yield name, lambda d, argv=argv: call(*argv(d))
    for name, (edit, argv, _, _) in MAGNITUDES.items():
        yield f"magnitude {name}", lambda d, edit=edit, argv=argv: run_probe(d, edit, argv)
    for name, (scale, argv) in SCALED.items():
        yield f"scaled {name}", lambda d, scale=scale, argv=argv: run_probe(d, scale, argv)


def test_every_raise_is_reached_by_a_cli_input(tmp_path):
    wanted = raises()
    files = {file for file, _ in wanted}
    reached = set()

    def lines(frame, event, arg):
        if event == "line" and (frame.f_code.co_filename, frame.f_lineno) in wanted:
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        for k, (_, run) in enumerate(runs()):
            directory = tmp_path / str(k)
            directory.mkdir()
            run(directory)
    finally:
        sys.settrace(previous)

    exempt = [where for where, function in wanted.items() if function in EXEMPT]
    assert sorted({wanted[where] for where in exempt}) == sorted(EXEMPT)
    assert len(exempt) == len(EXEMPT)  # one raise each
    unreached = [f"{Path(file).name}:{line} in {wanted[(file, line)]}"
                 for file, line in sorted(set(wanted) - reached - set(exempt))]
    assert unreached == []
