#!/usr/bin/env python3
"""Refresh the golden CLI outputs under tests/golden/.

Run from the repository root after an intentional output-format change:

    python3 tests/make_goldens.py

Review the diff before committing; goldens exist to catch drift.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from decisive.cli import main

import test_acceptance

#: goldens checked outside the acceptance suite, by tests/test_cli.py
MORE_GOLDEN_COMMANDS = {
    "report.json": test_acceptance.GOLDEN_COMMANDS["report.md"] + ["--format", "json"],
}


def refresh():
    golden_dir = Path(__file__).parent / "golden"
    golden_dir.mkdir(exist_ok=True)
    commands = {**test_acceptance.GOLDEN_COMMANDS, **MORE_GOLDEN_COMMANDS}
    for name, argv in sorted(commands.items()):
        target = golden_dir / name
        code = main(argv + ["--out", str(target)])
        if code != 0:
            raise SystemExit(f"{name}: command failed with exit {code}")
        print(f"wrote {target}")


if __name__ == "__main__":
    refresh()
