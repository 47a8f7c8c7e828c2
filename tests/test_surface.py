"""Every public module-level function and class has a caller outside its unit tests.

So does every public method and property of a public class. A caller is a
reference outside the name's own definition, in the package source, the
acceptance suite or the benchmark: a whole word for a module-level name, an
attribute reference (`.name`) for a method or property.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "decisive"

# Field-readiness metrics from the paper's report, not yet wired into `field`
# tests (ROADMAP, direction 4). This tuple may only shrink.
NOT_YET_CALLED = ("room_clearing_summary", "noise_summary", "video_latency", "latency_summary")


# every file a caller may live in, read once
SOURCES = {
    path: path.read_text(encoding="utf-8")
    for path in (sorted(PACKAGE.glob("*.py")) + [REPO / "tests" / "test_acceptance.py"]
                 + sorted((REPO / "bench").glob("*.py")))
}


def _definition(path, node):
    """(module file, name, first line, last line) of a def or class, decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return (path, node.name, first, node.end_lineno)


def _public_definitions():
    """The definitions of the public top-level defs and classes, and separately of the
    public methods and properties of those classes."""
    names, members = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(SOURCES[path]).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names.append(_definition(path, node))
                if isinstance(node, ast.ClassDef):
                    members += [_definition(path, item) for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("_")]
    return names, members


def _has_caller(definition, prefix=r"\b") -> bool:
    """Whether `prefix` then the name as a whole word appears in any source, the name's
    own definition blanked."""
    own_path, name, first, last = definition
    word = re.compile(rf"{prefix}{re.escape(name)}\b")
    for path, text in SOURCES.items():
        if path == own_path:
            lines = text.splitlines()
            text = "\n".join(lines[:first - 1] + lines[last:])
        if word.search(text):
            return True
    return False


DEFINITIONS, MEMBERS = _public_definitions()
CHECKED = [d for d in DEFINITIONS if d[1] not in NOT_YET_CALLED]


@pytest.mark.parametrize("definition", CHECKED, ids=[f"{d[0].stem}.{d[1]}" for d in CHECKED])
def test_public_name_has_a_caller(definition):
    assert _has_caller(definition), (
        f"{definition[0].name}: {definition[1]} has no caller outside its unit tests"
    )


@pytest.mark.parametrize("member", MEMBERS, ids=[f"{d[0].stem}.{d[1]}" for d in MEMBERS])
def test_public_method_or_property_has_a_caller(member):
    assert _has_caller(member, prefix=r"\."), (
        f"{member[0].name}: {member[1]} is never referenced as an attribute outside its unit tests"
    )


@pytest.mark.parametrize("name", NOT_YET_CALLED)
def test_exemption_is_still_needed(name):
    matches = [d for d in DEFINITIONS if d[1] == name]
    assert matches, f"{name} is gone; drop it from NOT_YET_CALLED"
    assert not any(_has_caller(d) for d in matches), (
        f"{name} now has a caller; drop it from NOT_YET_CALLED"
    )
