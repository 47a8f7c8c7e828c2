"""Every module-level function, class and constant of the package is reachable.

Reachable means used from a root, directly or through reachable code. The roots
are `cli.main`, the package's module-level statements that define nothing, the
acceptance suite and the benchmark. A use is a bare name that no enclosing
function binds itself, `module.name` on an imported module, or, in the
acceptance suite and the benchmark, an import. An attribute reference `.name`
on anything else counts only for a method or property. A use inside an
unreachable definition does not count. Private names are checked too, dunder
names such as `__version__` are not. Every public method and property of a
public class must be reachable as well; dunder methods are reachable with
their class.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "decisive"
ROOT_FILES = [REPO / "tests" / "test_acceptance.py"] + sorted((REPO / "bench").glob("*.py"))

TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def _source(node):
    """The package module a `from ... import` reads: "" for the package itself, None outside."""
    if node.level:
        return node.module or ""
    if node.module and (node.module + ".").startswith("decisive."):
        return node.module.removeprefix("decisive").removeprefix(".")
    return None


def _imports(tree):
    """Local name -> ("module", package module) or ("name", package module, name).

    The package module is None for an import from outside the package.
    """
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update({alias.asname or alias.name: ("module", None) for alias in node.names})
        elif isinstance(node, ast.ImportFrom):
            source = _source(node)
            for alias in node.names:
                is_module = source == "" and alias.name in TREES
                out[alias.asname or alias.name] = (
                    ("module", alias.name) if is_module else ("name", source or None, alias.name))
    return out


def _targets(node):
    return node.targets if isinstance(node, ast.Assign) else [node.target]


DEFS, METHODS, ROOT_NODES = {}, {}, []  # (module, name) -> node; (module, class, name) -> node
for module, tree in TREES.items():
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            DEFS[(module, node.name)] = node
            if isinstance(node, ast.ClassDef):
                METHODS.update({(module, node.name, item.name): item for item in node.body
                                if isinstance(item, ast.FunctionDef)})
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and all(
                isinstance(t, ast.Name) for t in _targets(node)):
            DEFS.update({(module, t.id): node for t in _targets(node)})
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            ROOT_NODES.append((module, node))
IMPORTS = {module: _imports(tree) for module, tree in TREES.items()}


def _resolve(module, name, imports):
    """The definition `name` means in `module` (after `imports`), following re-exports."""
    for _ in range(len(TREES)):
        if module is not None and (module, name) in DEFS:
            return (module, name)
        bound = imports.get(name)
        if not bound or bound[0] != "name" or bound[1] is None:
            return None
        module, name, imports = bound[1], bound[2], IMPORTS[bound[1]]
    return None


def _bound_names(function):
    """The names a function binds, nested scopes included; they hide module-level names."""
    names = set()
    for sub in ast.walk(function):
        if isinstance(sub, ast.arg):
            names.add(sub.arg)
        elif isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub is not function:
            names.add(sub.name)
    return names


def _uses(module, node, imports, counts_imports):
    """The definitions and attribute names a piece of code uses."""
    parts = [node]
    if isinstance(node, ast.ClassDef):  # methods are reached on their own
        parts = node.bases + node.decorator_list + [
            item for item in node.body if not isinstance(item, ast.FunctionDef)]
    local = _bound_names(node) if isinstance(node, ast.FunctionDef) else set()
    found, attrs = set(), set()
    for part in parts:
        for sub in ast.walk(part):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id not in local:
                    found.add(_resolve(module, sub.id, imports))
            elif isinstance(sub, ast.Attribute):
                bound = isinstance(sub.value, ast.Name) and imports.get(sub.value.id)
                if not bound or bound[0] != "module":
                    attrs.add(sub.attr)
                elif bound[1] is not None:
                    found.add(_resolve(bound[1], sub.attr, IMPORTS[bound[1]]))
            elif counts_imports and isinstance(sub, ast.ImportFrom) and _source(sub):
                found |= {_resolve(_source(sub), a.name, {}) for a in sub.names}
    return found - {None}, attrs


def _reachable():
    reached, attrs = {("cli", "main")}, set()
    work = [(m, n, IMPORTS[m], False) for m, n in ROOT_NODES + [("cli", DEFS[("cli", "main")])]]
    for path in ROOT_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        work.append((None, tree, _imports(tree), True))
    while work:
        module, node, imports, counts_imports = work.pop()
        found, used = _uses(module, node, imports, counts_imports)
        attrs |= used
        for key in found - reached:
            reached.add(key)
            work.append((key[0], DEFS[key], IMPORTS[key[0]], False))
        for key, method in METHODS.items():
            if (key not in reached and key[:2] in reached
                    and (key[2] in attrs or key[2].startswith("__"))):
                reached.add(key)
                work.append((key[0], method, IMPORTS[key[0]], False))
    return reached


REACHED = _reachable()
CHECKED = sorted(key for key in DEFS if not key[1].startswith("__"))
PUBLIC_METHODS = [key for key in METHODS if not (key[1].startswith("_") or key[2].startswith("_"))]


@pytest.mark.parametrize("key", CHECKED, ids=[".".join(k) for k in CHECKED])
def test_module_level_name_is_reachable(key):
    assert key in REACHED, f"{'.'.join(key)} is not reachable from the CLI, acceptance or bench"


@pytest.mark.parametrize("key", PUBLIC_METHODS, ids=[".".join(k) for k in PUBLIC_METHODS])
def test_public_method_or_property_is_reachable(key):
    assert key in REACHED, f"{'.'.join(key)} is not reachable from the CLI, acceptance or bench"
