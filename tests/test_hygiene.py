"""Dead code and foreign imports in ``src/greylp``, found by reading the
syntax trees.

An import that nothing in its module uses, and a module-level private
name that nothing in the package uses, are left behind when code is
removed.  An import of a module that is neither in the standard library
nor numpy (the one runtime dependency in ``pyproject.toml``) nor greylp
itself would break an install without the test extras.  Each check names
every offender at once.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).parents[1] / "src" / "greylp"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of the module's ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                e.value
                for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return set()


def _loaded(nodes) -> set[str]:
    """The names read in ``nodes``: bare names, attributes (``module._f``)
    and names imported from a module."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
    return names


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module):
    """Each module-level private name with the statement that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            stores = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in stores for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if _is_private(name):
                yield name, node


def unused_imports(trees) -> list[str]:
    """``module: name`` for every name a module imports and neither uses
    nor lists in its ``__all__`` (``from __future__`` and star imports
    aside)."""
    found = []
    for module, tree in trees.items():
        imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
        used = _loaded(n for n in tree.body if n not in imports) | _exported(tree)
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and bound not in used:
                    found.append(f"{module}: {bound}")
    return found


def unused_private_names(trees) -> list[str]:
    """``module: name`` for every module-level private name that no
    statement of the package reads, its own definition aside."""
    found = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            elsewhere = (
                n for t in trees.values() for n in t.body if n is not definition
            )
            if name not in _loaded(elsewhere):
                found.append(f"{module}: {name}")
    return found


_RUNTIME = {"numpy", "greylp"}  # beside the standard library


def foreign_imports(trees) -> list[str]:
    """``module: name`` for the top-level name of every module that a
    module imports, at any depth, and that is neither in the standard
    library (``sys.stdlib_module_names``) nor in ``_RUNTIME``; a relative
    import is greylp's own."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in _RUNTIME:
                    found.append(f"{module}: {top}")
    return found


def test_every_import_is_used_or_exported():
    assert unused_imports(TREES) == []


def test_every_private_module_name_is_used_in_the_package():
    assert unused_private_names(TREES) == []


def test_imports_only_the_standard_library_numpy_and_greylp():
    assert foreign_imports(TREES) == []


@pytest.mark.parametrize(
    "source, imports, privates",
    [
        ("import os\n", ["m.py: os"], []),
        ("import os.path\nos.sep\n", [], []),
        ("from a import b as c\n__all__ = ['c']\n", [], []),
        ("from __future__ import annotations\nfrom a import *\n", [], []),
        ("def _dead():\n    return _dead()\n", [], ["m.py: _dead"]),
        ("_TABLE = {}\n_x, _y = 1, 2\nprint(_x)\n", [], ["m.py: _TABLE", "m.py: _y"]),
        ("def _f():\n    pass\n\n\ndef g():\n    _f()\n", [], []),
    ],
)
def test_the_checks_flag_planted_dead_code(source, imports, privates):
    trees = {"m.py": ast.parse(source)}
    assert unused_imports(trees) == imports
    assert unused_private_names(trees) == privates


@pytest.mark.parametrize(
    "source, found",
    [
        ("import scipy.optimize\n", ["m.py: scipy"]),
        ("from hypothesis import given\n", ["m.py: hypothesis"]),
        ("def f():\n    import pandas\n", ["m.py: pandas"]),
        ("import os, numpy.linalg\nfrom greylp import cli\nfrom . import errors\n", []),
        ("from __future__ import annotations\nfrom collections.abc import Sequence\n", []),
    ],
)
def test_the_import_check_flags_planted_foreign_modules(source, found):
    assert foreign_imports({"m.py": ast.parse(source)}) == found
