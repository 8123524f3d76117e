"""Source hygiene, decided with the standard library alone: no unused
imports in the package or the tests, no typing generic built at run time in
the package, no package code but ``cli.main`` writing to stdout, and the
package exports exactly what its __init__ imports from its submodules."""

import ast
import pathlib

import pytest

import altstar as st

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "altstar"
INIT = PACKAGE / "__init__.py"
SOURCES = sorted(p for d in (PACKAGE, ROOT / "tests") for p in d.glob("*.py")
                 if p != INIT)


def _imports(scope: ast.AST):
    """(bound name, line) for each import made in scope itself, not in a
    function nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        todo.extend(ast.iter_child_nodes(node))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        else:
            continue
        if ann is not None:
            yield ann


def _used_names(scope: ast.AST) -> set[str]:
    """Every name read in scope, including those inside string
    annotations such as "Element" or Optional["Element"]."""
    used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    for ann in _annotations(scope):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _used_names(ast.parse(n.value, mode="eval"))
    return used


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        used = _used_names(scope)
        unused += [(n, line) for n, line in _imports(scope) if n not in used]
    return sorted(unused)


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_detector():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Optional\n"
        "from .algebra import Element, Witness\n"
        "def f(x: 'Optional[Element]'):\n"
        "    import json\n"
        "    return osp\n")
    assert _unused_imports(tree) == [("Witness", 4), ("json", 6), ("os", 2)]


def _typing_subscripts(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each subscript of a name imported from typing, such
    as Callable[...], outside every annotation, so built at run time."""
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "typing"
             for alias in node.names}
    annotated = {id(n) for ann in _annotations(tree) for n in ast.walk(ann)}
    return sorted((node.value.id, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  and id(node) not in annotated
                  and isinstance(node.value, ast.Name)
                  and node.value.id in names)


# typing caches every generic it builds together with its arguments, so a
# run-time Callable[[PeirceSystem], Element] keeps each re-imported copy of
# the package alive and grows peak memory; builtin generics such as
# list[list[Scalar]] are not cached, and annotations are never evaluated
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_typing_generic_is_built_at_run_time(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _typing_subscripts(tree) == []


def test_typing_generic_detector():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from typing import Callable, Optional\n"
        "Matrix = list[list[int]]\n"
        "Fn = Callable[[int], Optional[int]]\n"
        "def f(x: Optional[int], g: Callable[[int], int]) -> Optional[int]:\n"
        "    y: Optional[int] = x\n"
        "    return g(y)\n")
    assert _typing_subscripts(tree) == [("Callable", 4), ("Optional", 4)]


def _stdout_uses(tree: ast.Module,
                 allowed: str = "") -> list[tuple[str, int]]:
    """(what, line) for each use of print or sys.stdout outside the
    module-level function named allowed."""
    exempt = {id(n) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == allowed
              for n in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Name) and node.id == "print":
            found.append(("print", node.lineno))
        elif (isinstance(node, ast.Attribute) and node.attr == "stdout"
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append(("sys.stdout", node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" and any(
                alias.name == "stdout" for alias in node.names):
            found.append(("sys.stdout", node.lineno))
    return sorted(found)


# a report is the bytes cli.main writes; anything else on stdout would
# break byte-deterministic output
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_cli_main_writes_to_stdout(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = "main" if path.name == "cli.py" else ""
    assert _stdout_uses(tree, allowed) == []


def test_stdout_use_detector():
    flagged = ast.parse(
        "import sys\n"
        "from sys import stdout\n"
        "def main():\n"
        "    sys.stdout.write('report')\n"
        "def helper():\n"
        "    print('debug')\n"
        "    return sys.stdout\n")
    assert _stdout_uses(flagged, "main") == [
        ("print", 6), ("sys.stdout", 2), ("sys.stdout", 7)]
    allowed = ast.parse(
        "import sys\n"
        "def main():\n"
        "    print('report')\n"
        "    sys.stdout.write('report')\n"
        "def helper():\n"
        "    sys.stderr.write('error')\n")
    assert _stdout_uses(allowed, "main") == []
    assert _stdout_uses(allowed) == [("print", 3), ("sys.stdout", 4)]


def test_all_lists_exactly_the_names_imported_from_submodules():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    public = [name for name in imported if not name.startswith("_")]
    assert sorted(st.__all__) == sorted(public)
