"""Source hygiene, decided with the standard library alone: no unused
imports in the package or the tests, and the package exports exactly what
its __init__ imports from its submodules."""

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


def test_all_lists_exactly_the_names_imported_from_submodules():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    public = [name for name in imported if not name.startswith("_")]
    assert sorted(st.__all__) == sorted(public)
