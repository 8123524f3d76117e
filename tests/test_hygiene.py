"""Source hygiene, decided with the standard library alone: no unused
imports in the package or the tests, no private module-level name in the
package that the package never reads, no typing generic built at run time
in the package, no package code but ``cli.main`` writing to stdout, no
package code writing a file, the CLI naming no load-time law check and
working out no verdict, no package module but linalg using linalg's
Scalar edges, the package exports exactly what its __init__ imports from
its submodules, the README's library quick start runs as
written, and the package version has one source."""

import ast
import pathlib
import warnings
from collections import Counter

import pytest
from setuptools.config.pyprojecttoml import read_configuration

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


def _reads(scope: ast.AST) -> Counter:
    """How often each name is read in scope: loaded names, attribute names
    (so module._helper counts) and names inside string annotations."""
    reads = Counter(n.id for n in ast.walk(scope)
                    if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store))
    reads.update(n.attr for n in ast.walk(scope)
                 if isinstance(n, ast.Attribute))
    for ann in _annotations(scope):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                reads.update(_reads(ast.parse(n.value, mode="eval")))
    return reads


def _private_definitions(tree: ast.Module):
    """(name, node) for each module-level function, class or assignment
    whose name starts with "_" and is not a dunder such as __version__."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _unread_private_names(trees: list[ast.Module]) -> list[tuple[str, int]]:
    """(name, line) for each private module-level definition that no tree
    reads outside the definition itself, so recursion alone is no use."""
    reads = sum((_reads(tree) for tree in trees), Counter())
    return sorted((name, node.lineno) for tree in trees
                  for name, node in _private_definitions(tree)
                  if reads[name] == _reads(node)[name])


# a private helper that nothing calls is dead code the package still carries
def test_every_private_name_is_read_in_the_package():
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))]
    assert _unread_private_names(trees) == []


def test_unread_private_name_detector():
    tree = ast.parse(
        "import re\n"
        "__version__ = '1'\n"
        "_PATTERN = re.compile('x')\n"
        "_unused: int = 2\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else _PATTERN\n"
        "def _helper():\n"
        "    return 1\n"
        "class _Box:\n"
        "    pass\n"
        "def public(x: '_Box') -> int:\n"
        "    return _helper()\n")
    assert _unread_private_names([tree]) == [("_recursive", 5),
                                             ("_unused", 4)]
    other = ast.parse("from . import m\nm._recursive(0)\nm._unused\n")
    assert _unread_private_names([tree, other]) == []


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


def _open_mode(call: ast.Call):
    """The mode node of open(file, mode) or of path.open(mode), or None
    when the call leaves the mode at its default, "r"."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    index = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[index] if len(call.args) > index else None


def _file_writes(tree: ast.Module) -> list[tuple[str, int]]:
    """(what, line) for each open whose mode may write (it contains w, a, x
    or +, or is not a literal) and each write_text or write_bytes call."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = (f.id if isinstance(f, ast.Name)
                else f.attr if isinstance(f, ast.Attribute) else None)
        if name in ("write_text", "write_bytes") \
                and isinstance(f, ast.Attribute):
            found.append((name, node.lineno))
        elif name == "open":
            mode = _open_mode(node)
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)) \
                    or set(mode.value) & set("wax+"):
                found.append(("open", node.lineno))
    return sorted(found)


# every command prints its document, so the package writes no file
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_writes_no_file(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _file_writes(tree) == []


def test_file_write_detector():
    flagged = ast.parse(
        "import pathlib\n"
        "def gen(path, doc, mode):\n"
        "    with open(path, 'w', encoding='utf-8') as fh:\n"
        "        fh.write(doc)\n"
        "    open(path, mode='a')\n"
        "    open(path, 'r+')\n"
        "    open(path, 'xb')\n"
        "    open(path, mode)\n"
        "    pathlib.Path(path).open('w')\n"
        "    pathlib.Path(path).write_text(doc)\n"
        "    pathlib.Path(path).write_bytes(b'')\n")
    assert _file_writes(flagged) == [
        ("open", 3), ("open", 5), ("open", 6), ("open", 7), ("open", 8),
        ("open", 9), ("write_bytes", 11), ("write_text", 10)]
    allowed = ast.parse(
        "import pathlib, sys\n"
        "def load(path):\n"
        "    with open(path, 'r', encoding='utf-8') as fh:\n"
        "        text = fh.read()\n"
        "    open(path)\n"
        "    open(path, mode='rb')\n"
        "    pathlib.Path(path).open()\n"
        "    pathlib.Path(path).read_text()\n"
        "    sys.stderr.write(text)\n")
    assert _file_writes(allowed) == []


# the unit and involution laws are gated in the library, by PeirceSystem and
# both map checkers, so a library caller meets the same StarAlgebraLawError
# on which mapcheck exits 2; a CLI copy of the gate would hide its absence
LOAD_LAW_NAMES = ("check_unit", "check_involution",
                  "require_star_algebra_laws")


def _names_of(tree: ast.Module, names) -> list[tuple[str, int]]:
    """(name, line) for each name, attribute, import or string literal in
    tree that is one of names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(alias.name.split(".")[-1], node.lineno)
                      for alias in node.names]
    return sorted(f for f in found if f[0] in names)


def test_cli_names_no_load_time_law_check():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _names_of(tree, LOAD_LAW_NAMES) == []


def test_load_time_law_name_detector():
    tree = ast.parse(
        "from .peirce import require_star_algebra_laws as gate\n"
        "from . import algebra\n"
        "def f(a, check_unital):\n"
        "    algebra.check_unit(a)\n"
        "    getattr(algebra, 'check_involution')(a)\n"
        "    return check_involution(a) and check_unital\n")
    assert _names_of(tree, LOAD_LAW_NAMES) == [
        ("check_involution", 5), ("check_involution", 6), ("check_unit", 4),
        ("require_star_algebra_laws", 1)]


# the library hands linalg's integer kernel (echelon, int_nullspace,
# int_inverse) its numerators; the Scalar edges convert on every call and
# are kept for the tests and the benchmark only
SCALAR_LINALG_NAMES = ("rref", "nullspace", "inverse", "mat_vec")


def _scalar_linalg_uses(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each linalg.<name> and each import of name from a
    linalg module, for name in SCALAR_LINALG_NAMES."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id == "linalg":
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and (
                node.module or "").split(".")[-1] == "linalg":
            found += [(alias.name, node.lineno) for alias in node.names]
    return sorted(f for f in found if f[0] in SCALAR_LINALG_NAMES)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "linalg.py"),
                         ids=lambda p: p.name)
def test_package_uses_no_scalar_linalg_edge(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _scalar_linalg_uses(tree) == []


def test_scalar_linalg_edge_detector():
    tree = ast.parse(
        "from . import linalg\n"
        "from .linalg import rref, echelon\n"
        "from altstar.linalg import inverse as inv\n"
        "def f(m, v, rows):\n"
        "    linalg.echelon(rows, 2)\n"
        "    linalg.int_nullspace(rows, 2)\n"
        "    x = linalg.mat_vec(m, v)\n"
        "    return linalg.nullspace(m), x.inverse\n")
    assert _scalar_linalg_uses(tree) == [
        ("inverse", 3), ("mat_vec", 7), ("nullspace", 8), ("rref", 2)]


# every verdict (ok, refuted, derived_all_ok) is a field its report sets
# itself, so a command only picks its exit code from one; an and, or or
# not in a command would be a verdict rule the library never sees
def _verdict_logic(tree: ast.Module) -> list[tuple[str, int]]:
    """(command, line) for each and, or and not in a module-level
    function whose name starts with _cmd_."""
    return sorted((top.name, node.lineno) for top in tree.body
                  if isinstance(top, ast.FunctionDef)
                  and top.name.startswith("_cmd_")
                  for node in ast.walk(top)
                  if isinstance(node, ast.BoolOp)
                  or (isinstance(node, ast.UnaryOp)
                      and isinstance(node.op, ast.Not)))


def test_cli_commands_work_out_no_verdict():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _verdict_logic(tree) == []


def test_verdict_logic_detector():
    tree = ast.parse(
        "def _cmd_spade(args):\n"
        "    ok = args.r1 and args.r2\n"
        "    return (0 if ok else 1), {}\n"
        "def _cmd_mapcheck(args):\n"
        "    refuted = args.jordan or not args.iso\n"
        "    return (1 if refuted else 0), {}\n"
        "def _cmd_check(args):\n"
        "    rep = args.rep\n"
        "    return (0 if rep.ok else 1), {'ok': rep.ok}\n"
        "def pick(x, y):\n"
        "    return x and not y\n")
    assert _verdict_logic(tree) == [("_cmd_mapcheck", 5),
                                    ("_cmd_mapcheck", 5), ("_cmd_spade", 2)]


def test_all_lists_exactly_the_names_imported_from_submodules():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    public = [name for name in imported if not name.startswith("_")]
    assert sorted(st.__all__) == sorted(public)


def test_readme_library_quick_start_runs():
    # the block asserts its own claims; it pins the documented report API
    # (offdiag_product_witness, ok, derived_all_ok, entries, runs)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["audit"].entries and scope["flagged"]


def test_version_has_one_source():
    # pyproject.toml declares the version dynamic and reads it from
    # altstar.__version__, so the metadata cannot disagree with the package
    pyproject = ROOT / "pyproject.toml"
    with warnings.catch_warnings():
        # setuptools calls its [tool.setuptools] table beta
        warnings.simplefilter("ignore")
        static = read_configuration(pyproject, expand=False)["project"]
        expanded = read_configuration(pyproject, expand=True)["project"]
    assert "version" not in static and "version" in static["dynamic"]
    assert expanded["version"] == st.__version__
