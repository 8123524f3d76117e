"""The benchmark under perfbench/ reaches into altstar by name.

Its tracer wraps functions and methods named in ``Tracer.TARGETS`` and its
oracle imports names from altstar modules.  A rename or deletion here would
only surface when the benchmark runs; these tests make it fail tier-1.
Both files are read, never written; the tracer imports only the standard
library, and the oracle is parsed, not imported.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    tracer = _load_tracer().Tracer
    assert tracer.TARGETS
    for modname, path, _, probe in tracer.TARGETS:
        mod = importlib.import_module(modname)
        if "." in path:
            cls_name, meth = path.split(".")
            # the tracer patches the method found in the class dict
            assert callable(vars(getattr(mod, cls_name)).get(meth)), path
        else:
            assert callable(getattr(mod, path, None)), f"{modname}.{path}"
        if probe is not None:
            assert hasattr(tracer, f"_probe_{probe}")
    # the fold probe reads the argument list as the first positional
    from altstar.jordan import _q_cached
    assert list(inspect.signature(_q_cached).parameters) == ["args", "cache"]
    from altstar.scalars import Scalar
    assert "__init__" in vars(Scalar)


def test_oracle_imports_resolve():
    tree = ast.parse((PERFBENCH / "oracle.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "altstar"
                for alias in node.names]
    assert imported
    for modname, name in imported:
        mod = importlib.import_module(modname)
        assert hasattr(mod, name), f"{modname}.{name}"
