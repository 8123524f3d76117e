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


def test_tracer_readers_take_an_element():
    """The tracer's probes read ``x.coords`` as Scalars (.a, .b, .d,
    .is_zero()); coords is derived from the integer fields of an Element."""
    tracer = _load_tracer()
    from altstar import zorn_algebra
    from altstar.scalars import ZERO, Scalar
    a = zorn_algebra()
    x = a.element([Scalar(3, -5, 4), ZERO, Scalar(1, 0, 1024)] + [ZERO] * 5)
    assert (x.den, x.re[:3], x.im[:3]) == (1024, (768, 0, 1), (-1280, 0, 0))
    assert tracer._nonzero(x) == 2
    assert tracer._max_bits(x) == 11          # the denominator 1024
    assert tracer._nonzero(a.zero()) == 0 and tracer._max_bits(a.zero()) == 1
