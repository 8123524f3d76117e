"""Traced pass: wrappers around the public entry points of each layer.

The tracer patches functions and methods of the ``altstar`` modules from
outside.  Each wrapped call records a span (name, start, end, parent, and
the running count of Scalar constructions at start and end).  Spans stay in
memory; ``Tracer.summary`` turns them into per-layer metrics and
``Tracer.write_spans`` writes them out once the run is over.

A module-level function is patched in every ``altstar`` module namespace
that imported it by value (``from .jordan import jordan_star`` binds the
name in ``maps`` too).  Methods are patched on their classes.
``Scalar.__init__`` is wrapped for counting only.  ``uninstall`` puts every
original object back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Callable, Optional


def _max_bits(x) -> int:
    return max((max(abs(c.a).bit_length(), abs(c.b).bit_length(),
                    c.d.bit_length()) for c in x.coords), default=0)


def _nonzero(x) -> int:
    return sum(1 for c in x.coords if not c.is_zero())


class Tracer:
    """Install with ``install()``; always ``uninstall()`` in a finally."""

    # (module, attribute path, span name, probe name or None)
    TARGETS = (
        ("altstar.cli", "main", "cli.main", None),
        ("altstar.formats", "resolve_algebra", "formats.resolve", None),
        ("altstar.formats", "load_map_file", "formats.resolve", None),
        ("altstar.formats", "canonical_json", "formats.json", None),
        ("altstar.constructions", "zorn_algebra", "constructions.build", None),
        ("altstar.constructions", "matrix_algebra", "constructions.build",
         None),
        ("altstar.constructions", "cayley_dickson", "constructions.build",
         None),
        ("altstar.constructions", "direct_sum", "constructions.build", None),
        ("altstar.constructions", "change_of_basis", "constructions.build",
         None),
        ("altstar.algebra", "Algebra.multiply", "algebra.multiply",
         "multiply"),
        ("altstar.algebra", "Algebra.star", "algebra.star", "star"),
        ("altstar.algebra", "check_axioms", "algebra.axioms", None),
        ("altstar.linalg", "rref", "linalg.rref", "rref"),
        ("altstar.linalg", "mat_vec", "linalg.mat_vec", None),
        ("altstar.peirce", "PeirceSystem.__init__", "peirce.system", None),
        ("altstar.peirce", "peirce_decompose", "peirce.decompose", None),
        ("altstar.peirce", "check_peirce_relations", "peirce.relations",
         None),
        ("altstar.peirce", "check_spade", "peirce.spade", None),
        ("altstar.jordan", "jordan_star", "jordan.pair", None),
        ("altstar.jordan", "_q_cached", "jordan.fold", "fold"),
        ("altstar.jordan", "verify_identity", "jordan.verify", None),
        ("altstar.maps", "AlgebraMap.__call__", "maps.apply", "apply"),
        ("altstar.maps", "check_jordan_condition", "maps.condition", None),
        ("altstar.maps", "check_star_ring_isomorphism", "maps.isomorphism",
         None),
        ("altstar.sampling", "random_element", "sampling.draw", None),
        ("altstar.sampling", "random_combination", "sampling.draw", None),
    )

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self.scalars = 0
        self.counts: dict[str, int] = {
            "nonzero_pairs": 0, "pair_slots": 0, "max_bits": 0,
            "rref_cells": 0, "fold_uncached": 0, "patch_hits": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- probes: counts taken where the work happens ------------------------

    def _probe_multiply(self, args, result) -> None:
        _, x, y = args
        c = self.counts
        c["nonzero_pairs"] += _nonzero(x) * _nonzero(y)
        c["pair_slots"] += x.algebra.dim ** 2
        c["max_bits"] = max(c["max_bits"], _max_bits(result))

    def _probe_star(self, args, result) -> None:
        c = self.counts
        c["max_bits"] = max(c["max_bits"], _max_bits(result))

    def _probe_rref(self, args, result) -> None:
        m = args[0]
        self.counts["rref_cells"] += len(m) * (len(m[0]) if m else 0)

    def _probe_fold(self, args, result) -> None:
        self.counts["fold_uncached"] += len(args[0]) - 1

    def _probe_apply(self, args, result) -> None:
        phi, x = args
        self.counts["patch_hits"] += x in phi.patches

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable,
              probe: Optional[Callable]) -> Callable:
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outer = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            spans.append(None)
            stack.append(idx)
            n0 = self.scalars
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                spans[idx] = (name, t0, t1, parent, outer, n0, self.scalars)
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "altstar"
                                         or n.startswith("altstar."))]
        for modname, path, name, probe in self.TARGETS:
            mod = importlib.import_module(modname)
            probe_fn = getattr(self, f"_probe_{probe}") if probe else None
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth],
                                                probe_fn))
                continue
            original = getattr(mod, path)
            wrapper = self._wrap(name, original, probe_fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)
        scalar_cls = importlib.import_module("altstar.scalars").Scalar
        init = scalar_cls.__init__

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            self.scalars += 1
            init(obj, *args, **kwargs)

        self._set(scalar_cls, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer counts, busy times, self times and ratios.

        ``<name>_s`` is busy time: the summed duration of the outermost
        spans of that name, so nested calls are not counted twice.
        ``<layer>.self_s`` is span time minus the time of child spans.
        """
        spans = self.spans
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_time: dict[str, float] = {}
        child: list[float] = [0.0] * len(spans)
        for idx in range(len(spans) - 1, -1, -1):
            name, t0, t1, parent, outer, _, _ = spans[idx]
            dur = t1 - t0
            if parent >= 0:
                child[parent] += dur
            calls[name] = calls.get(name, 0) + 1
            if outer:
                busy[name] = busy.get(name, 0.0) + dur
            layer = name.split(".")[0]
            self_time[layer] = self_time.get(layer, 0.0) + dur - child[idx]
        mul_scalars = sum(s[6] - s[5] for s in spans
                          if s[0] == "algebra.multiply" and s[4])
        fold_pairs = sum(1 for s in spans if s[0] == "jordan.pair"
                         and s[3] >= 0 and spans[s[3]][0] == "jordan.fold")
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for name in ("algebra.multiply", "algebra.star", "jordan.pair",
                     "peirce.decompose", "maps.apply", "linalg.rref",
                     "linalg.mat_vec", "constructions.build",
                     "sampling.draw"):
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in ("cli.main", "algebra.multiply", "algebra.star",
                     "algebra.axioms",
                     "jordan.verify", "peirce.system", "peirce.decompose",
                     "peirce.relations", "peirce.spade", "maps.apply",
                     "maps.condition", "maps.isomorphism", "linalg.rref",
                     "linalg.mat_vec", "constructions.build",
                     "formats.resolve", "formats.json", "sampling.draw"):
            out[f"{name}_s"] = busy.get(name, 0.0)
        for layer in ("cli", "formats", "constructions", "algebra", "linalg",
                      "peirce", "jordan", "maps", "sampling"):
            out[f"{layer}.self_s"] = self_time.get(layer, 0.0)
        mul_calls = calls.get("algebra.multiply", 0)
        out.update({
            "algebra.multiply.nonzero_pair_ratio":
                ratio(c["nonzero_pairs"], c["pair_slots"]),
            "algebra.multiply.pair_slots": c["pair_slots"],
            "scalars.norm.calls": self.scalars,
            "scalars.norm_per_product": ratio(mul_scalars, mul_calls),
            "scalars.max_bits": c["max_bits"],
            "jordan.evals": calls.get("jordan.fold", 0),
            "jordan.fold.pairs_made": fold_pairs,
            "jordan.fold.pairs_uncached": c["fold_uncached"],
            "jordan.prefix_hit_ratio":
                ratio(c["fold_uncached"] - fold_pairs, c["fold_uncached"]),
            "maps.patch_hit_ratio":
                ratio(c["patch_hits"], calls.get("maps.apply", 0)),
            "linalg.rref.cells": c["rref_cells"],
        })
        return out

    def write_spans(self, path: str) -> None:
        """Write spans as [name, start_s, end_s, parent] rows, start at 0."""
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], round(s[1] - base, 7), round(s[2] - base, 7), s[3]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
