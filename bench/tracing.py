"""In-memory span tracer for the traced benchmark run.

The tracer wraps the module attributes through which qsusy's layers call each
other (``invariance.evaluate``, ``models.safe_points``, ``invariance.np`` and
so on); nothing under ``src/`` changes.  Every call through a wrapped attribute
records one span -- name, start, end and parent span -- in flat arrays, and a
few wrappers also add to named counters.  ``layer_metrics`` turns the spans
into the per-layer metrics that ``BENCHMARK.json`` lists, and ``save`` writes
the raw spans out once the traced pass has finished.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name); every qsusy module attribute bound to the
# same function object is replaced, so calls that went through
# ``from .expr import evaluate`` copies are traced too.
_TARGETS = [
    ("qsusy.expr", "evaluate", "expr.evaluate"),
    ("qsusy.expr", "evaluate_exact", "expr.evaluate_exact"),
    ("qsusy.invariance", "safe_points", "invariance.safe_points"),
    ("qsusy.invariance", "check_invariant", "invariance.check_invariant"),
    ("qsusy.invariance", "check_annihilates", "invariance.check_annihilates"),
    ("qsusy.invariance", "ops_equal_numeric", "invariance.ops_equal_numeric"),
    ("qsusy.numerics", "fd_spectrum", "numerics.fd_spectrum"),
    ("qsusy.numerics", "eigh_tridiagonal", "numerics.eigh"),
    ("qsusy.x2", "verify_x2_identities", "x2.verify_x2_identities"),
]

# Symbolic construction entry points, grouped by the layer that owns them.
_BUILDERS = {
    "diffop": ("compose", "commutator", "gauge_conjugate", "pullback",
               "expand_factored"),
    "families": ("build_J", "build_K", "build_P3_minus", "build_P3_plus",
                 "build_H_minus", "build_H_minus_direct", "build_H_plus",
                 "build_H_plus_direct", "abc_profile", "monomial_J", "monomial_K",
                 "monomial_family", "literature_ops", "expand_in_literature_basis",
                 "assemble_from_literature_basis", "duality_K_from_J"),
    "x2": ("x2_frame", "wronskian_J", "wronskian_K", "x2_supercharges",
           "wronskian_J_via_conjugation", "wronskian_K_via_conjugation",
           "supercharges_via_conjugation", "x2_J_gallery", "x2_K_gallery",
           "x2b_conjugated_K", "literature_x2"),
    "models": ("build_example",),
}

# numpy.linalg as reached through ``np.linalg`` in these modules.
_LINALG_MODULES = ("qsusy.invariance", "qsusy.models")
_LINALG_FUNCS = ("cond", "norm", "lstsq", "qr", "svd", "eig")

# Per-layer metrics that are counts; they must repeat exactly between runs.
COUNT_METRICS = (
    "expr.evaluate.calls", "expr.evaluate_exact.calls",
    "invariance.safe_points.calls", "linalg.calls",
    "numerics.fd_spectrum.calls", "numerics.nodes", "x2.exact_fallbacks",
    "trace.spans",
)


class _Forward:
    """Attribute namespace that overrides some names and forwards the rest."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _count_points(counts, args, kwargs, out):
    counts["safe_points.points"] += len(out)


def _count_nodes(counts, args, kwargs, out):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    counts["numerics.nodes"] += len(grid.interior())


_ON_RETURN = {
    "invariance.safe_points": _count_points,
    "numerics.fd_spectrum": _count_nodes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        # bit set of the span's own name and all its ancestors' names
        self._mask = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn, on_return=None):
        if name in self.names:
            raise ValueError(f"span name {name!r} wrapped twice")
        if len(self.names) >= 62:
            raise ValueError("too many span names for the ancestor bit set")
        nid = len(self.names)
        self.names.append(name)
        bit = 1 << nid
        names, parents, starts, ends, masks = (
            self._name, self._parent, self._start, self._end, self._mask)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(names)
            names.append(nid)
            parents.append(parent)
            masks.append((masks[parent] if parent >= 0 else 0) | bit)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced attribute of the already imported qsusy modules."""
        modules = [m for k, m in sys.modules.items()
                   if (k == "qsusy" or k.startswith("qsusy.")) and m is not None]
        targets = list(_TARGETS)
        for layer, funcs in _BUILDERS.items():
            targets += [(f"qsusy.{layer}", f, f"{layer}.build.{f}") for f in funcs]
        for module, attr, name in targets:
            orig = getattr(sys.modules[module], attr)
            traced = self.wrap(name, orig, _ON_RETURN.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, traced)
        numpy_linalg = {f: self.wrap(f"linalg.{f}", getattr(np.linalg, f))
                        for f in _LINALG_FUNCS}
        proxy = _Forward(np, {"linalg": _Forward(np.linalg, numpy_linalg)})
        for module in _LINALG_MODULES:
            sys.modules[module].np = proxy

    def _arrays(self):
        return (np.frombuffer(self._name, dtype=np.int32),
                np.frombuffer(self._parent, dtype=np.int32),
                np.frombuffer(self._start), np.frombuffer(self._end),
                np.frombuffer(self._mask, dtype=np.int64))

    def layer_metrics(self) -> dict:
        """Per-layer counts and times (s) from the recorded spans.

        ``.self_s`` and ``.build_s`` are self times: a span's duration minus
        the durations of its direct child spans.  ``.s`` is inclusive time of
        the outermost spans of that name (a nested call to the same name is
        not counted twice).
        """
        name, parent, start, end, mask = self._arrays()
        n = len(name)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        # names of all strict ancestors of each span
        anc = np.where(has_parent, mask[np.maximum(parent, 0)], 0)

        def sel(span_name):
            return name == self.names.index(span_name)

        def bit(span_name):
            return np.int64(1 << self.names.index(span_name))

        def calls(span_name):
            return int(sel(span_name).sum())

        def self_s(names):
            return float(sum(self_time[sel(x)].sum() for x in names))

        def incl_s(names):
            total = 0.0
            for x in names:
                s = sel(x) & ((anc & bit(x)) == 0)
                total += float(dur[s].sum())
            return total

        def under(span_name, ancestor):
            return int((sel(span_name) & ((anc & bit(ancestor)) != 0)).sum())

        linalg = [f"linalg.{f}" for f in _LINALG_FUNCS]
        points = self.counts["safe_points.points"]
        evals_in_search = under("expr.evaluate", "invariance.safe_points")
        out = {
            "expr.evaluate.calls": calls("expr.evaluate"),
            "expr.evaluate.self_s": self_s(["expr.evaluate"]),
            "expr.evaluate_exact.calls": calls("expr.evaluate_exact"),
            "expr.evaluate_exact.self_s": self_s(["expr.evaluate_exact"]),
            "invariance.safe_points.calls": calls("invariance.safe_points"),
            "invariance.safe_points.self_s": self_s(["invariance.safe_points"]),
            "invariance.safe_points.evals_per_point":
                evals_in_search / points if points else 0.0,
            "invariance.check_invariant.s": incl_s(["invariance.check_invariant"]),
            "invariance.check_annihilates.s": incl_s(["invariance.check_annihilates"]),
            "invariance.ops_equal_numeric.s": incl_s(["invariance.ops_equal_numeric"]),
            "linalg.calls": sum(calls(x) for x in linalg),
            "linalg.s": incl_s(linalg),
        }
        for layer, funcs in _BUILDERS.items():
            out[f"{layer}.build_s"] = self_s([f"{layer}.build.{f}" for f in funcs])
        out.update({
            "numerics.fd_spectrum.calls": calls("numerics.fd_spectrum"),
            "numerics.fd_spectrum.s": incl_s(["numerics.fd_spectrum"]),
            "numerics.eigh_s": incl_s(["numerics.eigh"]),
            "numerics.nodes": self.counts["numerics.nodes"],
            "x2.verify_x2_identities.s": incl_s(["x2.verify_x2_identities"]),
            "x2.exact_fallbacks": under("expr.evaluate_exact", "x2.verify_x2_identities"),
            "trace.spans": n,
        })
        return out

    def save(self, path):
        """Write the spans, the span-name table and the counters as one .npz."""
        name, parent, start, end, _ = self._arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez(path, name=name, parent=parent, start=start - t0, end=end - t0,
                 names=np.array(self.names), counts=np.array(json.dumps(dict(self.counts))))
