"""Per-layer tracing of weylops, attached from outside the package.

A hook wraps one public function or method of a layer (a module of
``weylops``).  Class attributes are replaced on the class.  A module-level
function is replaced in *every* loaded ``weylops`` module that binds it,
because ``invariants``, ``transpose`` and ``levelmatrix`` import their
helpers with ``from .x import y`` and would otherwise keep calling the
original.  A hook whose target no longer exists is reported by name in
``Tracer.missing``; its metrics then read 0.

Each wrapped call records a span ``[layer, start, end, parent]`` in memory.
A layer's self time is the duration of its spans minus the time covered by
their direct child spans.  Counters (term pairs, matrix cells, output terms)
are taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _poly_terms(op) -> int:
    return sum(len(f.terms) for f in op.terms.values())


def _count_diffop_mul(tracer, args, result):
    self, other = args[0], args[1]
    n_other = len(other.terms) if isinstance(other, tracer.W.DiffOp) else 1
    tracer.count("diffop.mul.term_pairs", len(self.terms) * n_other)
    if result is not NotImplemented:
        tracer.count("diffop.mul.out_terms", _poly_terms(result))


def _count_poly_mul(tracer, args, result):
    self, other = args[0], args[1]
    n_other = len(other.terms) if isinstance(other, tracer.W.Polynomial) else 1
    tracer.count("poly.mul.term_pairs", len(self.terms) * n_other)


def _count_transport(tracer, args, result):
    tracer.count("transpose.transport.out_terms", _poly_terms(result))


def _count_rref(tracer, args, result):
    m = args[0]
    tracer.count("linalg.rref.cells", m.nrows * m.ncols)


def _count_matmul(tracer, args, result):
    a, b = args[0], args[1]
    k = b.ncols if isinstance(b, tracer.W.Matrix) else 1
    tracer.count("linalg.matmul.cells", a.nrows * a.ncols * k)


# (layer, module, attribute, extra counter, metrics reported)
CS = ("calls", "self_s")
HOOKS = (
    ("diffop.mul", "weylops.diffop", "DiffOp.__mul__", _count_diffop_mul,
     CS + ("term_pairs", "out_terms")),
    ("diffop.apply", "weylops.diffop", "DiffOp.apply", None, CS),
    ("diffop.operator_from_monomial_values", "weylops.diffop",
     "operator_from_monomial_values", None, CS),
    ("poly.mul", "weylops.poly", "Polynomial.__mul__", _count_poly_mul,
     CS + ("term_pairs",)),
    ("poly.apply_ring_map", "weylops.poly", "apply_ring_map", None, CS),
    ("transpose.standard_transpose", "weylops.transpose", "standard_transpose",
     None, CS),
    ("transpose.twisted_transpose", "weylops.transpose", "twisted_transpose",
     None, CS),
    ("transpose.transport_via_coordinates", "weylops.transpose",
     "transport_via_coordinates", _count_transport, CS + ("evals",)),
    ("invariants.ring_map", "weylops.invariants", "GroupElement.ring_map", None, CS),
    ("invariants.act_on_op", "weylops.invariants", "act_on_op", None, CS),
    ("invariants.reynolds", "weylops.invariants", "reynolds", None, CS),
    ("invariants.FiniteGroup", "weylops.invariants", "FiniteGroup.__init__", None,
     ("self_s",)),
    ("linalg.rref", "weylops.linalg", "Matrix.rref", _count_rref, CS + ("cells",)),
    ("linalg.nullspace", "weylops.linalg", "Matrix.nullspace", None, CS),
    ("linalg.matmul", "weylops.linalg", "Matrix.__mul__", _count_matmul,
     CS + ("cells",)),
    ("linalg.inverse", "weylops.linalg", "Matrix.inverse", None, CS),
    ("artinian.order_filtration", "weylops.artinian", "order_filtration", None, CS),
    ("artinian.socle_adjoint", "weylops.artinian", "socle_adjoint", None, CS),
    ("artinian.pairing_is_permutation", "weylops.artinian",
     "ArtinianAlgebra.pairing_is_permutation", None, CS),
    ("artinian.contains", "weylops.artinian", "OrderFiltration.contains", None, CS),
    ("levelmatrix.to_matrix", "weylops.levelmatrix", "to_matrix", None, CS),
    ("levelmatrix.to_operator", "weylops.levelmatrix", "to_operator", None, CS),
    ("levelmatrix.mul", "weylops.levelmatrix", "LevelMatrix.__mul__", None, CS),
    ("opparser.parse_operator", "weylops.opparser", "parse_operator", None, CS),
    ("render.op_json", "weylops.render", "op_json", None, CS),
    ("field.FieldSpec", "weylops.field", "FieldSpec.__init__", None, CS),
)

# metrics that are ratios, not per-layer sums
RATIO_METRICS = (("transpose.transport.useful_ratio", "ratio", "higher"),
                 ("trace.overhead_frac", "ratio", "lower"))

UNITS = {"calls": "count", "self_s": "s", "term_pairs": "count",
         "out_terms": "count", "evals": "count", "cells": "count"}


def metric_specs():
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    out = [(f"{layer}.{m}", UNITS[m], "lower")
           for layer, _mod, _attr, _count, metrics in HOOKS for m in metrics]
    return out + list(RATIO_METRICS)


class Tracer:
    """Spans and counters of one traced run; ``attach`` installs the hooks
    and returns nothing, ``detach`` restores every replaced binding."""

    def __init__(self, W):
        self.W = W
        self.spans = []  # [layer, start, end, parent index]
        self.counters = {}
        self.missing = []
        self._stack = []
        self._undo = []

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, layer):
        return _Span(self, layer)

    def _wrap(self, layer, fn, counter):
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def attach(self):
        targets = {}
        for modname in {hook[1] for hook in HOOKS}:
            try:
                targets[modname] = importlib.import_module(modname)
            except ImportError:
                targets[modname] = None
        modules = [m for name, m in sys.modules.items()
                   if (name == "weylops" or name.startswith("weylops.")) and m]
        for layer, modname, attr, counter, _metrics in HOOKS:
            module = targets[modname]
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or name not in vars(owner):
                self.missing.append(layer)
                continue
            original = vars(owner)[name]
            wrapper = self._wrap(layer, original, counter)
            if owner_name:
                setattr(owner, name, wrapper)
                self._undo.append((owner, name, original))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def detach(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per-layer ``(calls, self seconds)`` over every recorded span."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {}
        for i, rec in enumerate(spans):
            calls, total = out.get(rec[0], (0, 0.0))
            out[rec[0]] = (calls + 1, total + (rec[2] - rec[1]) - child[i])
        return out

    def transport_evals(self) -> int:
        """``DiffOp.apply`` calls made inside a coordinate transport."""
        spans = self.spans
        evals = 0
        for rec in spans:
            if rec[0] != "diffop.apply":
                continue
            parent = rec[3]
            while parent >= 0:
                if spans[parent][0] == "transpose.transport_via_coordinates":
                    evals += 1
                    break
                parent = spans[parent][3]
        return evals

    def metrics(self, overhead_frac):
        """Every per-layer metric as ``{name: value}``; missing hooks read 0."""
        selfs = self.self_times()
        evals = self.transport_evals()
        values = {}
        for layer, _mod, _attr, _count, metrics in HOOKS:
            calls, self_s = selfs.get(layer, (0, 0.0))
            for m in metrics:
                if m == "calls":
                    values[f"{layer}.calls"] = calls
                elif m == "self_s":
                    values[f"{layer}.self_s"] = self_s
                elif m == "evals":
                    values[f"{layer}.evals"] = evals
                else:
                    values[f"{layer}.{m}"] = self.counters.get(f"{layer}.{m}", 0)
        out_terms = self.counters.get("transpose.transport.out_terms", 0)
        values["transpose.transport.useful_ratio"] = out_terms / evals if evals else 0.0
        values["trace.overhead_frac"] = overhead_frac
        return values

    def ranking(self):
        """Layers (and the unhooked remainder of jobs) by self time."""
        selfs = self.self_times()
        total = sum(s for _c, s in selfs.values()) or 1.0
        rows = sorted(selfs.items(), key=lambda kv: -kv[1][1])
        return [[layer, round(s, 6), round(s / total, 4), calls]
                for layer, (calls, s) in rows]


class _Span:
    """Context manager for a root span (a whole job, or set-up)."""

    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, layer):
        self.tracer = tracer
        self.rec = [layer, 0.0, 0.0, -1]

    def __enter__(self):
        t = self.tracer
        self.rec[3] = t._stack[-1] if t._stack else -1
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[2] = perf_counter()
        self.tracer._stack.pop()
        return False
