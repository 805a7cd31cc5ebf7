"""Tracing from outside the program: spans around its public functions.

``Tracer.install`` replaces every public function of the traced modules, as
bound in each module that uses it (``cli.center_basis``,
``decompose.center_basis``, ``ratlinalg.rref``, ...), with a wrapper that
records a span (binding, layer, parent span, start, end).  The layer of a
span is the module that defines the function; the binding names the module
that called it.  A few observers read arguments and results for counters
that no timing shows (equation rows, center dimensions, coefficient sizes).
Spans and counters stay in memory and are exported once, at the end.

``layer_metrics`` turns the spans and counters of one problem into the
per-layer metrics; self time of a span is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("cli", "center", "idempotent", "decompose", "poly", "ratlinalg")

# Private helpers that delimit a stage no public function covers: writing
# the output document.
EXTRA = {"cli._emit"}

# Public helpers called once per matrix entry, term or row.  Wrapping them
# would cost more than the work they do and would say nothing about stages.
SKIP = {
    "poly.grlex_key",
    "poly.validate_variable_names",
    "ratlinalg.vec",
    "ratlinalg.unvec",
    "ratlinalg.signed_primitive_row",
}


def _bits(x) -> int:
    num = getattr(x, "numerator", x)
    den = getattr(x, "denominator", 1)
    return max(abs(num).bit_length(), den.bit_length())


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [binding, layer, parent index, start, end]
        self.counters: dict = {}
        self._stack = [-1]

    def count(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _wrap(self, binding: str, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        observe = OBSERVERS.get(binding)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [binding, layer, stack[-1], time.perf_counter(), None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for modname in MODULES:
            module = importlib.import_module(f"polydecomp.{modname}")
            for name, obj in list(vars(module).items()):
                binding = f"{modname}.{name}"
                if not inspect.isfunction(obj) or (name.startswith("_") and binding not in EXTRA):
                    continue
                home = obj.__module__.rsplit(".", 1)[-1]
                if home not in MODULES or f"{home}.{obj.__name__}" in SKIP:
                    continue
                setattr(module, name, self._wrap(binding, obj))

    def export(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def _center_result(t: Tracer, args, result) -> None:
    t.count("center.dim_sum", result.dim)


def _center_nullspace(t: Tracer, args, result) -> None:
    t.count("center.rows", args[0].rows)


def _rref(t: Tracer, args, result) -> None:
    t.count("ratlinalg.rref_cells", args[0].rows * args[0].cols)


def _minpoly(t: Tracer, args, result) -> None:
    t.maximum("ratlinalg.minpoly_bits_max", max(_bits(c) for c in result.coefficients()))
    t.maximum("idempotent.minpoly_degree_max", result.degree)


def _factors(t: Tracer, args, result) -> None:
    if len(result) >= 2:
        t.count("idempotent.split_draws", 1)


def _recursive(t: Tracer, args, result) -> None:
    t.count("decompose.leaves", sum(1 for _ in result.tree.leaves()))
    p = result.P
    t.maximum(
        "decompose.P_bits_max",
        max(_bits(p.entry(r, c)) for r in range(p.rows) for c in range(p.cols)),
    )


OBSERVERS = {
    "cli.center_basis": _center_result,
    "decompose.center_basis": _center_result,
    "center.nullspace_basis": _center_nullspace,
    "ratlinalg.rref": _rref,
    "idempotent.minimal_polynomial": _minpoly,
    "idempotent.primary_coprime_factors": _factors,
    "cli.decompose_recursive": _recursive,
}

# name: (unit, how it is derived).  "count:B" counts spans of binding B;
# "time:F" sums spans of function F (any binding, outermost only);
# "self:L" sums self time of layer L's spans; "counter:K" reads a counter.
PER_LAYER = {
    "cli.center_calls": ("count", "count:cli.center_basis"),
    "cli.parse_s": ("s", "time:read_problem,parse_polynomial"),
    "cli.render_s": ("s", "time:result_to_document,_emit"),
    "cli.self_s": ("s", "self:cli"),
    "center.calls": ("count", "count:cli.center_basis,decompose.center_basis"),
    "center.time_s": ("s", "time:center_basis"),
    "center.self_s": ("s", "self:center"),
    "center.rows": ("count", "counter:center.rows"),
    "center.dim_sum": ("count", "counter:center.dim_sum"),
    "ratlinalg.rref_calls": ("count", "count:ratlinalg.rref"),
    "ratlinalg.rref_s": ("s", "time:rref"),
    "ratlinalg.rref_cells": ("count", "counter:ratlinalg.rref_cells"),
    "ratlinalg.nullspace_s": ("s", "time:nullspace_basis"),
    "ratlinalg.minpoly_s": ("s", "time:minimal_polynomial"),
    "ratlinalg.factor_s": ("s", "time:primary_coprime_factors"),
    "ratlinalg.minpoly_bits_max": ("bits", "counter:ratlinalg.minpoly_bits_max"),
    "idempotent.find_s": ("s", "time:find_idempotents"),
    "idempotent.self_s": ("s", "self:idempotent"),
    "idempotent.draws": ("count", "count:idempotent.minimal_polynomial"),
    "idempotent.split_draws": ("count", "counter:idempotent.split_draws"),
    "idempotent.minpoly_degree_max": ("degree", "counter:idempotent.minpoly_degree_max"),
    "idempotent.verify_complete_s": ("s", "time:verify_complete"),
    "decompose.recursive_s": ("s", "time:decompose_recursive"),
    "decompose.nodes": ("count", "count:decompose.center_basis"),
    "decompose.leaves": ("count", "counter:decompose.leaves"),
    "decompose.separate_s": ("s", "time:separate"),
    "decompose.change_of_variables_s": ("s", "time:change_of_variables"),
    "decompose.verify_s": ("s", "time:verify_decomposition"),
    "decompose.P_bits_max": ("bits", "counter:decompose.P_bits_max"),
    "poly.substitute_linear_calls": ("count", "count:decompose.substitute_linear"),
    "poly.substitute_linear_s": ("s", "time:substitute_linear"),
    "poly.hessian_calls": ("count", "count:center.hessian,idempotent.hessian"),
}


def layer_metrics(trace: dict) -> dict:
    """Per-layer values of one traced problem, keyed as in PER_LAYER."""
    spans = trace["spans"]
    counters = trace["counters"]
    child_time = [0.0] * len(spans)
    for binding, layer, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def function(span) -> str:
        return span[0].split(".", 1)[1]

    def outermost(index: int, names: set) -> bool:
        parent = spans[index][2]
        while parent >= 0:
            if function(spans[parent]) in names:
                return False
            parent = spans[parent][2]
        return True

    out = {}
    for name, (_, rule) in PER_LAYER.items():
        kind, _, arg = rule.partition(":")
        keys = set(arg.split(","))
        if kind == "count":
            out[name] = sum(1 for s in spans if s[0] in keys)
        elif kind == "time":
            out[name] = sum(
                s[4] - s[3]
                for i, s in enumerate(spans)
                if function(s) in keys and outermost(i, keys)
            )
        elif kind == "self":
            out[name] = sum(
                s[4] - s[3] - child_time[i] for i, s in enumerate(spans) if s[1] in keys
            )
        else:
            out[name] = counters.get(arg, 0)
    return out
