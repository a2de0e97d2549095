"""Span tracer that wraps the leibniz_geo modules from the outside.

Spans (name, start, end, parent) are kept in flat in-memory arrays while a
traced pass runs and are reduced to per-layer metrics when it ends.  The
program itself is not modified: ``install`` replaces each function and method
in every namespace that holds it, and ``uninstall`` puts the originals back.

A span is named ``<layer>.<function>``; the layer is the module that defines
the function.  Self time is a span's duration minus the durations of its
direct children, so the self times of all spans add up to the time covered
by root spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

import numpy as np

LAYERS = (
    "scalar",
    "tensor",
    "linalg",
    "algebroid",
    "connection",
    "statgeo",
    "hessian",
    "checks",
    "model",
    "expr",
    "cli",
)

# Arithmetic that makes a new scalar or tensor.  Cheap scalar predicates
# (is_zero, is_constant, ==, hash) are left unwrapped: they run millions of
# times and their time stays with the caller.
ARITHMETIC = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
)
UNARY = {"__neg__", "__pow__"}
SCALAR_SKIP = {"is_zero", "is_constant"}
EXTRA_METHODS = {("tensor", "EMetric", "__init__"), ("scalar", "ScalarField", "_normal_form")}

PER_LAYER = (
    ("scalar.ops", "count"),
    ("scalar.ops_zero_operand", "count"),
    ("scalar.ops_const_operands", "count"),
    ("scalar.normal_forms", "count"),
    ("scalar.diff_calls", "count"),
    ("scalar.self_s", "s"),
    ("connection.calls", "count"),
    ("connection.self_s", "s"),
    ("connection.curvature.calls", "count"),
    ("connection.torsion.calls", "count"),
    ("connection.modified_bracket_coeffs.calls", "count"),
    ("statgeo.calls", "count"),
    ("statgeo.self_s", "s"),
    ("statgeo.conjugate_connection.calls", "count"),
    ("hessian.calls", "count"),
    ("hessian.self_s", "s"),
    ("algebroid.locality_hat.calls", "count"),
    ("algebroid.admissibility_residual.calls", "count"),
    ("algebroid.self_s", "s"),
    ("tensor.metric_inversions", "count"),
    ("tensor.self_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.unknowns", "count"),
    ("linalg.solve.max_unknowns", "count"),
    ("linalg.solve.nonzero_entries", "count"),
    ("linalg.self_s", "s"),
    ("checks.records", "count"),
    ("checks.self_s", "s"),
    ("model.load_model_s", "s"),
    ("expr.parse_expr.calls", "count"),
    ("expr.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("cli.emit_report_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)

# One id per distinct checks.REGISTRY runner: the key named after the
# function (check_lp2 serves both "lp2" and "lc3").
CHECK_IDS = (
    "eb12", "eb14", "SSe8", "SSe25", "SSp1", "SSp2", "SSp3", "SSp4", "SSp5",
    "SSp6", "SSp7", "SSp8", "SSp9", "SSp10", "SSp11", "SS29",
    "lp1", "lp2", "lp3", "lc1", "lc2", "lc4",
)  # fmt: skip
PER_LAYER_NAMES = tuple(name for name, _ in PER_LAYER) + tuple(
    f"checks.{cid}_s" for cid in CHECK_IDS
)


def per_layer_units():
    units = dict(PER_LAYER)
    units.update({f"checks.{cid}_s": "s" for cid in CHECK_IDS})
    return units


class Tracer:
    """Flat, append-only span store plus plain counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = []
        self.counts = Counter()
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(self.clock())
        return index

    def add(self, name, start, end):
        """Record a finished root-level span measured by the caller."""
        self.close(self.open(name))
        self.start[-1], self.end[-1] = start, end

    def close(self, index):
        self.end[index] = self.clock()
        self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, result)
            return result

        return traced

    # -- reduction ------------------------------------------------------------

    def summary(self):
        """Per span name: [calls, inclusive seconds, self seconds]; plus root time."""
        n = len(self.start)
        if n == 0:
            return {}, 0.0
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        duration = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=duration, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        table = {
            self.names[i]: [int(calls[i]), float(total[i]), float(self_s[i])]
            for i in range(k)
            if calls[i]
        }
        root_s = float(duration[~has_parent].sum())
        return table, root_s

    # -- installation ---------------------------------------------------------

    def install(self, package):
        """Wrap every function and method of the layer modules of ``package``."""
        prefix = package.__name__
        modules = {
            layer: sys.modules[f"{prefix}.{layer}"]
            for layer in LAYERS
            if f"{prefix}.{layer}" in sys.modules
        }
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[value] = self._wrap_function(layer, attr, value)
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    self._wrap_class(layer, value)
        namespaces = [
            vars(module)
            for name, module in list(sys.modules.items())
            if name == prefix or name.startswith(prefix + ".")
        ]
        if "checks" in modules:
            namespaces.append(modules["checks"].REGISTRY)
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    namespace[key] = wrappers[value]
                    self._undo.append((namespace, key, value))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def _wrap_function(self, layer, attr, fn):
        before = after = None
        if layer == "linalg" and attr == "solve":
            before = _count_solve
        elif layer == "checks" and attr.startswith("check_"):
            after = _count_records
        return self.wrap(f"{layer}.{attr}", fn, before, after)

    def _wrap_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_")
            wanted = public or attr in ARITHMETIC or (layer, cls.__name__, attr) in EXTRA_METHODS
            if not wanted or (layer == "scalar" and attr in SCALAR_SKIP):
                continue
            name = f"{layer}.{cls.__name__}" if attr == "__init__" else f"{layer}.{attr}"
            before = None
            if layer == "scalar" and attr in ARITHMETIC:
                before = _classify_unary if attr in UNARY else _classify_binary
            if isinstance(value, property):
                if value.fget is None:
                    continue
                new = property(self.wrap(name, value.fget), value.fset, value.fdel, value.__doc__)
            elif isinstance(value, classmethod):
                new = classmethod(self.wrap(name, value.__func__))
            elif isinstance(value, staticmethod):
                new = staticmethod(self.wrap(name, value.__func__))
            elif inspect.isfunction(value):
                new = self.wrap(name, value, before)
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, value))


def _is_zero(value):
    if isinstance(value, (int, Fraction)):
        return value == 0
    return value.is_zero


def _is_constant(value):
    if isinstance(value, (int, Fraction)):
        return True
    return value.is_constant


def _classify(tracer, operands):
    """Operand classes: any zero operand, else all constant operands, else general."""
    if any(_is_zero(value) for value in operands):
        tracer.counts["scalar.ops_zero_operand"] += 1
    elif all(_is_constant(value) for value in operands):
        tracer.counts["scalar.ops_const_operands"] += 1


def _classify_unary(tracer, args):
    _classify(tracer, args[:1])


def _classify_binary(tracer, args):
    _classify(tracer, args[:2])


def _count_solve(tracer, args):
    matrix = args[0]
    n_cols = len(matrix[0]) if len(matrix) else 0
    tracer.counts["linalg.solve.unknowns"] += n_cols
    tracer.counts["linalg.solve.max_unknowns"] = max(
        tracer.counts["linalg.solve.max_unknowns"], n_cols
    )
    tracer.counts["linalg.solve.nonzero_entries"] += sum(
        0 if entry.is_zero else 1 for row in matrix for entry in row
    )


def _count_records(tracer, result):
    tracer.counts["checks.records"] += len(result)


def merge(into, table):
    """Add a summary table into an accumulating one."""
    for name, (calls, total, own) in table.items():
        row = into.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += own
    return into


def layer_metrics(table, counts):
    """Reduce a summary table and counters to the per-layer metric values."""

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def layer_rows(layer):
        return [row for name, row in table.items() if name.split(".", 1)[0] == layer]

    out = {
        "scalar.ops": sum(calls(f"scalar.{op}") for op in ARITHMETIC),
        "scalar.ops_zero_operand": counts.get("scalar.ops_zero_operand", 0),
        "scalar.ops_const_operands": counts.get("scalar.ops_const_operands", 0),
        "scalar.normal_forms": calls("scalar._normal_form"),
        "scalar.diff_calls": calls("scalar.diff"),
        "connection.curvature.calls": calls("connection.curvature"),
        "connection.torsion.calls": calls("connection.torsion"),
        "connection.modified_bracket_coeffs.calls": calls("connection.modified_bracket_coeffs"),
        "statgeo.conjugate_connection.calls": calls("statgeo.conjugate_connection"),
        "algebroid.locality_hat.calls": calls("algebroid.locality_hat"),
        "algebroid.admissibility_residual.calls": calls("algebroid.admissibility_residual"),
        "tensor.metric_inversions": calls("tensor.EMetric"),
        "linalg.solve.calls": calls("linalg.solve"),
        "linalg.solve.unknowns": counts.get("linalg.solve.unknowns", 0),
        "linalg.solve.max_unknowns": counts.get("linalg.solve.max_unknowns", 0),
        "linalg.solve.nonzero_entries": counts.get("linalg.solve.nonzero_entries", 0),
        "checks.records": counts.get("checks.records", 0),
        "model.load_model_s": total("model.load_model"),
        "expr.parse_expr.calls": calls("expr.parse_expr"),
        "cli.import_s": total("cli.import"),
        "cli.main_s": total("cli.main"),
        "cli.emit_report_s": total("cli.emit_report"),
    }
    for layer in ("connection", "statgeo", "hessian"):
        out[f"{layer}.calls"] = sum(row[0] for row in layer_rows(layer))
    for layer in ("scalar", "connection", "statgeo", "hessian", "algebroid", "tensor",
                  "linalg", "checks", "expr"):
        out[f"{layer}.self_s"] = sum(row[2] for row in layer_rows(layer))
    for cid in CHECK_IDS:
        out[f"checks.{cid}_s"] = total(f"checks.check_{cid.lower()}")
    out["trace.spans"] = sum(row[0] for row in table.values())
    return out
