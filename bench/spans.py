"""Span tracer for the benchmark's traced run.

A layer is one ``aalg`` module.  ``LAYERS`` names, per layer, the functions
whose calls are timed.  ``Tracer.install`` wraps each of them and rebinds
the wrapper everywhere the original is reachable inside ``aalg``: module
globals (including copies made by ``from .x import f``), module-level
dicts that hold the function, and class attributes for methods.

Every call of a wrapped function opens a span (name, start, end, parent,
item id).  Spans live in flat arrays while the pass runs and are written
once, by ``Tracer.write``, when the benchmark ends.  A span's self time is
its duration minus the durations of its child spans.

``Fraction`` arithmetic is counted by hooks on ``Fraction``'s operator
methods, installed in the benchmark process only for the traced pass, and
charged to the innermost open span, so ``<layer>.fraction_ops`` is the
number of exact operations executed in that layer's own code.  Counts
depend only on the inputs and repeat exactly from run to run.  (A
``sys.setprofile`` hook counts the same operations but fires on every call
and return in the process; it made the traced sweep pass four times slower
than the untraced one, against a few per cent for the operator hooks.)
"""

from __future__ import annotations

import fractions
import functools
import importlib
import json
import pkgutil
import time
from array import array

LAYERS = {
    "hermitian": ("nijenhuis", "levi_civita", "HermitianStructure._compute_bismut",
                  "HermitianStructure._compute_rho", "riemann_is_flat",
                  "HermitianStructure.is_kahler_direct",
                  "HermitianStructure.is_lck_direct",
                  "HermitianStructure.is_balanced_direct",
                  "HermitianStructure.is_skt_direct",
                  "HermitianStructure.is_lcb_direct",
                  "HermitianStructure.is_vaisman"),
    "forms": ("wedge", "wedge_power", "exterior_derivative", "pullback"),
    "linalg": ("rref", "solve", "inverse", "nullspace", "charpoly", "minpoly",
               "rational_roots", "mat_mul"),
    "lie": ("LieAlgebra._check_jacobi", "find_codim1_abelian_ideal",
            "LieAlgebra.derived_algebra", "LieAlgebra.change_basis"),
    "almost_abelian": ("build_algebra", "extract_data", "is_kahler_data",
                       "is_lck_data", "is_balanced_data", "is_skt_data",
                       "is_lcb_data", "rho_b_closed", "lee_form_closed",
                       "skt_to_lcb"),
    "lchk": ("lchk_admissible", "canonical_form", "construct_lchk",
             "verify_triple", "hyperkahler_flatness"),
    "lattice": ("integrality_probe", "matrix_exp", "char_min_poly"),
    "documents": ("parse", "render", "to_algebra"),
    "catalog": ("instantiate", "witness_structures", "verify_entry"),
    "cli": ("cmd_check", "cmd_data", "cmd_rho_b", "cmd_lchk", "cmd_catalog",
            "cmd_skt_to_lcb"),
}

# Layers whose per-function call counts are fixed by the item list itself
# (one command, one parse per item); only their self times are reported.
SELF_TIME_ONLY = ("documents", "cli")

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
                "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
                "__abs__")


def aalg_modules():
    import aalg

    return [importlib.import_module(f"aalg.{info.name}")
            for info in pkgutil.iter_modules(aalg.__path__)]


def rebind(original, replacement, modules):
    """Replace ``original`` by ``replacement`` in every module global and
    module-level dict of ``modules``; returns the undo list for restore()."""
    undo = []
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is original:
                undo.append((mod, key, original, False))
                setattr(mod, key, replacement)
            elif isinstance(val, dict) and not key.startswith("__"):
                for dkey, dval in list(val.items()):
                    if dval is original:
                        undo.append((val, dkey, original, True))
                        val[dkey] = replacement
    return undo


def restore(undo):
    for owner, attr, original, is_dict in reversed(undo):
        if is_dict:
            owner[attr] = original
        else:
            setattr(owner, attr, original)


def short_name(qualname):
    return qualname.rsplit(".", 1)[-1]


def metric_names():
    """Per-layer metric names (and units) in report order."""
    out = []
    for layer, funcs in LAYERS.items():
        for qual in funcs:
            fn = short_name(qual)
            if layer not in SELF_TIME_ONLY:
                out.append((f"{layer}.{fn}.calls", "count"))
            out.append((f"{layer}.{fn}.self_s", "s"))
        out.append((f"{layer}.self_s", "s"))
        out.append((f"{layer}.fraction_ops", "count"))
    out.append(("hermitian.nijenhuis.per_structure", "calls/structure"))
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Wraps the LAYERS functions; one instance per traced pass."""

    def __init__(self):
        self.names = []                 # span name table: "layer.function"
        self.name_id = array("l")       # per span
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.ops = array("q")           # Fraction ops charged to the span
        self.untraced_ops = 0           # ops outside every span
        self.structures = 0             # HermitianStructure instances built
        self.current_item = -1
        self._stack = []
        self._undo = []

    # -- installation -----------------------------------------------------------
    def install(self):
        modules = aalg_modules()
        for layer, funcs in LAYERS.items():
            home = importlib.import_module(f"aalg.{layer}")
            for qual in funcs:
                self._wrap(layer, home, qual, modules)
        from aalg.hermitian import HermitianStructure
        init = HermitianStructure.__init__

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            self.structures += 1
            return init(obj, *args, **kwargs)

        self._set(HermitianStructure, "__init__", init, counting_init)
        for name in FRACTION_OPS:
            op = vars(fractions.Fraction).get(name)
            if op is not None:
                self._set(fractions.Fraction, name, op, self._counting(op))

    def uninstall(self):
        restore(self._undo)
        self._undo.clear()

    def _set(self, owner, attr, original, replacement):
        self._undo.append((owner, attr, original, False))
        setattr(owner, attr, replacement)

    def _wrap(self, layer, home, qual, modules):
        label = f"{layer}.{short_name(qual)}"
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, original, self._span(label, original))
            return
        original = getattr(home, qual)
        self._undo += rebind(original, self._span(label, original), modules)

    def _span(self, label, fn):
        nid = len(self.names)
        self.names.append(label)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.current_item)
            self.ops.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def _counting(self, op):
        ops = self.ops
        stack = self._stack

        def counted(*args):
            if stack:
                ops[stack[-1]] += 1
            else:
                self.untraced_ops += 1
            return op(*args)

        return counted

    # -- results ----------------------------------------------------------------
    def summary(self):
        """Per-function calls/self time/ops and per-layer totals."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        per = {label: {"calls": 0, "self_s": 0.0, "fraction_ops": 0}
               for label in self.names}
        for i in range(n):
            rec = per[self.names[self.name_id[i]]]
            rec["calls"] += 1
            rec["self_s"] += self.end[i] - self.start[i] - child[i]
            rec["fraction_ops"] += self.ops[i]
        layers = {}
        for label, rec in per.items():
            tot = layers.setdefault(label.split(".")[0], {"self_s": 0.0, "fraction_ops": 0})
            tot["self_s"] += rec["self_s"]
            tot["fraction_ops"] += rec["fraction_ops"]
        return per, layers

    def write(self, path):
        """All spans as JSON columns (name table plus one list per field)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "fields": ["name", "start", "end", "parent", "item", "fraction_ops"],
                "name": list(self.name_id), "start": list(self.start),
                "end": list(self.end), "parent": list(self.parent),
                "item": list(self.item), "fraction_ops": list(self.ops),
                "untraced_fraction_ops": self.untraced_ops,
            }, fh, separators=(",", ":"))
