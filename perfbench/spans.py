"""Span tracing of the circpeaks modules, installed from outside.

``installed(tracer)`` replaces every public function of each library
module, in every module namespace that holds it (so names imported with
``from .x import f`` are caught too), the arithmetic methods of
``ExactPoly`` and ``PolySeries``, and each entry of the ``verify`` check
registry, by a wrapper that records one span per call: name, start, end
and parent.  Spans stay in flat arrays in memory until the run ends.
Nothing in the library is edited; leaving the ``with`` block restores
every original.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from array import array
from math import factorial
from pathlib import Path
from time import perf_counter

MODULES = ("exact_algebra", "perm_core", "peak_sets", "complex_poset",
           "chains_zeta", "hvector", "hilbert_algebras", "verify", "cli")
POLY_METHODS = {
    "ExactPoly": ("__add__", "__neg__", "__sub__", "__mul__", "scale", "eval",
                  "compose_linear", "divmod", "exact_div", "derivative"),
    "PolySeries": ("__add__", "__sub__", "__mul__", "divide",
                   "substitute_y_squared", "shift_y"),
}
# The permutation scans; perms_scanned adds n! for each call.
SCANS = ("perm_core.enumerate_cp_class", "perm_core.cp_class_table")
FORMULAS = ("chains_zeta.zeta", "chains_zeta.zeta_polynomial",
            "chains_zeta.chain_count_formula", "chains_zeta.f_polynomial_from_chains")
ORACLES = ("chains_zeta.multichain_oracle", "chains_zeta.chain_oracle")
ROOT = "cli.run"


class Tracer:
    """One span per wrapped call, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.perms_scanned = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def count_scans(self, fn):
        @functools.wraps(fn)
        def counted(n, *args, **kwargs):
            self.perms_scanned += factorial(n)
            return fn(n, *args, **kwargs)

        return counted

    def write(self, path: Path) -> None:
        """Spans as JSON: the name table and one [name, parent, start, end] row each."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "parent", "start_s", "end_s"],
                       "spans": [list(row) for row in
                                 zip(self.name_id, self.parent, self.start, self.end)]},
                      fh, separators=(",", ":"))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every library call through ``tracer`` inside the block."""
    import circpeaks

    mods = {m: importlib.import_module(f"circpeaks.{m}") for m in MODULES}
    undo = []

    def patch(owner, attr, new):
        undo.append(functools.partial(setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    wrapped = {}
    for m, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{m}.{attr}"
                wrapped[obj] = tracer.wrap(name, tracer.count_scans(obj) if name in SCANS else obj)
    for mod in (circpeaks, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                patch(mod, attr, wrapped[obj])
    for cls_name, methods in POLY_METHODS.items():
        cls = getattr(mods["exact_algebra"], cls_name)
        for meth in methods:
            patch(cls, meth, tracer.wrap(f"exact_algebra.{cls_name}.{meth}", cls.__dict__[meth]))
    for suite, checks in mods["verify"].SUITES.items():
        undo.append(functools.partial(checks.__setitem__, slice(None), list(checks)))
        checks[:] = [(name, tracer.wrap(f"verify.{suite}.{name}", fn)) for name, fn in checks]
    try:
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def check_names() -> list[str]:
    """``<suite>.<check>`` for every registered verify check."""
    verify = importlib.import_module("circpeaks.verify")
    return [f"{suite}.{name}" for suite, checks in verify.SUITES.items() for name, _ in checks]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of the spans recorded so far.

    A span's self time is its duration minus that of its direct children
    (calls are nested and single-threaded, so the children never overlap).
    A layer's self time sums the self time of its module's spans; the
    ``cli`` layer is what ``cli.run`` spends outside library calls.
    """
    names, nid, parent, start, end = (tracer.names, tracer.name_id, tracer.parent,
                                      tracer.start, tracer.end)
    count = len(start)
    dur = [end[i] - start[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]

    k_of = {name: k for k, name in enumerate(names)}
    layer = [name.split(".")[0] for name in names]
    is_formula = [name in FORMULAS for name in names]
    is_oracle = [name in ORACLES for name in names]
    # A name the library no longer has counts zero calls.
    root, fpoly = k_of[ROOT], k_of.get("complex_poset.f_polynomial", -1)

    self_s = dict.fromkeys(MODULES, 0.0)
    calls = [0] * len(names)
    inclusive = [0.0] * len(names)
    formula = oracle = 0.0
    # Outermost spans only: a formula called inside another is already counted.
    in_formula = bytearray(count)
    in_oracle = bytearray(count)
    builds: list[int] = []  # f_polynomial builds of each operation
    for i in range(count):
        k, p = nid[i], parent[i]
        self_s[layer[k]] += dur[i] - child[i]
        calls[k] += 1
        inclusive[k] += dur[i]
        up_formula = p >= 0 and in_formula[p]
        up_oracle = p >= 0 and in_oracle[p]
        if is_formula[k] and not up_formula:
            formula += dur[i]
        if is_oracle[k] and not up_oracle:
            oracle += dur[i]
        in_formula[i] = up_formula or is_formula[k]
        in_oracle[i] = up_oracle or is_oracle[k]
        if k == root:
            builds.append(0)
        elif k == fpoly:
            builds[-1] += 1

    def n_calls(*prefixes: str) -> int:
        return sum(c for name, c in zip(names, calls) if name.startswith(prefixes))

    building = [b for b in builds if b]
    out = {f"{m}.self_ms": s * 1e3 for m, s in self_s.items()}
    out.update({
        "exact_algebra.poly_ops": n_calls("exact_algebra.ExactPoly.",
                                          "exact_algebra.PolySeries."),
        "complex_poset.f_polynomial_builds_per_op":
            sum(building) / len(building) if building else 0.0,
        "hilbert_algebras.dim_calls": n_calls("hilbert_algebras.dim_a",
                                              "hilbert_algebras.dim_b"),
        "chains_zeta.formula_ms": formula * 1e3,
        "chains_zeta.oracle_ms": oracle * 1e3,
        "peak_sets.is_valid_calls": n_calls("peak_sets.is_valid"),
        "perm_core.perms_scanned": tracer.perms_scanned,
        "trace.spans": count,
    })
    for check in check_names():
        out[f"verify.{check}_ms"] = inclusive[k_of[f"verify.{check}"]] * 1e3
    return out
