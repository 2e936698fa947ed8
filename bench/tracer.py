"""Spans around dngeo's public functions, recorded from outside the package.

A function is wrapped in every namespace that holds it: its defining module,
each module that bound it by `from ... import`, and the class that owns it
for methods.  Patching only the defining module would miss calls made
through those other bindings (for example `poly_gcd` as called from
`symbolic.scalar`, or `solve_linear` as called from `dirac`).

Spans are aggregated per function as they close: a call count and self
time, which is the span's duration minus the time covered by its child
spans, so recursion and nested layers are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (span name, module, attribute path) of each individually traced function
SYMBOLIC = [
    ("symbolic.poly_mul", "dngeo.symbolic.poly", "Polynomial.__mul__"),
    ("symbolic.poly_gcd", "dngeo.symbolic.poly", "poly_gcd"),
    ("symbolic.divexact", "dngeo.symbolic.poly", "divexact"),
    ("symbolic.scalar_canon", "dngeo.symbolic.scalar", "ScalarExpr.__init__"),
    ("symbolic.parse_scalar", "dngeo.symbolic.parse", "parse_scalar"),
    ("symbolic.to_str", "dngeo.symbolic.scalar", "to_str"),
    ("linalg.generic_rank", "dngeo.symbolic.linalg", "generic_rank"),
    ("linalg.solve_linear", "dngeo.symbolic.linalg", "solve_linear"),
    ("linalg.kernel_basis", "dngeo.symbolic.linalg", "kernel_basis"),
    ("linalg.rank_at_samples", "dngeo.symbolic.linalg", "rank_at_samples"),
    ("scene.parse_scene", "dngeo.scene", "parse_scene"),
    ("scene.run_check", "dngeo.scene", "run_check"),
]
# layers whose every public module-level function is traced
LAYERS = ["tensor", "courant", "dirac", "holomorphic", "algebroid"]


class Stat:
    __slots__ = ("calls", "self_s", "hits", "peak_terms", "peak_degree")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0  # calls whose result has the property the span counts
        self.peak_terms = 0
        self.peak_degree = 0


def _observe_product(stat, p):
    if len(p.terms) > stat.peak_terms:
        stat.peak_terms = len(p.terms)
    if p.terms:
        degree = max(sum(e) for e in p.terms)
        if degree > stat.peak_degree:
            stat.peak_degree = degree


def _observe_gcd(stat, g):
    stat.hits += g.is_one()


def _observe_solve(stat, x):
    stat.hits += x is None


OBSERVERS = {
    "symbolic.poly_mul": _observe_product,
    "symbolic.poly_gcd": _observe_gcd,
    "linalg.solve_linear": _observe_solve,
}


def targets():
    """[(span name, owner, attribute)] for every traced function.

    Every layer module is imported here, so that functions a job would import
    lazily (such as `dngeo.algebroid` from `scene.run_check`) are patched too.
    """
    out = []
    for name, modname, path in SYMBOLIC:
        owner = importlib.import_module(modname)
        *cls, attr = path.split(".")
        for c in cls:
            owner = getattr(owner, c)
        out.append((name, owner, attr))
    for layer in LAYERS:
        mod = importlib.import_module(f"dngeo.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                out.append((f"{layer}.{attr}", mod, attr))
    return out


class Tracer:
    """Install with `install()`; spans are recorded only while `active`."""

    def __init__(self, extra_modules=()):
        self.active = False
        self.stats = {}
        self._stack = []
        self._patched = []
        self._extra = list(extra_modules)

    def install(self):
        found = targets()
        namespaces = [
            m for name, m in list(sys.modules.items()) if name == "dngeo" or name.startswith("dngeo.")
        ] + self._extra
        seen = set()
        for name, owner, attr in found:
            original = inspect.getattr_static(owner, attr)
            if id(original) in seen:  # an alias of a function already wrapped
                continue
            seen.add(id(original))
            stat = self.stats.setdefault(name, Stat())
            wrapper = self._wrap(original, stat, OBSERVERS.get(name))
            holders = [owner] + [ns for ns in namespaces if ns is not owner]
            for ns in holders:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def _wrap(self, fn, stat, observe):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(stat, result)
            return result

        return wrapper

    def group_self_s(self, prefix):
        return sum(s.self_s for name, s in self.stats.items() if name.startswith(prefix + "."))
