"""Span tracing for the benchmark's traced run.

The tracer wraps hamsym's public functions at every name a module binds
them to (``hamsym.classifier.lie_derivative_form`` as well as
``hamsym.exterior.lie_derivative_form``), so calls made inside the program
are seen too, without a change to ``src/``.  A span is (name, start, end,
parent); self time is a span's duration minus that of its direct children,
which is exact because calls nest on one thread.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable, Dict, List

MODULES = ("symexpr", "exterior", "hamiltonian", "classifier", "verify", "systemio")

# Layer boundaries.  Finer helpers (differentiate, Expr arithmetic) are left
# out: they run millions of times and would mostly measure the tracer.
SPANS = (
    "systemio.parse_system_text",
    "hamiltonian.make_system",
    "hamiltonian.make_symplectic",
    "hamiltonian.poincare_potential",
    "hamiltonian.hamiltonian_field_for",
    "hamiltonian.is_bihamiltonian_pair",
    "exterior.lie_derivative_form",
    "exterior.lie_bracket",
    "exterior.interior_product",
    "exterior.exterior_derivative",
    "exterior.lie_scalar",
    "exterior.form_is_zero",
    "classifier.classify",
    "classifier.is_infinitesimal_symmetry",
    "classifier.detect_dependence",
    "symexpr.is_zero",
    "symexpr.is_constant",
    "symexpr.compile_numeric",
    "verify.integrate",
    "verify.check_conserved",
    "verify.check_symmetry_numeric",
)
EXTERIOR_OPS = ("lie_derivative_form", "lie_bracket", "interior_product",
                "exterior_derivative", "lie_scalar")
DEPENDENCE = ("dependent", "independent", "inconclusive")
ZERO_OUTCOMES = ("symbolic_zero", "numeric_zero", "nonzero", "rational_shortcut")
METHODS = ("rk4", "implicit_midpoint")

# Per-layer metrics of one pass over a workload, with their units.
PER_LAYER = (
    [("systemio.parse_system_text.s", "s"), ("hamiltonian.make_system.s", "s")]
    + [(f"exterior.{op}.{k}", u) for op in EXTERIOR_OPS
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("exterior.result_terms_max", "count")]
    + [("classifier.detect_dependence.calls", "count"), ("classifier.detect_dependence.s", "s")]
    + [(f"classifier.detect_dependence.{k}", "count") for k in DEPENDENCE]
    + [("classifier.detect_dependence.useful_ratio", "ratio"),
       ("classifier.classify.self_s", "s"), ("classifier.is_infinitesimal_symmetry.s", "s"),
       ("symexpr.is_zero.calls", "count"), ("symexpr.is_zero.s", "s")]
    + [(f"symexpr.is_zero.{k}", "count") for k in ZERO_OUTCOMES]
    + [("symexpr.probe_points", "count"), ("symexpr.compile.calls", "count"),
       ("symexpr.compile.misses", "count"), ("symexpr.compile.hit_ratio", "ratio"),
       ("symexpr.compile_numeric.s", "s"), ("hamiltonian.poincare_potential.calls", "count"),
       ("hamiltonian.poincare_potential.s", "s"),
       ("hamiltonian.poincare_potential.numeric_fallbacks", "count"),
       ("hamiltonian.hamiltonian_field_for.s", "s")]
    + [(f"verify.integrate.{m}.{k}", u) for m in METHODS
       for k, u in (("calls", "count"), ("steps", "count"), ("us_per_step", "us"))]
    + [("verify.check_conserved.calls", "count"), ("verify.check_conserved.samples", "count"),
       ("verify.check_conserved.s", "s"), ("verify.check_symmetry_numeric.s", "s"),
       ("trace.wall_norm_s", "s"), ("trace.untraced_wall_norm_s", "s"),
       ("trace.overhead_s", "s")]
)


def _terms(value) -> int:
    """Numerator terms of an Expr, or summed over a form's or field's entries."""
    if hasattr(value, "coeffs"):
        return sum(len(e.num) for e in value.coeffs.values())
    if hasattr(value, "components"):
        return sum(len(e.num) for e in value.components)
    return len(value.num)


def _observe_exterior(counts, args, kwargs, result, duration):
    key = "exterior.result_terms_max"
    counts[key] = max(counts[key], _terms(result))


def _observe_is_zero(counts, args, kwargs, result, duration):
    e = args[0]
    if e.is_zero_expr:
        outcome = "symbolic_zero"
    elif e.is_rational:
        outcome = "rational_shortcut"
    else:
        outcome = "numeric_zero" if result.is_zero else "nonzero"
    counts[f"symexpr.is_zero.{outcome}"] += 1


def _observe_dependence(counts, args, kwargs, result, duration):
    counts[f"classifier.detect_dependence.{result.status}"] += 1


def _observe_potential(counts, args, kwargs, result, duration):
    if type(result).__name__ == "NumericPotential":
        counts["hamiltonian.poincare_potential.numeric_fallbacks"] += 1


def _observe_integrate(counts, args, kwargs, result, duration):
    prefix = f"verify.integrate.{result.method}"
    counts[prefix + ".calls"] += 1
    counts[prefix + ".steps"] += len(result.times) - 1
    counts[prefix + ".s"] += duration


def _observe_conserved(counts, args, kwargs, result, duration):
    counts["verify.check_conserved.samples"] += result.samples


OBSERVERS: Dict[str, Callable] = dict(
    [(f"exterior.{op}", _observe_exterior) for op in EXTERIOR_OPS] + [
        ("symexpr.is_zero", _observe_is_zero),
        ("classifier.detect_dependence", _observe_dependence),
        ("hamiltonian.poincare_potential", _observe_potential),
        ("verify.integrate", _observe_integrate),
        ("verify.check_conserved", _observe_conserved),
    ])


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._restore: List[tuple] = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, clock(), 0.0, parent]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._open.pop()
            if observe is not None:
                observe(self.counts, args, kwargs, result, span[2] - span[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {m: importlib.import_module(f"hamsym.{m}") for m in MODULES}
        for name in SPANS:
            home, attr = name.split(".")
            original = getattr(modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        space = modules["symexpr"].PhaseSpace
        self._patch(space, "compile", self._wrap("symexpr.compile", space.compile))
        points = modules["symexpr"].ProbeConfig.points

        def counted_points(config, space):
            for point in points(config, space):
                self.counts["symexpr.probe_points"] += 1
                yield point
        self._patch(modules["symexpr"].ProbeConfig, "points", counted_points)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def aggregate(self):
        """calls, inclusive and self seconds per span name, and per call path."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: Dict[str, List[float]] = {}
        by_path: Dict[tuple, List[float]] = {}
        paths: List[tuple] = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            path = (paths[parent] if parent >= 0 else ()) + (name,)
            paths.append(path)
            for table, key in ((by_name, name), (by_path, path)):
                row = table.setdefault(key, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - child[i]
        return by_name, by_path

    def pass_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the pass traced since the last reset()."""
        by_name, _ = self.aggregate()
        c = self.counts

        def calls(n): return by_name.get(n, (0, 0.0, 0.0))[0]
        def total(n): return by_name.get(n, (0, 0.0, 0.0))[1]
        def own(n): return by_name.get(n, (0, 0.0, 0.0))[2]
        def ratio(a, b): return a / b if b else 0.0

        out = {"systemio.parse_system_text.s": total("systemio.parse_system_text"),
               "hamiltonian.make_system.s": total("hamiltonian.make_system")}
        for op in EXTERIOR_OPS:
            out[f"exterior.{op}.calls"] = calls(f"exterior.{op}")
            out[f"exterior.{op}.self_s"] = own(f"exterior.{op}")
        out["exterior.result_terms_max"] = c["exterior.result_terms_max"]
        dd = "classifier.detect_dependence"
        out[dd + ".calls"] = calls(dd)
        out[dd + ".s"] = total(dd)
        for k in DEPENDENCE:
            out[f"{dd}.{k}"] = c[f"{dd}.{k}"]
        out[dd + ".useful_ratio"] = ratio(c[dd + ".dependent"], calls(dd))
        out["classifier.classify.self_s"] = own("classifier.classify")
        iis = "classifier.is_infinitesimal_symmetry"
        out[iis + ".s"] = total(iis)
        out["symexpr.is_zero.calls"] = calls("symexpr.is_zero")
        out["symexpr.is_zero.s"] = total("symexpr.is_zero")
        for k in ZERO_OUTCOMES:
            out[f"symexpr.is_zero.{k}"] = c[f"symexpr.is_zero.{k}"]
        out["symexpr.probe_points"] = c["symexpr.probe_points"]
        compiles, misses = calls("symexpr.compile"), calls("symexpr.compile_numeric")
        out["symexpr.compile.calls"] = compiles
        out["symexpr.compile.misses"] = misses
        out["symexpr.compile.hit_ratio"] = ratio(compiles - misses, compiles)
        out["symexpr.compile_numeric.s"] = total("symexpr.compile_numeric")
        pp = "hamiltonian.poincare_potential"
        out[pp + ".calls"] = calls(pp)
        out[pp + ".s"] = total(pp)
        out[pp + ".numeric_fallbacks"] = c[pp + ".numeric_fallbacks"]
        out["hamiltonian.hamiltonian_field_for.s"] = total("hamiltonian.hamiltonian_field_for")
        for m in METHODS:
            prefix = f"verify.integrate.{m}"
            out[prefix + ".calls"] = c[prefix + ".calls"]
            out[prefix + ".steps"] = c[prefix + ".steps"]
            out[prefix + ".us_per_step"] = ratio(c[prefix + ".s"] * 1e6, c[prefix + ".steps"])
        out["verify.check_conserved.calls"] = calls("verify.check_conserved")
        out["verify.check_conserved.samples"] = c["verify.check_conserved.samples"]
        out["verify.check_conserved.s"] = total("verify.check_conserved")
        out["verify.check_symmetry_numeric.s"] = total("verify.check_symmetry_numeric")
        return out


def format_tree(by_path: Dict[tuple, List[float]], min_share: float = 0.005) -> List[str]:
    """Nested spans of one pass, each with calls, inclusive and self time."""
    wall = sum(row[1] for path, row in by_path.items() if len(path) == 1) or 1.0
    lines = [f"{'calls':>8} {'total_s':>10} {'self_s':>10}  span"]
    for path in sorted(by_path):
        n, total, own = by_path[path]
        if total >= min_share * wall:
            lines.append(f"{n:>8} {total:>10.4f} {own:>10.4f}  {'  ' * (len(path) - 1)}{path[-1]}")
    return lines
