"""Benchmark inputs, drawn from the workload seed.

The seed only chooses candidates (and initial states on verify-long); the
probe seed stays at the CLI default, so labels stay comparable between
commits.  Every call gets an expectation built from the tables and numpy
evaluations in ``reference``, never from hamsym's own answer.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import reference as ref
from hamsym import classifier, hamiltonian, systemio

CLASSIFY_DEEP = "classify-deep"
CLASSIFY_MANY = "classify-many"
VERIFY_LONG = "verify-long"
WORKLOADS = (CLASSIFY_DEEP, CLASSIFY_MANY, VERIFY_LONG)

NOT_A_SYMMETRY = "NotASymmetry"
ANY_SYMMETRY = "any label but NotASymmetry"


@dataclass(frozen=True)
class Sizes:
    random_per_system: int
    planted_per_system: int
    rk4_steps: int
    midpoint_steps: int


FULL = Sizes(random_per_system=50, planted_per_system=25, rk4_steps=10000, midpoint_steps=4000)
SMOKE = Sizes(random_per_system=2, planted_per_system=1, rk4_steps=400, midpoint_steps=200)
RK4_DT = 1e-3
# implicit midpoint is second order; this step keeps the pendulum's energy
# error under the 1e-6 drift bound
MIDPOINT_DT = 2.5e-4
DRIFT_BOUND = 1e-6


@dataclass(frozen=True)
class Expect:
    check: str  # name of the reference check, counted per name
    kind: str  # expected label kind, or ANY_SYMMETRY
    constant: Optional[str] = None
    quantity: Optional[Callable[[Dict[str, float]], float]] = None
    closed_form: bool = False  # the quantity is polynomial: no numeric potential


@dataclass
class ClassifyInputs:
    files: List[Tuple[str, str]]  # (system key, system file with candidate lines)
    expect: Dict[Tuple[str, str], Expect]
    points: Dict[str, List[Dict[str, float]]]  # probe values for quantity checks

    def texts(self):
        return [text for _, text in self.files]

    def fingerprint(self):
        return self.texts()


@dataclass
class VerifyRun:
    system: str
    text: str  # with candidate lines S (a symmetry) and N (a non-symmetry)
    x0: Tuple[float, ...]
    final: Dict[str, List[float]] = field(default_factory=dict)  # method -> reference end state


@dataclass
class VerifyInputs:
    runs: List[VerifyRun]
    rk4_steps: int
    midpoint_steps: int

    def texts(self):
        return [r.text for r in self.runs]

    def fingerprint(self):
        return [(r.text, r.x0) for r in self.runs]


def parse_expression(system_text: str, text: str):
    """An expression in a system's grammar, read through the public file
    parser (as the system's Hamiltonian), so no other module is called."""
    lines = [f"hamiltonian: {text}" if line.startswith("hamiltonian:") else line
             for line in system_text.splitlines()]
    return systemio.parse_system_text("\n".join(lines)).hamiltonian


def build_system(text: str, config: classifier.ClassifyConfig):
    sf = systemio.parse_system_text(text)
    return sf, hamiltonian.make_system(sf.space, sf.symplectic, sf.hamiltonian, config.probes)


def check_report(report, expect: Expect, points) -> Optional[str]:
    """None when the report agrees with its reference, else what differs."""
    label = report.label
    if expect.kind == ANY_SYMMETRY:
        if label.kind == NOT_A_SYMMETRY:
            return "numpy finds [Y, X_h] = 0 but the label is NotASymmetry"
    elif label.kind != expect.kind:
        return f"label {label.describe()}, expected {expect.kind}"
    if expect.constant is not None and label.constant != expect.constant:
        return f"label {label.describe()}, expected C = {expect.constant}"
    if expect.quantity is not None:
        if not report.conserved:
            return "no conserved quantity"
        q = report.conserved[0]
        if q.is_symbolic:
            def value(p):
                return ref.eval_text(q.printable, p)
        elif expect.closed_form:
            return f"quantity is {q.printable}, expected a closed form"
        else:
            def value(p):
                return q.expr.evaluate([p[c] for c in q.expr.space.coords])
        return ref.proportional(value, q.printable, expect.quantity, points)
    return None


def _rational(rng: random.Random, top: int = 5) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, top)) * rng.choice((1, -1))


def _scaled(components: str, c: Fraction) -> str:
    return " | ".join(f"({c})*({p.strip()})" for p in components.split("|"))


def _box_points(rng: random.Random, system: ref.SystemRef, count: int) -> np.ndarray:
    return np.array([[rng.uniform(lo, hi) for _ in range(count)] for lo, hi in system.boxes])


def _values(system: ref.SystemRef, x) -> Dict[str, float]:
    return dict(system.params, **dict(zip(system.coords, x)))


def _random_field(rng: random.Random, system: ref.SystemRef):
    """Low-degree polynomial components with small rational coefficients."""
    dim = len(system.coords)
    while True:
        field_ = []
        for _ in range(dim):
            terms = []
            if rng.random() < 0.5:
                for _ in range(rng.randint(1, 2)):
                    exps = [0] * dim
                    for _ in range(rng.randint(0, 2)):
                        exps[rng.randrange(dim)] += 1
                    terms.append((_rational(rng, 3), tuple(exps)))
            field_.append(terms)
        if any(field_):
            return field_


def _classify_deep(rng: random.Random) -> ClassifyInputs:
    iso, iso3 = ref.ISO, ref.ISO3
    z = dict((n, c) for n, c, _ in ref.BUNDLED_CANDIDATES["iso"])["Z"]
    # Z3 = L23 * X_(h1 - h2) at Omega = 1: a conserved function times a
    # symmetry, so it commutes with the dynamics, and its tower grows like Z's.
    l23 = "(q2*p3 - q3*p2)"
    z3 = f"{l23}*p1 | -{l23}*p2 | 0 | -{l23}*q1 | {l23}*q2 | 0"
    # Z3 only changes sign: other factors grow its tower's coefficients and
    # with them its cost, which would make the seed move wall time.  C and Ty
    # are cheap; their wide range of factors makes every seed's input new.
    c_scale, z3_scale, ty_scale = _rational(rng, 99), rng.choice((1, -1)), _rational(rng, 99)
    files = [
        ("iso", iso.text + f"\nsymmetry: Z = {z}\n"),
        ("iso3", iso3.text + f"\nsymmetry: C = {_scaled(iso3.symmetry, c_scale)}"
                             f"\nsymmetry: Z3 = {_scaled(z3, z3_scale)}\n"),
        ("magnetic", ref.MAGNETIC_TEXT
                     + f"\nsymmetry: Ty = {_scaled('0 | 1 | 0 | 0', ty_scale)}\n"),
    ]
    expect = {
        ("iso", "Z"): Expect("bundled-label", "Inconclusive"),
        ("iso3", "C"): Expect("deep-label", "ConstantCoefficientsC0Nonzero"),
        ("iso3", "Z3"): Expect("deep-label", "Inconclusive"),
        ("magnetic", "Ty"): Expect("noether-quantity", "Noether", quantity=ref.magnetic_noether,
                                     closed_form=True),
    }
    points = {"magnetic": [dict(B=ref.MAGNETIC_B,
                                **{c: rng.uniform(-1, 1) for c in ref.MAGNETIC_COORDS})
                           for _ in range(6)]}
    return ClassifyInputs(files, expect, points)


def _classify_many(rng: random.Random, sizes: Sizes, config) -> ClassifyInputs:
    files, expect, points = [], {}, {}
    for key, system in ref.SYSTEMS.items():
        lines = [system.text]
        _, base = build_system(system.text, config)
        pts = _box_points(rng, system, 16)
        points[key] = [_values(system, p) for p in pts.T]
        for name, comps, kind in ref.BUNDLED_CANDIDATES.get(key, []):
            if name == "Z":
                continue  # Z belongs to classify-deep
            c = _rational(rng, 3)
            lines.append(f"symmetry: {name} = {comps}")
            lines.append(f"symmetry: {name}_s = {_scaled(comps, c)}")
            expect[(key, name)] = Expect("bundled-label", kind,
                                         ref.omega_eigen_constant(Fraction(1))
                                         if kind == ref.OMEGA_EIGEN else None)
            expect[(key, f"{name}_s")] = Expect("scaled-label", kind,
                                                ref.omega_eigen_constant(c)
                                                if kind == ref.OMEGA_EIGEN else None)
        # Every subset of up to three invariants in turn, so each seed plants
        # the same mix (fields of h on the pendulum cost far more than those
        # of p_phi) and the seed only draws the coefficients.
        subsets = [s for k in (1, 2, 3) for s in itertools.combinations(system.invariants, k)]
        for i in range(sizes.planted_per_system):
            chosen = subsets[i % len(subsets)]
            while True:
                coefs = [_rational(rng) for _ in chosen]
                f = sum(float(c) * inv.value(pts, np) for c, inv in zip(coefs, chosen))
                if np.ptp(f) > 1e-6:
                    break  # h - h1 - h2 vanishes: its field is zero
            f_text = " + ".join(f"({c})*({inv.text})" for c, inv in zip(coefs, chosen))
            y = hamiltonian.hamiltonian_field_for(base, parse_expression(system.text, f_text),
                                                  config.probes)
            name = f"planted{i}"
            lines.append(f"symmetry: {name} = " + " | ".join(str(c) for c in y.components))

            def f_value(values, system=system, chosen=chosen, coefs=coefs):
                x = [values[c] for c in system.coords]
                return sum(float(c) * inv.value(x, math) for c, inv in zip(coefs, chosen))
            expect[(key, name)] = Expect("planted-noether", "Noether", quantity=f_value)
        for i in range(sizes.random_per_system):
            while True:
                field_ = _random_field(rng, system)
                residual = ref.commutator_max(field_, system, _box_points(rng, system, 16))
                if residual > 1e-4 or residual < 1e-8:
                    break  # otherwise too close to call in floating point; redraw
            name = f"random{i}"
            lines.append(f"symmetry: {name} = "
                         + " | ".join(ref.poly_text(c, system.coords) for c in field_))
            expect[(key, name)] = Expect("random-commutator",
                                         NOT_A_SYMMETRY if residual > 1e-4 else ANY_SYMMETRY)
        files.append((key, "\n".join(lines) + "\n"))
    return ClassifyInputs(files, expect, points)


_VERIFY_X0 = {
    "pendulum": (0.3, 0.0, 0.0, 0.5),
    "aniso": (1.0, 0.5, -0.3, 0.8),
    "iso": (1.0, 0.5, -0.3, 0.8),
    "iso3": (1.0, 0.5, -0.4, -0.3, 0.8, 0.2),
}


def _verify_long(rng: random.Random, sizes: Sizes) -> VerifyInputs:
    runs = []
    for key, system in ref.SYSTEMS.items():
        x0 = tuple(v + rng.uniform(-0.1, 0.1) for v in _VERIFY_X0[key])
        text = (system.text + f"\nsymmetry: S = {system.symmetry}"
                f"\nsymmetry: N = {system.non_symmetry}\n")
        runs.append(VerifyRun(key, text, x0))
    return VerifyInputs(runs, sizes.rk4_steps, sizes.midpoint_steps)


def generate(workload: str, seed: int, sizes: Sizes, config):
    rng = random.Random(f"{workload}:{seed}")
    if workload == CLASSIFY_DEEP:
        return _classify_deep(rng)
    if workload == CLASSIFY_MANY:
        return _classify_many(rng, sizes, config)
    return _verify_long(rng, sizes)
