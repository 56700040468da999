"""Independent references for the hamsym benchmark.

Everything here is written out by hand or computed with numpy and the
standard library; nothing is asked of hamsym.  The system files, their
Hamilton equations and their known invariants are copied from the bundled
examples (README, PAPER) and derived by hand for the two systems the
benchmark adds, so a change to ``src/`` cannot move a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# Functions take the math module for scalars or numpy for arrays, so one
# hand-written formula serves both the integrators and the probe points.
Formula = Callable[[Sequence, object], object]


@dataclass(frozen=True)
class Invariant:
    name: str
    text: str  # in hamsym's expression grammar
    value: Formula


@dataclass(frozen=True)
class SystemRef:
    text: str  # system file without candidate lines
    coords: Tuple[str, ...]
    params: Dict[str, float]
    boxes: Tuple[Tuple[float, float], ...]  # probe box per coordinate, as in the file
    rhs: Formula  # Hamilton's equations
    invariants: Tuple[Invariant, ...]  # the energy comes first
    symmetry: str  # a known symmetry, components joined by " | "
    non_symmetry: str  # a field whose flow does not commute with the dynamics


def _canonical(grad_q: Formula, grad_p: Formula, n: int) -> Formula:
    def rhs(x, m):
        dq, dp = grad_q(x, m), grad_p(x, m)
        return [dp[i] for i in range(n)] + [-dq[i] for i in range(n)]
    return rhs


def _header(name, coords, params, domains=()):
    n = len(coords) // 2
    lines = [f"name: {name}", f"dof: {n}", "coordinates: " + " ".join(coords)]
    lines += [f"parameter: {k} = {v!r}" for k, v in params.items()]
    lines += [f"domain: {c} = {lo!r} .. {hi!r}" for c, (lo, hi) in domains]
    return lines


# --- spherical pendulum (bundled pendulum.sys) ------------------------------

_PEND_COORDS = ("theta", "phi", "p_theta", "p_phi")
_PEND_W2 = 1.0  # Omega^2


def _pend_sec2(th, m):
    t = m.tan(th)
    return 1 + t * t


PENDULUM = SystemRef(
    text="\n".join(_header("spherical-pendulum", _PEND_COORDS, {"Omega": 1.0},
                           [("theta", (-1.2, 1.2)), ("phi", (0.0, 2 * math.pi))]) + [
        "symplectic: canonical",
        "hamiltonian: p_theta^2/2 + p_phi^2*(1 + tan(theta)^2)/2 + Omega^2*(1 + sin(theta))",
    ]),
    coords=_PEND_COORDS,
    params={"Omega": 1.0},
    boxes=((-1.2, 1.2), (0.0, 2 * math.pi), (-1.0, 1.0), (-1.0, 1.0)),
    rhs=_canonical(
        lambda x, m: [x[3] ** 2 * m.tan(x[0]) * _pend_sec2(x[0], m) + _PEND_W2 * m.cos(x[0]),
                      0 * x[0]],
        lambda x, m: [x[2], x[3] * _pend_sec2(x[0], m)],
        2,
    ),
    invariants=(
        Invariant("h", "p_theta^2/2 + p_phi^2*(1 + tan(theta)^2)/2 + Omega^2*(1 + sin(theta))",
                  lambda x, m: x[2] ** 2 / 2 + x[3] ** 2 * _pend_sec2(x[0], m) / 2
                  + _PEND_W2 * (1 + m.sin(x[0]))),
        Invariant("p_phi", "p_phi", lambda x, m: x[3] + 0 * x[0]),
    ),
    symmetry="0 | 1 | 0 | 0",
    non_symmetry="p_theta | 0 | 0 | 0",
)

# --- oscillators (bundled aniso/iso, plus a 3-dof isotropic one) -----------


def _energy(i: int, n: int, w2: float) -> Formula:
    return lambda x, m: (x[n + i] ** 2 + w2 * x[i] ** 2) / 2


def _oscillator(name, n, freqs, invariants, symmetry, non_symmetry):
    """Uncoupled oscillators h = sum (p_i^2 + w_i^2 q_i^2)/2."""
    coords = tuple(f"q{i + 1}" for i in range(n)) + tuple(f"p{i + 1}" for i in range(n))
    params = {}
    w_texts = []
    for w_name, w in freqs:
        if w_name not in params:
            params[w_name] = w
        w_texts.append(w_name)
    w2 = [w * w for _, w in freqs]
    h_text = "(" + " + ".join(f"p{i + 1}^2" for i in range(n)) + " + " + " + ".join(
        f"{w_texts[i]}^2*q{i + 1}^2" for i in range(n)) + ")/2"
    h = Invariant("h", h_text, lambda x, m: sum(_energy(i, n, w2[i])(x, m) for i in range(n)))
    return SystemRef(
        text="\n".join(_header(name, coords, params) + ["symplectic: canonical",
                                                       f"hamiltonian: {h_text}"]),
        coords=coords,
        params=params,
        boxes=((-1.0, 1.0),) * (2 * n),
        rhs=_canonical(lambda x, m: [w2[i] * x[i] for i in range(n)],
                       lambda x, m: [x[n + i] for i in range(n)], n),
        invariants=(h,) + tuple(invariants(w2)),
        symmetry=symmetry,
        non_symmetry=non_symmetry,
    )


def _partial_energies(n, w_names):
    def make(w2):
        return [Invariant(f"h{i + 1}", f"(p{i + 1}^2 + {w_names[i]}^2*q{i + 1}^2)/2",
                          _energy(i, n, w2[i])) for i in range(n)]
    return make


def _angular(i, j, n):
    return Invariant(f"L{i + 1}{j + 1}", f"q{i + 1}*p{j + 1} - q{j + 1}*p{i + 1}",
                     lambda x, m: x[i] * x[n + j] - x[j] * x[n + i])


def _fradkin(i, j, n, w2):
    return Invariant(f"K{i + 1}{j + 1}", f"p{i + 1}*p{j + 1} + Omega^2*q{i + 1}*q{j + 1}",
                     lambda x, m: x[n + i] * x[n + j] + w2 * x[i] * x[j])


ANISO = _oscillator(
    "anisotropic-oscillator", 2, [("Omega1", 1.0), ("Omega2", 0.5)],
    _partial_energies(2, ["Omega1", "Omega2"]),
    symmetry="Omega1*q1/(Omega1^2*q1^2 + p1^2) | 0 | Omega1*p1/(Omega1^2*q1^2 + p1^2) | 0",
    non_symmetry="0 | 0 | q1 | 0",
)
ISO = _oscillator(
    "isotropic-oscillator", 2, [("Omega", 1.0)] * 2,
    lambda w2: _partial_energies(2, ["Omega"] * 2)(w2)
    + [_angular(0, 1, 2), _fradkin(0, 1, 2, w2[0])],
    symmetry="q2 | q1 | p2 | p1",
    non_symmetry="0 | 0 | q1 | 0",
)
ISO3 = _oscillator(
    "isotropic-oscillator-3", 3, [("Omega", 1.0)] * 3,
    lambda w2: _partial_energies(3, ["Omega"] * 3)(w2)
    + [_angular(0, 1, 3), _angular(1, 2, 3), _angular(0, 2, 3)],
    symmetry="q2 | q3 | q1 | p2 | p3 | p1",
    non_symmetry="0 | 0 | 0 | q1 | 0 | 0",
)

# --- a noncanonical system: nonuniform magnetic term ------------------------

MAGNETIC_B = 0.5
MAGNETIC_COORDS = ("x", "y", "px", "py")
MAGNETIC_TEXT = "\n".join(_header("magnetic-plane", MAGNETIC_COORDS, {"B": MAGNETIC_B}) + [
    "symplectic: explicit",
    "symplectic-term: x px = 1",
    "symplectic-term: y py = 1",
    "symplectic-term: x y = B*(1 + x^2)",
    "hamiltonian: (px^2 + py^2)/2",
])


def magnetic_noether(values: Dict[str, float]) -> float:
    """Noether quantity of the translation Ty: py - B*x - B*x^3/3."""
    x = values["x"]
    return values["py"] - MAGNETIC_B * x - MAGNETIC_B * x ** 3 / 3


SYSTEMS: Dict[str, SystemRef] = {
    "pendulum": PENDULUM, "aniso": ANISO, "iso": ISO, "iso3": ISO3,
}

# --- the hand-written label table of the bundled files (README, PAPER) ------

OMEGA_EIGEN = "OmegaEigenOrderN"
BUNDLED_CANDIDATES: Dict[str, List[Tuple[str, str, str]]] = {
    # system -> (candidate, components, expected label kind)
    "pendulum": [("Y_rot", "0 | 1 | 0 | 0", "Noether")],
    "aniso": [
        ("Y1", "Omega1*q1/(Omega1^2*q1^2 + p1^2) | 0 | Omega1*p1/(Omega1^2*q1^2 + p1^2) | 0",
         "GeometricNonHamiltonian"),
        ("Y2", "0 | Omega2*q2/(Omega2^2*q2^2 + p2^2) | 0 | Omega2*p2/(Omega2^2*q2^2 + p2^2)",
         "GeometricNonHamiltonian"),
    ],
    "iso": [
        ("Y", "q2 | q1 | p2 | p1", OMEGA_EIGEN),  # N = 2, C = 4
        ("Y1", "0 | q1 | 0 | p1", "BiHamiltonian"),
        ("Y2", "q2 | 0 | p2 | 0", "BiHamiltonian"),
        ("Xh1", "p1 | 0 | -Omega^2*q1 | 0", "Noether"),
        ("Xh2", "0 | p2 | 0 | -Omega^2*q2", "Noether"),
        ("Z1", "(p2^2 + Omega^2*q2^2)*q2 | 0 | (p2^2 + Omega^2*q2^2)*p2 | 0", "BiHamiltonian"),
        ("Z2", "0 | (p1^2 + Omega^2*q1^2)*q1 | 0 | (p1^2 + Omega^2*q1^2)*p1", "BiHamiltonian"),
        ("Z", "(q1*p2 - q2*p1)*p1 | -(q1*p2 - q2*p1)*p2 | -(q1*p2 - q2*p1)*q1 | (q1*p2 - q2*p1)*q2",
         "Inconclusive"),
    ],
}


def omega_eigen_constant(scale: Fraction) -> str:
    """C of iso Y scaled by c: L^2(cY)omega = 4 c^2 omega."""
    return str(4 * scale * scale)


# --- evaluation, commutators and integrators --------------------------------

_FUNCS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
          "ln": math.log, "sqrt": math.sqrt, "__builtins__": {}}


def eval_text(text: str, values: Dict[str, float]) -> float:
    """Evaluate an expression printed by hamsym with Python's own arithmetic."""
    return float(eval(compile(text.replace("^", "**"), "<quantity>", "eval"), _FUNCS, values))


def proportional(value: Callable[[Dict[str, float]], float], label: str,
                 ref: Callable[[Dict[str, float]], float],
                 points: Sequence[Dict[str, float]]) -> Optional[str]:
    """None when value = lambda*ref + const at the points with lambda != 0;
    label names the quantity in the message."""
    q = [value(p) for p in points]
    f = [ref(p) for p in points]
    dq = np.array(q[1:]) - q[0]
    df = np.array(f[1:]) - f[0]
    lam = float(dq @ df) / float(df @ df)
    err = float(np.max(np.abs(dq - lam * df)))
    if abs(lam) < 1e-12 or err > 1e-8 * (1.0 + float(np.max(np.abs(dq)))):
        return f"{label!r} is not a multiple of the reference plus a constant (residual {err:.3e})"
    return None


Monomial = Tuple[Fraction, Tuple[int, ...]]


def poly_text(terms: Sequence[Monomial], coords: Sequence[str]) -> str:
    if not terms:
        return "0"
    out = []
    for coef, exps in terms:
        factors = [c if e == 1 else f"{c}^{e}" for c, e in zip(coords, exps) if e]
        body = "*".join([f"{abs(coef)}"] + factors)
        out.append(("- " if coef < 0 else "+ ") + body)
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def poly_value(terms: Sequence[Monomial], x: np.ndarray) -> np.ndarray:
    out = np.zeros(x.shape[1:])
    for coef, exps in terms:
        out = out + float(coef) * np.prod([x[k] ** e for k, e in enumerate(exps)], axis=0)
    return out


def commutator_max(field: Sequence[Sequence[Monomial]], system: SystemRef,
                   points: np.ndarray, eps: float = 1e-6) -> float:
    """max |[Y, X_h]| over points (shape 2n x P), by central differences:
    [Y, X](x) = DX(x) Y(x) - DY(x) X(x)."""
    def y(p):
        return np.array([poly_value(c, p) for c in field])

    def xh(p):
        return np.array(system.rhs(p, np)) + 0 * p

    yv, xv = y(points), xh(points)
    dx_y = (xh(points + eps * yv) - xh(points - eps * yv)) / (2 * eps)
    dy_x = (y(points + eps * xv) - y(points - eps * xv)) / (2 * eps)
    return float(np.max(np.abs(dx_y - dy_x)))


def integrate(system: SystemRef, x0: Sequence[float], dt: float, steps: int,
              method: str) -> List[float]:
    """Final state of the same fixed-step scheme hamsym documents, on the
    hand-written equations."""
    rhs = system.rhs
    x = [float(v) for v in x0]
    for _ in range(steps):
        if method == "rk4":
            k1 = rhs(x, math)
            k2 = rhs([a + 0.5 * dt * k for a, k in zip(x, k1)], math)
            k3 = rhs([a + 0.5 * dt * k for a, k in zip(x, k2)], math)
            k4 = rhs([a + dt * k for a, k in zip(x, k3)], math)
            x = [a + dt / 6.0 * (b + 2 * c + 2 * d + e)
                 for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
        else:  # implicit midpoint by fixed-point iteration
            y = [a + dt * k for a, k in zip(x, rhs(x, math))]
            for _ in range(50):
                fm = rhs([(a + b) / 2.0 for a, b in zip(x, y)], math)
                y_new = [a + dt * k for a, k in zip(x, fm)]
                delta = max(abs(a - b) for a, b in zip(y, y_new))
                y = y_new
                if delta <= 1e-12:
                    break
            x = y
    return x
