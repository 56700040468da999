"""Numeric cross-examination: integrate the dynamics and measure drift.

Fixed-step integrators over the compiled vector-field components; conserved
quantities are checked by their drift along trajectories, and symmetry
claims by commuting the candidate's flow with the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from .symexpr import EvalDomainError, Expr, ExprError, PhaseSpace
from .exterior import VectorField
from .hamiltonian import HamiltonianSystem, NumericPotential

__all__ = [
    "Trajectory",
    "DriftReport",
    "IntegrationError",
    "integrate",
    "check_conserved",
    "check_symmetry_numeric",
    "dump_trajectory",
]

METHODS = ("rk4", "implicit_midpoint")

# Most steps one run may take: 100 times the bundled runs, 32 MB of states at 2n = 4
MAX_STEPS = 10**6


class IntegrationError(ExprError):
    pass


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), 2n)
    method: str
    dt: float
    x0: tuple
    truncated: bool = False
    diagnostic: str = ""


@dataclass
class DriftReport:
    quantity: str
    max_abs_drift: float = math.nan
    max_rel_drift: float = math.nan
    initial_value: float = math.nan
    final_value: float = math.nan
    min_value: float = math.nan
    max_value: float = math.nan
    samples: int = 0
    error: Optional[str] = None

    def passed(self, rel_tol: float) -> bool:
        return self.error is None and self.max_rel_drift < rel_tol

    def describe(self) -> str:
        if self.error is not None:
            return f"{self.quantity}: evaluation error: {self.error}"
        return (f"{self.quantity}: max |drift| = {self.max_abs_drift:.3e}, "
                f"relative = {self.max_rel_drift:.3e} over {self.samples} samples")


def integrate(sys: HamiltonianSystem, x0: Sequence[float], t_final: float,
              dt: float, method: str = "rk4") -> Trajectory:
    """Fixed-step integration of the Hamilton equations from x0."""
    if method not in METHODS:
        raise IntegrationError(f"unknown method {method!r}; choose from {METHODS}")
    if dt <= 0:
        raise IntegrationError("dt must be positive")
    dim = 2 * sys.space.n
    x0 = tuple(float(v) for v in x0)
    if len(x0) != dim:
        raise IntegrationError(f"initial state needs {dim} components")
    if not all(map(math.isfinite, (dt, t_final, *x0))):
        raise IntegrationError("dt, t_final and the initial state must be finite")
    ratio = t_final / dt  # range-checked before rounding: round(inf) raises
    steps = round(ratio) if 0 < ratio <= MAX_STEPS + 1 else 0
    if not 1 <= steps <= MAX_STEPS:
        raise IntegrationError(
            f"t_final / dt = {ratio:.6g} must round to a step count from 1 to {MAX_STEPS}"
        )
    rhs = sys.space.compile(sys.x_h.components)
    states = np.empty((steps + 1, dim))
    states[0] = x0
    x = list(x0)
    truncated = False
    diagnostic = ""
    step_fn = _rk4_step if method == "rk4" else _midpoint_step
    done = 0
    for k in range(steps):
        try:
            x = step_fn(rhs, x, dt)
        except (EvalDomainError, IntegrationError) as exc:
            truncated = True
            diagnostic = f"stopped at t = {(k + 1) * dt:.6g}: {exc}"
            break
        if not all(math.isfinite(v) for v in x):
            truncated = True
            diagnostic = (f"stopped at t = {(k + 1) * dt:.6g}: "
                          "state left the finite range")
            break
        states[k + 1] = x
        done = k + 1
    times = np.arange(done + 1) * dt
    return Trajectory(times=times, states=states[: done + 1], method=method,
                      dt=dt, x0=x0, truncated=truncated, diagnostic=diagnostic)


def _rk4_step(rhs, x, dt):
    k1 = rhs(x)
    k2 = rhs([xi + 0.5 * dt * k for xi, k in zip(x, k1)])
    k3 = rhs([xi + 0.5 * dt * k for xi, k in zip(x, k2)])
    k4 = rhs([xi + dt * k for xi, k in zip(x, k3)])
    return [xi + dt / 6.0 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _midpoint_step(rhs, x, dt, tol: float = 1e-12, max_iters: int = 50):
    # solve y = x + dt * f((x + y)/2) by fixed-point iteration
    f0 = rhs(x)
    y = [xi + dt * fi for xi, fi in zip(x, f0)]
    for _ in range(max_iters):
        mid = [(xi + yi) / 2.0 for xi, yi in zip(x, y)]
        fm = rhs(mid)
        y_new = [xi + dt * fi for xi, fi in zip(x, fm)]
        delta = max(abs(a - b) for a, b in zip(y, y_new))
        y = y_new
        if delta <= tol:
            return y
    raise IntegrationError(
        f"implicit midpoint stage did not converge within {max_iters} iterations"
    )


Quantity = Union[Expr, NumericPotential]


def check_conserved(f: Quantity, traj: Trajectory, space: PhaseSpace,
                    name: Optional[str] = None) -> DriftReport:
    """Drift statistics of a quantity along a trajectory.

    Relative drift is measured against max(|f(x0)|, 1e-12) so quantities that
    start near zero do not blow the ratio up.
    """
    if isinstance(f, Expr):
        fn = space.compile(f)
        evaluate = lambda x: fn(tuple(x))
        label = name or str(f)
    else:
        evaluate = lambda x: f.evaluate(x)
        label = name or f.describe()
    try:
        values = [evaluate(state) for state in traj.states]
    except EvalDomainError as exc:
        return DriftReport(quantity=label, error=str(exc))
    v0 = values[0]
    drift = max(abs(v - v0) for v in values)
    denom = max(abs(v0), 1e-12)
    return DriftReport(
        quantity=label,
        max_abs_drift=drift,
        max_rel_drift=drift / denom,
        initial_value=v0,
        final_value=values[-1],
        min_value=min(values),
        max_value=max(values),
        samples=len(values),
    )


def check_symmetry_numeric(y: VectorField, sys: HamiltonianSystem,
                           x0: Sequence[float], epsilon: float = 1e-5,
                           t_final: float = 1.0, dt: float = 1e-3,
                           method: str = "rk4", flow_steps: int = 16) -> float:
    """Defect between flow-then-integrate and integrate-then-flow, over epsilon.

    A candidate commuting with the dynamics gives a residual of order epsilon;
    a genuine obstruction shows up at order one.
    """
    y_at = sys.space.compile(y.components)

    def flow(x):
        x = list(x)
        h = epsilon / flow_steps
        for _ in range(flow_steps):
            x = [xi + h * v for xi, v in zip(x, y_at(x))]
        return x

    a = integrate(sys, flow(x0), t_final, dt, method)
    b = integrate(sys, x0, t_final, dt, method)
    if a.truncated or b.truncated:
        raise IntegrationError(
            "trajectory truncated during the symmetry check: "
            + (a.diagnostic or b.diagnostic)
        )
    shifted_end = flow(b.states[-1])
    defect = max(abs(u - v) for u, v in zip(a.states[-1], shifted_end))
    return defect / epsilon


def dump_trajectory(traj: Trajectory, space: PhaseSpace, out: TextIO) -> None:
    """Plain-text table: t then the coordinates, 17 significant digits."""
    header = "# t " + " ".join(space.coords)
    out.write(header + "\n")
    for t, state in zip(traj.times, traj.states):
        row = " ".join(f"{v:.17g}" for v in (t, *state))
        out.write(row + "\n")
