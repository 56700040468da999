"""Numeric cross-examination: integrate the dynamics and measure drift.

Fixed-step integrators (classical RK4 and the implicit midpoint rule; Hairer,
Lubich & Wanner, *Geometric Numerical Integration*, 2006).  Each system and
method runs one generated function for the whole run, compiled from the
vector field's component code and cached on the phase space: it keeps the
state in locals from the first step to the last, inlines the stages in the
same floating-point order as the textbook loops over lists, and stores each
state in one flat array that numpy then views.  A stage evaluates each
function of the state, and each product that adjacent terms begin with,
once.  The step size's multiples are computed once per run, before the
first step.  Parameters are float literals in the code, so the compiler
folds a term's coefficient and leading parameter powers into one constant
(`-1.0*(1.3)**2*v0` for `-Omega^2*q` at Omega = 1.3), the same float the
loops over lists compute at every stage, and the run has no prelude.
Guarded atoms (a quotient, a tangent, a logarithm, a fractional power)
stay in the loop even when they are state-free, so that a domain fault is
still raised by the first component that meets it.  A domain fault stops the
run as before, naming the faulting subexpression or component; so does a
state outside the finite range, or an implicit midpoint stage that does not
converge (a NaN update never converges, see `MIDPOINT_TOL`).  An RK4 step
tests one sum of its new state, and the state itself only when that sum is
not finite.  A midpoint step has no finiteness test: a stage that
converges has a finite update, and one that stops names its stop.  A
midpoint stage starts from x + dt*(3*(g - e) + c), where g, e and c are the
converged midpoint slopes of the last three steps, a starting guess of
higher order than Euler's (Hairer, Lubich & Wanner, §VIII.6): at a step of
2.5e-4 on the bundled systems nearly every stage converges at its first
iteration.  The run evaluates f(x0) once, before its first step, and sets
g = e = c to it, so the first stage starts from Euler's guess.  After that
f is evaluated only at midpoints, so a fault near an accepted state is
raised by the next stage that meets it, not at the state.  An RK4
component that is identically zero is folded: its stage inputs and update
are x + 0.0, and it has no stage slopes.  Conserved quantities are
checked by their drift along trajectories, and symmetry claims by commuting
the candidate's flow with the dynamics.

The runs are the only code built here.  The drift check walks a quantity's
canonical form at all states at once on numpy arrays, and again one state
at a time on Python floats wherever a domain fault may be, so faults keep
their messages; a NaN sample fails the check (see `check_conserved`).
numpy is imported by `integrate` and `check_conserved`, where the arrays
are built, so importing this module loads none.
"""

from __future__ import annotations

import math
from array import array
from typing import Optional, Sequence, TextIO, Union

from .symexpr import EvalDomainError, Expr, ExprError, PhaseSpace, batch_values, interpret
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

# Most steps one run may take: 100 times the bundled runs, 32 MB of states at
# 2n = 4, in the one array("d") the run extends and numpy views without a copy
MAX_STEPS = 10**6
# The implicit midpoint stage's fixed-point iteration stops when an update moves
# every component by at most MIDPOINT_TOL (a NaN never does); after MIDPOINT_ITERS
# it has not converged if its iterate is finite, and left the finite range if not;
# a failed update that repeats the iterate it came from stops it at once, as the latter
MIDPOINT_TOL = 1e-12
MIDPOINT_ITERS = 50
# The symmetry check flows along the candidate for epsilon in FLOW_STEPS Euler steps
FLOW_STEPS = 16


class IntegrationError(ExprError):
    pass


class Trajectory:
    def __init__(self, times: np.ndarray, states: np.ndarray, method: str,
                 truncated: bool = False, diagnostic: str = ""):
        self.times = times
        self.states = states  # shape (len(times), 2n)
        self.method = method
        self.truncated = truncated
        self.diagnostic = diagnostic


class DriftReport:
    def __init__(self, quantity: str, max_abs_drift: float = math.nan,
                 max_rel_drift: float = math.nan, initial_value: float = math.nan,
                 samples: int = 0, error: Optional[str] = None):
        self.quantity = quantity
        self.max_abs_drift = max_abs_drift
        self.max_rel_drift = max_rel_drift
        self.initial_value = initial_value
        self.samples = samples
        self.error = error

    def passed(self, rel_tol: float) -> bool:
        return self.error is None and self.max_rel_drift < rel_tol

    def describe(self) -> str:
        if self.error is not None:
            return f"{self.quantity}: evaluation error: {self.error}"
        return (f"{self.quantity}: max |drift| = {self.max_abs_drift:.3e}, "
                f"relative = {self.max_rel_drift:.3e} over {self.samples} samples")


def integrate(sys: HamiltonianSystem, x0: Sequence[float], t_final: float,
              dt: float, method: str = "rk4") -> Trajectory:
    """Fixed-step integration of the Hamilton equations from x0.  A run
    stopped by a domain fault, a state outside the finite range or an
    implicit midpoint stage that does not converge is truncated: it keeps
    the states before the stop, and its diagnostic names the stop time."""
    import numpy as np

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
    run = sys.space.compile(sys.x_h.components, _RUNS[method])
    out = array("d", x0)
    try:
        diagnostic = run(x0, dt, steps, out) or ""
    except EvalDomainError as exc:
        diagnostic = str(exc)
    done = len(out) // dim - 1
    if diagnostic:
        diagnostic = f"stopped at t = {(done + 1) * dt:.6g}: {diagnostic}"
    states = np.frombuffer(out).reshape(done + 1, dim)
    times = np.arange(done + 1) * dt
    return Trajectory(times=times, states=states, method=method,
                      truncated=done < steps, diagnostic=diagnostic)


# Run sources for compile_numeric: run(x, d, steps, out) takes `steps` steps
# of size d from x, keeping the state in the locals x0, x1, ..., and extends
# out with each state it accepts (one fromlist call, which sizes out once).
# It returns None when every step is taken, or the diagnostic of the step
# that stops it (a state outside the finite range, an implicit midpoint
# stage that does not converge), whose state is not stored; a domain fault
# raises, and len(out) counts the states stored before it.  Each stage sets
# its input v0, v1, ... (which the component code reads) and then evaluates
# the components in order, so a fault inside a stage is the one the
# components raise at that input.  Each update is written as the textbook
# loop over lists writes it, operation for operation, so the states match
# that loop bit for bit (tests/test_verify.py keeps it as the oracle).
#
# Where finiteness is tested: an RK4 step multiplies the sum of its new
# state by 0.0, which gives 0.0 when the sum is finite and NaN when it is
# not.  Only then does it take the exact test, x - x summed over the
# components, since finite components may overflow as they are added.  The
# midpoint stage's convergence test is one chained comparison per
# component, -tol <= y - n <= tol, which is false when n is an inf or a
# NaN, so the stage breaks only with a finite update, the state it stores
# untested.  A stage out of iterations returns its stop: not converged when
# its last update is finite, the finite range left when not.  An update
# that fails the test and repeats the last iterate (each n == y, or both
# NaN) has a non-finite component, and every later iteration would repeat
# it (the map is deterministic; a zero's sign changes no test), so the
# stage returns that stop at once.
#
# The midpoint's slopes g, e and c start as the components at x0, evaluated
# once before the step loop, and a converged stage rotates them with its
# midpoint slope f: c, e, g = e, g, f.  An RK4
# component whose code is 0.0 has no stage slopes: its stage inputs and
# update are x + 0.0, the float x + h * 0.0 is (h, d and h6 are finite and
# positive; -0.0 + 0.0 is 0.0).  The midpoint keeps its zero rows, where
# folding them gained nothing measurable.

_NOT_FINITE = "state left the finite range"
_NOT_CONVERGED = f"implicit midpoint stage did not converge within {MIDPOINT_ITERS} iterations"


def _run(rows, step: list, new: Sequence[str], test: list) -> list:
    """The step loop: the lines of one step, then the new state (which is
    the next step's first stage input), the lines that test it and its store."""
    return (["store = out.fromlist", "for _ in range(steps):"]
            + [f"    {line}" for line in step]
            + [f"    x{i} = v{i} = {e}" for i, e in zip(rows, new)]
            + [f"    {line}" for line in test]
            + ["    store([" + ", ".join(f"x{i}" for i in rows) + "])"])


def _zero_if_finite(name: str, rows) -> str:
    """0.0 if every name{i} is finite, else NaN (x - x is NaN for an inf or a NaN)."""
    return " + ".join(f"({name}{i} - {name}{i})" for i in rows)


def _rk4_source(codes) -> list:
    rows = range(len(codes))
    live = [i for i in rows if codes[i] != "0.0"]  # the zero components are folded
    step = []
    for k, scale in ((1, "h"), (2, "h"), (3, "d"), (4, None)):
        step += [f"k{k}_{i} = {codes[i]}" for i in live]
        if scale is not None:
            step += [f"v{i} = x{i} + {scale} * k{k}_{i}" if i in live else f"v{i} = x{i} + 0.0"
                     for i in rows]
    new = [f"x{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})" if i in live
           else f"x{i} + 0.0" for i in rows]
    total = " + ".join(f"x{i}" for i in rows)
    test = [f"if 0.0 * ({total}) != 0.0 and {_zero_if_finite('x', rows)} != 0.0:",
            f"    return {_NOT_FINITE!r}"]
    return ["h = 0.5 * d", "h6 = d / 6.0"] + _run(rows, step, new, test)


def _midpoint_source(codes) -> list:
    # solve y = x + d * f((x + y)/2) by fixed-point iteration from the
    # extrapolated slope 3*(g - e) + c; the last update n is y
    rows = range(len(codes))
    slopes = [f"f{i} = {code}" for i, code in enumerate(codes)]
    tol = repr(MIDPOINT_TOL)
    step = ([f"y{i} = x{i} + d * (3.0 * (g{i} - e{i}) + c{i})" for i in rows]
            + [f"for _j in range({MIDPOINT_ITERS}):"]
            + [f"    v{i} = (x{i} + y{i}) / 2.0" for i in rows]
            + [f"    {line}" for line in slopes]
            + [f"    n{i} = x{i} + d * f{i}" for i in rows]
            + ["    if " + " and ".join(f"-{tol} <= y{i} - n{i} <= {tol}" for i in rows) + ":",
               "        break"]
            + ["    if " + " and ".join(f"(n{i} == y{i} or n{i} != n{i} and y{i} != y{i})"
                                        for i in rows) + ":",
               f"        return {_NOT_FINITE!r}"]
            + [f"    y{i} = n{i}" for i in rows]
            + ["else:", f"    if {_zero_if_finite('n', rows)} == 0.0:",
               f"        return {_NOT_CONVERGED!r}", f"    return {_NOT_FINITE!r}"]
            + [f"c{i}, e{i}, g{i} = e{i}, g{i}, f{i}" for i in rows])
    prime = slopes + [f"g{i} = e{i} = c{i} = f{i}" for i in rows]
    return prime + _run(rows, step, [f"n{i}" for i in rows], [])


_RUNS = {"rk4": _rk4_source, "implicit_midpoint": _midpoint_source}


Quantity = Union[Expr, NumericPotential]


def check_conserved(f: Quantity, traj: Trajectory, space: PhaseSpace,
                    name: Optional[str] = None) -> DriftReport:
    """Drift statistics of a quantity along a trajectory.

    An Expr is evaluated at all states at once by walking its canonical
    form on numpy columns (`symexpr.batch_values`), with no code built.
    Where that walk hands back (a numpy floating-point error, a tangent pole
    or a non-finite value), the states are evaluated one by one on Python
    floats by `symexpr.interpret`, so that a fault is the scalar path's
    EvalDomainError; a NumericPotential is always evaluated one by one.
    Relative drift is measured against max(|f(x0)|, 1e-12) so quantities that
    start near zero do not blow the ratio up.  A NaN value makes the drift
    NaN, which fails every tolerance.
    """
    import numpy as np

    exact = isinstance(f, Expr)
    label = name or (str(f) if exact else f.describe())
    values = batch_values(f, space, traj.states) if exact else None
    if values is None:
        evaluate = interpret(f, space) if exact else f.evaluate
        try:
            values = np.array([evaluate(state) for state in traj.states.tolist()], dtype=float)
        except EvalDomainError as exc:
            return DriftReport(quantity=label, error=str(exc))
    v0 = float(values[0])
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN drift, not a warning
        drift = float(np.max(np.abs(values - v0)))
    return DriftReport(quantity=label, max_abs_drift=drift,
                       max_rel_drift=drift / max(abs(v0), 1e-12), initial_value=v0,
                       samples=len(values))


def check_symmetry_numeric(y: VectorField, sys: HamiltonianSystem,
                           x0: Sequence[float], epsilon: float = 1e-5,
                           t_final: float = 1.0, dt: float = 1e-3,
                           method: str = "rk4") -> float:
    """Defect between flow-then-integrate and integrate-then-flow, over epsilon.

    A candidate commuting with the dynamics gives a residual of order epsilon;
    a genuine obstruction shows up at order one.
    """
    dim = 2 * sys.space.n
    if len(x0) != dim:
        raise IntegrationError(f"initial state needs {dim} components")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise IntegrationError("epsilon must be finite and positive")
    field = [interpret(c, sys.space) for c in y.components]

    def flow(x):
        h = epsilon / FLOW_STEPS
        for _ in range(FLOW_STEPS):
            x = [xi + h * v for xi, v in zip(x, [f(x) for f in field])]
        return x

    a = integrate(sys, flow(x0), t_final, dt, method)
    b = integrate(sys, x0, t_final, dt, method)
    if a.truncated or b.truncated:
        raise IntegrationError(
            "trajectory truncated during the symmetry check: "
            + (a.diagnostic or b.diagnostic)
        )
    # Python floats, so that an overflow in the field raises instead of becoming inf
    shifted_end = flow(b.states[-1].tolist())
    defect = max(abs(u - v) for u, v in zip(a.states[-1].tolist(), shifted_end))
    return defect / epsilon


def dump_trajectory(traj: Trajectory, space: PhaseSpace, out: TextIO) -> None:
    """Plain-text table: t then the coordinates, 17 significant digits."""
    header = "# t " + " ".join(space.coords)
    out.write(header + "\n")
    for t, state in zip(traj.times, traj.states):
        row = " ".join(f"{v:.17g}" for v in (t, *state))
        out.write(row + "\n")
