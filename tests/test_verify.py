import io
import math
import random
import warnings
from array import array
from fractions import Fraction

import numpy as np
import pytest

from hamsym import cli, hamiltonian, symexpr, verify
from hamsym.exterior import VectorField, exterior_derivative, scalar_form
from hamsym.hamiltonian import NumericPotential, make_system, poincare_potential
from hamsym.symexpr import EvalDomainError, PhaseSpace, batch_values, parse
from hamsym.systemio import BUNDLED_EXAMPLES
from hamsym.verify import (
    _RUNS,
    MAX_STEPS,
    METHODS,
    IntegrationError,
    check_conserved,
    check_symmetry_numeric,
    dump_trajectory,
    integrate,
)

from conftest import CountingFloat, _build, candidate_named
from genutil import random_poly


def test_iso_rk4_against_closed_form(iso):
    sf, system = iso
    traj = integrate(system, (1.0, 0.0, 0.0, 1.0), 10.0, 1e-3, "rk4")
    assert not traj.truncated
    # exact: q1 = cos t, q2 = sin t, p1 = -sin t, p2 = cos t (Omega = 1)
    t = traj.times
    exact = np.stack([np.cos(t), np.sin(t), -np.sin(t), np.cos(t)], axis=1)
    assert float(np.max(np.abs(traj.states - exact))) < 1e-8
    drift = check_conserved(system.h, traj, sf.space)
    assert drift.max_rel_drift < 1e-9


def test_free_particle_exact():
    sp = PhaseSpace(1, ["q1", "p1"])
    system = make_system(sp, "canonical", parse("p1^2/2", sp))
    traj = integrate(system, (0.0, 1.0), 5.0, 0.01, "rk4")
    assert traj.states[-1][0] == pytest.approx(5.0, abs=1e-12)
    drift = check_conserved(parse("q1", sp), traj, sp)
    assert drift.max_rel_drift > 1.0  # q1 is visibly not conserved


def test_pendulum_step_halving_consistency(pendulum):
    sf, system = pendulum
    x0 = (0.3, 0.0, 0.0, 0.5)
    d1 = check_conserved(system.h, integrate(system, x0, 10.0, 0.02, "rk4"),
                         sf.space).max_rel_drift
    d2 = check_conserved(system.h, integrate(system, x0, 10.0, 0.01, "rk4"),
                         sf.space).max_rel_drift
    assert d1 / d2 >= 8.0


def test_pendulum_momentum_drift(pendulum):
    sf, system = pendulum
    traj = integrate(system, (0.3, 0.0, 0.0, 0.5), 10.0, 1e-3, "rk4")
    rep = check_conserved(parse("p_phi", sf.space), traj, sf.space)
    assert rep.max_rel_drift < 1e-8


def test_domain_truncation_with_diagnostic():
    # the force field contains sqrt(2 - q1); the trajectory crosses q1 = 2
    # and the evaluation fault truncates the run with a diagnostic
    sp = PhaseSpace(1, ["q1", "p1"], domain={"q1": (0.0, 1.9)})
    system = make_system(sp, "canonical", parse("p1^2/2 + sqrt(2 - q1)", sp))
    traj = integrate(system, (1.5, 1.0), 5.0, 1e-2, "rk4")
    assert traj.truncated
    assert "stopped at t =" in traj.diagnostic
    assert len(traj.times) == len(traj.states)
    assert len(traj.times) > 1


def test_pendulum_barrier_reflection_conserves(pendulum):
    # approaching theta = pi/2 with angular momentum reflects off the
    # centrifugal barrier; energy drift stays at integrator scale
    sf, system = pendulum
    traj = integrate(system, (1.2, 0.0, 1.0, 0.3), 4.0, 1e-4, "rk4")
    assert not traj.truncated
    assert float(max(abs(s[0]) for s in traj.states)) < math.pi / 2
    rep = check_conserved(system.h, traj, sf.space)
    assert rep.max_rel_drift < 1e-6


def test_implicit_midpoint_quadratic_invariant(iso):
    sf, system = iso
    traj = integrate(system, (1.0, 0.0, 0.0, 1.0), 100.0, 1e-2,
                     "implicit_midpoint")
    rep = check_conserved(system.h, traj, sf.space)
    assert rep.max_rel_drift < 1e-10


def test_integrate_rejects_bad_input(iso):
    sf, system = iso
    with pytest.raises(IntegrationError):
        integrate(system, (1.0, 0.0, 0.0, 1.0), 1.0, 0.1, "euler")
    with pytest.raises(IntegrationError):
        integrate(system, (1.0, 0.0), 1.0, 0.1, "rk4")
    with pytest.raises(IntegrationError):
        integrate(system, (1.0, 0.0, 0.0, 1.0), 1.0, -0.1, "rk4")


@pytest.mark.parametrize("t_final, dt, x0", [
    (1.0, math.nan, (1.0, 0.0, 0.0, 1.0)),
    (math.inf, 0.1, (1.0, 0.0, 0.0, 1.0)),
    (1.0, 0.1, (1.0, math.nan, 0.0, 1.0)),
], ids=["nan-dt", "infinite-t_final", "nan-x0"])
def test_integrate_rejects_non_finite_values(iso, t_final, dt, x0):
    sf, system = iso
    with pytest.raises(IntegrationError, match="finite"):
        integrate(system, x0, t_final, dt, "rk4")


@pytest.mark.parametrize("t_final, dt", [
    (1e300, 1e-10),
    (-5.0, 0.01),
    (0.0, 0.01),
    (0.004, 0.01),
    (MAX_STEPS + 1.0, 1.0),
], ids=["ratio-beyond-float-range", "negative-t_final", "zero-t_final", "under-half-a-step",
        "too-many-steps"])
def test_integrate_rejects_step_counts_out_of_range(iso, t_final, dt):
    sf, system = iso
    with pytest.raises(IntegrationError, match=f"step count from 1 to {MAX_STEPS}"):
        integrate(system, (1.0, 0.0, 0.0, 1.0), t_final, dt, "rk4")


def test_integrate_rounds_to_the_nearest_step_count(iso):
    sf, system = iso
    assert len(integrate(system, (1.0, 0.0, 0.0, 1.0), 0.006, 0.01, "rk4").times) == 2
    assert len(integrate(system, (1.0, 0.0, 0.0, 1.0), 0.034, 0.01, "rk4").times) == 4


def test_symmetry_residual_pass_and_fail(pendulum, iso):
    sf, system = pendulum
    y = candidate_named(sf, "Y_rot").field
    res = check_symmetry_numeric(y, system, (0.3, 0.0, 0.0, 0.5),
                                 t_final=1.0, dt=1e-3)
    assert res < 1e-2
    sfi, syst = iso
    bad = VectorField(sfi.space, (symexpr.symbol("q1"), symexpr.ZERO,
                                  symexpr.ZERO, symexpr.ZERO))
    res_bad = check_symmetry_numeric(bad, syst, (1.0, 0.0, 0.0, 1.0),
                                     t_final=1.0, dt=1e-3)
    assert res_bad > 0.1


def test_symmetry_residual_zero_field(iso):
    sf, system = iso
    zero = VectorField(sf.space, tuple([symexpr.ZERO] * 4))
    res = check_symmetry_numeric(zero, system, (1.0, 0.0, 0.0, 1.0),
                                 t_final=0.5, dt=1e-2)
    assert res == 0.0


@pytest.mark.parametrize("x0, epsilon, message", [
    ((1.0, 0.0, 0.0, 1.0, 0.5), 1e-5, "initial state needs 4 components"),
    ((1.0, 0.0, 0.0), 1e-5, "initial state needs 4 components"),
    ((1.0, 0.0, 0.0, 1.0), 0.0, "epsilon must be finite and positive"),
    ((1.0, 0.0, 0.0, 1.0), -1e-5, "epsilon must be finite and positive"),
    ((1.0, 0.0, 0.0, 1.0), math.nan, "epsilon must be finite and positive"),
    ((1.0, 0.0, 0.0, 1.0), math.inf, "epsilon must be finite and positive"),
], ids=["long-x0", "short-x0", "zero-epsilon", "negative-epsilon", "nan-epsilon",
        "infinite-epsilon"])
def test_symmetry_residual_rejects_bad_input(iso, x0, epsilon, message):
    # checked before the flow field reads the point or divides by epsilon
    sf, system = iso
    y = candidate_named(sf, "Y").field
    with pytest.raises(IntegrationError, match=message):
        check_symmetry_numeric(y, system, x0, epsilon=epsilon, t_final=0.1, dt=1e-2)


def test_drift_relative_floor(iso):
    sf, system = iso
    # a conserved quantity that starts at zero must not divide by zero
    traj = integrate(system, (1.0, 0.0, 0.0, 1.0), 1.0, 1e-2, "rk4")
    f = parse("p1*p2 + Omega^2*q1*q2", sf.space)
    rep = check_conserved(f, traj, sf.space)
    assert rep.initial_value == pytest.approx(0.0)
    assert math.isfinite(rep.max_rel_drift)


def test_trajectory_dump_format(iso):
    sf, system = iso
    traj = integrate(system, (1.0, 0.0, 0.0, 1.0), 0.02, 0.01, "rk4")
    buf = io.StringIO()
    dump_trajectory(traj, sf.space, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# t q1 q2 p1 p2"
    assert len(lines) == 4  # header + 3 samples
    first = lines[1].split()
    assert len(first) == 5
    assert float(first[0]) == 0.0
    # 17 significant digits survive a round-trip
    assert float(lines[2].split()[1]) == traj.states[1][0]


# -- the generated step against the textbook loops ----------------------------
#
# The oracle is the integrator loop over lists that the generated step
# replaced: one evaluation of the field per stage, walked component by
# component (symexpr.interpret, bit for bit the compiled code's values and
# faults), the same stop rules.


def _rk4_step(rhs, x, dt):
    k1 = rhs(x)
    k2 = rhs([xi + 0.5 * dt * k for xi, k in zip(x, k1)])
    k3 = rhs([xi + 0.5 * dt * k for xi, k in zip(x, k2)])
    k4 = rhs([xi + dt * k for xi, k in zip(x, k3)])
    return [xi + dt / 6.0 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _midpoint_step(rhs, x, dt, slopes=None, tol=1e-12, max_iters=50):
    # With slopes, the list [g, e, c] of the last three accepted steps'
    # midpoint slopes (empty before the first step, which fills it with
    # f(x)), the stage starts from x + dt*(3*(g - e) + c) and rotates the
    # slopes; without, it starts from Euler's x + dt*f(x).  An update
    # converges when it moves every component by at most tol, so a NaN
    # update never does; one that repeats the last iterate (equal, or NaN in
    # both) would repeat it until the iterations run out.  A stage stopped so,
    # or out of iterations, with a non-finite iterate is left to the
    # caller's finiteness test
    if slopes is None:
        y = [xi + dt * fi for xi, fi in zip(x, rhs(x))]
    else:
        if not slopes:
            slopes += [rhs(x)] * 3
        g, e, c = slopes
        y = [xi + dt * (3.0 * (gi - ei) + ci) for xi, gi, ei, ci in zip(x, g, e, c)]
    for _ in range(max_iters):
        mid = [(xi + yi) / 2.0 for xi, yi in zip(x, y)]
        fm = rhs(mid)
        y_new = [xi + dt * fi for xi, fi in zip(x, fm)]
        if all(abs(a - b) <= tol for a, b in zip(y, y_new)):
            if slopes is not None:
                slopes[:] = [fm] + slopes[:2]
            return y_new
        if all(a == b or a != a and b != b for a, b in zip(y, y_new)):
            return y_new
        y = y_new
    if not all(math.isfinite(v) for v in y):
        return y
    raise IntegrationError(
        f"implicit midpoint stage did not converge within {max_iters} iterations"
    )


def _oracle(system, x0, steps, dt, method, euler=False):
    """(states, diagnostic) of the loop over lists; with euler, each
    implicit midpoint stage starts from Euler's guess."""
    walkers = [symexpr.interpret(c, system.space) for c in system.x_h.components]

    def rhs(x):
        return [f(x) for f in walkers]

    if method == "rk4":
        step = _rk4_step
    else:
        slopes = None if euler else []

        def step(rhs, x, dt):
            return _midpoint_step(rhs, x, dt, slopes)
    x = [float(v) for v in x0]
    rows, diagnostic = [x], ""
    for k in range(steps):
        try:
            x = step(rhs, x, dt)
        except (EvalDomainError, IntegrationError) as exc:
            diagnostic = f"stopped at t = {(k + 1) * dt:.6g}: {exc}"
            break
        if not all(math.isfinite(v) for v in x):
            diagnostic = f"stopped at t = {(k + 1) * dt:.6g}: state left the finite range"
            break
        rows.append(x)
    return np.array(rows), diagnostic


def _same_bits(got, want):
    """Equal shapes and bytes; np.array_equal takes -0.0 for 0.0."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _canonical(n, coords, h, parameters=None, domain=None):
    sp = PhaseSpace(n, coords, parameters, domain)
    return make_system(sp, "canonical", parse(h, sp))


def _iso3():
    return _canonical(3, ["q1", "q2", "q3", "p1", "p2", "p3"],
                      "(p1^2 + p2^2 + p3^2)/2 + Omega^2*(q1^2 + q2^2 + q3^2)/2",
                      {"Omega": 1.3})


@pytest.mark.parametrize("method, steps, dt", [("rk4", 2000, 1e-3),
                                               ("implicit_midpoint", 800, 2.5e-4)])
def test_generated_step_is_bit_identical_to_the_list_loops(pendulum, aniso, iso, method,
                                                           steps, dt):
    systems = [("pendulum", pendulum[1], (0.3, 0.05, -0.02, 0.5)),
               ("aniso", aniso[1], (1.0, 0.5, -0.3, 0.8)),
               ("iso", iso[1], (1.0, 0.5, -0.3, 0.8)),
               ("iso3", _iso3(), (1.0, 0.5, -0.4, -0.3, 0.8, 0.2)),
               # the parameter sorts after the coordinate: -3/5*q*z keeps its
               # order, (-0.6*q)*z, which rounds unlike (-0.6*z)*q
               ("z-after-q", _canonical(1, ["q", "p"], "p^2/2 + 3*z*q^2/10", {"z": 1.7}),
                (1.0, 0.25)),
               # cos(q) is stored in the first component; the second's tan(q)
               # reads it for its pole test and quotient
               ("cos-before-tan", _canonical(1, ["q", "p"], "p^2/2 + p*cos(q) + tan(q)/4"),
                (0.3, 0.2)),
               # the fourth component is -5/2*p1^2*q2^2 - 5/2*p1^2*q2 - 5/2*p1^2 - q2:
               # its first three terms share the product -2.5*p1**2
               ("shared-prefix", _canonical(2, ["q1", "q2", "p1", "p2"],
                                            "p2^2/2 + q2^2/2 + p1^2/2"
                                            " + 5*p1^2*(q2^3/3 + q2^2/2 + q2)/2"),
                (0.1, 0.2, 0.3, -0.1)),
               # every state is finite, but its coordinates' sum overflows:
               # the run goes on past the sum to the exact finiteness test
               ("sum-overflow", _canonical(2, ["q1", "q2", "p1", "p2"], "p1 + p2"),
                (0.0, -0.0, 1.7e308, 1.7e308)),
               # p2 is cyclic, so its component is 0.0, and it starts at -0.0:
               # its first update is -0.0 + 0.0 = 0.0, and q2 reads -0.0
               # at the first stage
               ("cyclic-minus-zero", _canonical(2, ["q1", "q2", "p1", "p2"],
                                                "p1^2/2 + p2^2/2 + cos(q1)"),
                (0.5, -0.0, 0.2, -0.0))]
    for name, system, x0 in systems:
        traj = integrate(system, x0, steps * dt, dt, method)
        want, diagnostic = _oracle(system, x0, steps, dt, method)
        assert not traj.truncated and diagnostic == "", name
        assert _same_bits(traj.states, want), name
        if method == "implicit_midpoint":
            # the stages started from Euler's guess reach the same fixed points
            euler, diagnostic = _oracle(system, x0, steps, dt, method, euler=True)
            assert diagnostic == "" and np.max(np.abs(traj.states - euler)) <= 1e-10, name


FAULT_CASES = {
    # (system, x0, steps, dt, the diagnostic of each method)
    # the force field contains sqrt(2 - q1); the run crosses q1 = 2
    "sqrt-domain": (
        lambda: _canonical(1, ["q1", "p1"], "p1^2/2 + sqrt(2 - q1)", domain={"q1": (0.0, 1.9)}),
        (1.5, 1.0), 500, 1e-2,
        {"rk4": "stopped at t = 0.42: fractional power of a negative value in "
                "subexpression: -q1 + 2",
         "implicit_midpoint": "stopped at t = 0.43: fractional power of a negative value in "
                              "subexpression: -q1 + 2"}),
    # q1 moves at unit speed onto the pole of tan(q1), as the pendulum's
    # p_phi^2*tan(theta) terms would at theta = pi/2
    "tan-pole": (
        lambda: _canonical(2, ["q1", "q2", "p1", "p2"], "p1 + tan(q1)*p2^2 + p2"),
        (math.pi / 2 - 5.5e-2, 0.0, 0.0, 0.3), 20, 1e-2,
        dict.fromkeys(METHODS, "stopped at t = 0.06: tangent pole in subexpression: tan(q1)")),
    # exp(q1) overflows inside the second component while p2 = 0 keeps the
    # state finite: the fault names that component, not the whole field
    "exp-overflow": (
        lambda: _canonical(2, ["q1", "q2", "p1", "p2"], "p1 + p2^2*exp(q1)/2"),
        (709.7, 0.0, 0.0, 0.0), 20, 1e-2,
        dict.fromkeys(METHODS, "stopped at t = 0.09: float overflow in subexpression: "
                               "p2*exp(q1)")),
    # the quartic well stiffens with |q|: the fixed-point iteration diverges
    "stiff-quartic": (
        lambda: _canonical(1, ["q", "p"], "p^2/2 + q^4/4"),
        (0.0, 10.0), 30, 0.2,
        {"rk4": "",
         "implicit_midpoint": "stopped at t = 0.6: implicit midpoint stage did not converge "
                              "within 50 iterations"}),
    # a constant force of 1e307 pushes p past the float range at the 18th
    # step, with no domain fault: + overflows to inf silently.  The midpoint
    # stage's update of p is inf there, which never converges (inf - inf is
    # NaN) and repeats the inf iterate it came from, so the stage stops with
    # that non-finite iterate, which is the stop reported
    "force-overflow": (
        lambda: _canonical(1, ["q", "p"], "p - 1e307*q"),
        (0.0, 0.0), 30, 1.0,
        dict.fromkeys(METHODS, "stopped at t = 18: state left the finite range")),
    # the same with q and p swapped: the inf update is now the first
    # component's, and the stop is the same
    "force-overflow-mirrored": (
        lambda: _canonical(1, ["q", "p"], "1e307*p - q"),
        (0.0, 0.0), 30, 1.0,
        dict.fromkeys(METHODS, "stopped at t = 18: state left the finite range")),
    # the same push on q, whose slope 1e307 + 2*q*p is NaN where q is inf
    # (inf*0.0).  The midpoint's x + y overflows first, at the 10th step:
    # the stage's update is NaN there, and the next update repeats it
    "force-overflow-nan": (
        lambda: _canonical(1, ["q", "p"], "1e307*p + q*p^2"),
        (0.0, 0.0), 30, 1.0,
        {"rk4": "stopped at t = 18: state left the finite range",
         "implicit_midpoint": "stopped at t = 10: state left the finite range"}),
    # p1 grows as exp(t) until p1**2 overflows, inside the product -B*p1**2
    # that the fourth component's two terms share
    "shared-prefix-overflow": (
        lambda: _canonical(2, ["q1", "q2", "p1", "p2"], "p2 - q1*p1 + B*p1^2*(q2^2/2 + q2)",
                           {"B": 1e-300}),
        (0.0, 0.1, 1.2e154, 0.0), 30, 1e-2,
        dict.fromkeys(METHODS, "stopped at t = 0.12: float overflow in subexpression: "
                               "-B*p1^2*q2 - B*p1^2")),
    # the second component stores cos(q1); the third's tan(q1) reaches its
    # pole on that stored cosine and raises the guard's fault
    "tan-pole-after-cos": (
        lambda: _canonical(2, ["q1", "q2", "p1", "p2"], "p1 + p2*cos(q1) + tan(q1)*q2^2"),
        (math.pi / 2 - 5.5e-2, 0.3, 0.0, 0.0), 20, 1e-2,
        dict.fromkeys(METHODS, "stopped at t = 0.06: tangent pole in subexpression: tan(q1)")),
    # B^2 overflows, in the state-free prefix of the second component's -B^2*q
    "prefix-overflow": (
        lambda: _canonical(1, ["q", "p"], "p^2/2 + B^2*q^2/2", {"B": 1e200}),
        (0.5, 0.0), 10, 1e-2,
        dict.fromkeys(METHODS, "stopped at t = 0.01: float overflow in subexpression: -B^2*q")),
    # the same overflow behind a division by zero in the first component:
    # the first component's fault is the one reported
    "guard-before-prefix-overflow": (
        lambda: _canonical(1, ["q", "p"], "p/q + B^2*q^2/2", {"B": 1e200}),
        (0.0, 1.0), 10, 1e-2,
        dict.fromkeys(METHODS, "stopped at t = 0.01: division by zero in subexpression: "
                               "1/(q)")),
}


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
@pytest.mark.parametrize("method", METHODS)
def test_generated_step_faults_as_the_list_loops(case, method):
    build, x0, steps, dt, diagnostics = FAULT_CASES[case]
    system = build()
    traj = integrate(system, x0, steps * dt, dt, method)
    want, diagnostic = _oracle(system, x0, steps, dt, method)
    assert traj.diagnostic == diagnostic == diagnostics[method]
    assert traj.truncated == bool(diagnostic)
    assert len(traj.states) == len(traj.times) == len(want)
    assert _same_bits(traj.states, want)


def test_step_function_is_built_once_per_system_and_method(monkeypatch):
    built = []
    compile_numeric = symexpr.compile_numeric

    def counting(exprs, space, source):
        built.append(source)
        return compile_numeric(exprs, space, source)

    monkeypatch.setattr(symexpr, "compile_numeric", counting)
    system = _canonical(1, ["q", "p"], "p^2/2 + k*q^2/2", {"k": 2.0})
    x0 = (1.0, 0.0)
    for method in METHODS:
        first = integrate(system, x0, 1.0, 1e-2, method)
        assert built == [_RUNS[method]]
        built.clear()
        again = integrate(system, x0, 1.0, 1e-2, method)
        assert built == []
        assert _same_bits(first.states, again.states)


def test_generated_run_takes_no_parameter_power():
    # -k^2*q is one constant times q: the compiler folds -1.0*(1.3)**2, so a
    # run takes no power of k, however many steps it takes
    counting = _canonical(1, ["q", "p"], "p^2/2 + k^2*q^2/2", {"k": CountingFloat(1.3)})
    plain = _canonical(1, ["q", "p"], "p^2/2 + k^2*q^2/2", {"k": 1.3})
    for method in METHODS:
        for steps in (10, 100):
            CountingFloat.powers = 0
            traj = integrate(counting, (1.0, 0.0), steps * 1e-2, 1e-2, method)
            assert CountingFloat.powers == 0
            want = integrate(plain, (1.0, 0.0), steps * 1e-2, 1e-2, method)
            assert _same_bits(traj.states, want.states)


def test_generated_pendulum_step_evaluates_tan_once_per_stage(monkeypatch):
    # tan(theta) appears in two components of the pendulum's X_h, three
    # times in all, and cos(theta) in one.  Each stage takes one math.cos and
    # one math.sin of theta, and tan(theta) is their quotient: the guard
    # _tan runs only at the pole.  The cosines count the field evaluations:
    # RK4's stages, the implicit midpoint's priming and its iterations.
    sf, system = _build("pendulum.sys")  # a fresh space: runs are cached on it
    counts = {}
    for method in METHODS:
        run = system.space.compile(system.x_h.components, _RUNS[method])
        calls = []
        tan, cos, sin = run.__globals__["_tan"], math.cos, math.sin
        monkeypatch.setitem(run.__globals__, "_tan",
                            lambda v, a: calls.append("tan") or tan(v, a))
        monkeypatch.setitem(run.__globals__, "_cos", lambda v: calls.append("cos") or cos(v))
        monkeypatch.setitem(run.__globals__, "_sin", lambda v: calls.append("sin") or sin(v))
        out = array("d")
        assert run([0.3, 0.05, -0.02, 0.5], 1e-3, 1, out) is None
        assert len(out) == 4  # one step, one state stored
        counts[method] = (calls.count("tan"), calls.count("cos"), calls.count("sin"))
        # at the pole the guard raises its fault, with the same text
        with pytest.raises(EvalDomainError, match=r"^tangent pole in subexpression: tan\(theta\)$"):
            run([math.pi / 2, 0.05, -0.02, 0.5], 1e-3, 1, array("d"))
        assert calls.count("tan") == counts[method][0] + 1
    assert counts["rk4"] == (0, 4, 4)
    tan_calls, stages, sines = counts["implicit_midpoint"]
    assert tan_calls == 0 and sines == stages >= 2


def test_generated_midpoint_run_evaluates_the_field_about_once_per_step(monkeypatch):
    # The run evaluates f(x0) once and then only at midpoints.  Each stage
    # starts from the slopes of the last three steps, extrapolated, so that
    # at dt 2.5e-4 nearly every stage converges at its first iteration (the
    # Euler guess took 3.55 evaluations per step here).  The first stage
    # starts from Euler's guess: one step is the priming plus its three
    # iterations, the evaluations the Euler guess and its iterations took.
    # One cosine of theta is taken per field evaluation.
    sf, system = _build("pendulum.sys")
    run = system.space.compile(system.x_h.components, _RUNS["implicit_midpoint"])
    calls = []
    monkeypatch.setitem(run.__globals__, "_cos", lambda v: calls.append(v) or math.cos(v))
    assert run([0.3, 0.05, -0.02, 0.5], 2.5e-4, 400, array("d")) is None
    assert len(calls) <= 1 + 1.05 * 400
    calls.clear()
    assert run([0.3, 0.05, -0.02, 0.5], 2.5e-4, 1, array("d")) is None
    assert len(calls) == 1 + 3


@pytest.mark.parametrize("case, failing", [("force-overflow", 18),
                                           ("force-overflow-mirrored", 18),
                                           ("force-overflow-nan", 10)])
def test_a_midpoint_stage_stops_when_its_non_finite_update_repeats(case, failing):
    # The slopes are constant while the state is finite, so each finite
    # step takes one evaluation.  The failing stage's update goes inf or NaN
    # and repeats the iterate it came from, at once or one update later.
    # Every further iteration would repeat it too, so the stage stops there
    # with the diagnostic the 50 iterations would end with.
    build, x0, _, dt, _ = FAULT_CASES[case]
    system = build()
    run = symexpr.compile_numeric(
        system.x_h.components, system.space,
        lambda codes: _RUNS["implicit_midpoint"]([f"_count({c})" for c in codes]))
    calls = []
    run.__globals__["_count"] = lambda v: calls.append(v) or v
    evaluations = []
    for steps in (failing - 1, failing):
        calls.clear()
        stop = run(x0, dt, steps, array("d"))
        evaluations.append(len(calls) // len(x0))
    assert stop == "state left the finite range"
    assert evaluations[0] == 1 + (failing - 1)
    assert evaluations[1] - evaluations[0] <= 3


# -- drift: one numpy call per quantity, faults replayed on the scalar path ---


def _terms_scale(e, space, states):
    """Sum over e's terms of |term| at each state: the scale at which a sum's
    roundoff is measured (its value may be far smaller, by cancellation)."""
    scale, sn = 0.0, symexpr._read_scales(e)[0]
    for m, c in e.num.items():
        term = symexpr.interpret(symexpr._make({m: c}, symexpr._UNIT, *sn), space)
        scale = scale + np.abs([term(x) for x in states.tolist()])
    return scale


def _seeded_quantity(rng, space, k):
    """A random polynomial with sin and cos factors; every second one gains a
    tan term, and every third is multiplied by a fractional power."""
    coords = space.coords
    e = random_poly(rng, space, degree=3, terms=4, trig=True)
    if k % 2:
        angle = symexpr.symbol(rng.choice(coords[: space.n])) / 3
        e = e + random_poly(rng, space, degree=1, terms=2) * symexpr.func("tan", angle)
    if k % 3 == 2:
        base = parse(f"2 + {coords[0]}^2 + {coords[-1]}^2", space)
        e = e * symexpr.pow_(base, Fraction(rng.choice((1, 3, 5)), rng.choice((2, 3))))
    return e


@pytest.mark.parametrize("method", METHODS)
def test_batch_values_agree_with_the_scalar_walk(pendulum, aniso, iso, method, monkeypatch):
    # numpy's sin, cos, exp and power and the math module's may round
    # differently in the last place.  Counted at the scale of the terms, the
    # energies stay within 2 ulp of the scalar walk; a seeded term may
    # multiply tan (a quotient of two of them) by a fractional power, and
    # stays within 4.  The printed reports are equal.
    cases, reports = [], []
    for (sf, system), x0 in ((pendulum, (0.3, 0.05, -0.02, 0.5)),
                             (aniso, (1.0, 0.5, -0.3, 0.8)), (iso, (1.0, 0.5, -0.3, 0.8))):
        space = sf.space
        traj = integrate(system, x0, 2.0, 1e-2, method)
        rng = random.Random(f"{sf.name}:{method}")
        quantities = [(system.h, 2.0)] + [(_seeded_quantity(rng, space, k), 4.0)
                                          for k in range(24)]
        for e, ulp_limit in quantities:
            values = batch_values(e, space, traj.states)
            scalar = symexpr.interpret(e, space)
            want = np.array([scalar(x) for x in traj.states.tolist()])
            assert values is not None and values.shape == want.shape, str(e)
            ulps = np.abs(values - want) / np.spacing(_terms_scale(e, space, traj.states))
            assert ulps.max() <= ulp_limit, str(e)
            cases.append((e, traj, space))
            reports.append(check_conserved(e, traj, space).describe())
    # the same reports from the scalar row loop alone
    monkeypatch.setattr(verify, "batch_values", lambda e, space, states: None)
    assert [check_conserved(*case).describe() for case in cases] == reports


def _free_particle():
    """h = p^2/2 from (0, 1) in steps of 0.25: q runs exactly through 0, 0.25, ..., 2."""
    space = PhaseSpace(1, ["q", "p"])
    traj = integrate(make_system(space, "canonical", parse("p^2/2", space)),
                     (0.0, 1.0), 2.0, 0.25, "rk4")
    assert traj.states[:, 0].tolist() == [0.25 * k for k in range(9)]
    return space, traj


# (quantity, the DriftReport.error of the scalar row loop), one per fault
# class, each faulting at some state of _free_particle's trajectory
DRIFT_FAULTS = [
    ("1/(q - 1)", "division by zero in subexpression: 1/(q - 1)"),
    ("tan(1.5707963267948966*q)",
     "tangent pole in subexpression: tan(7853981633974483/5000000000000000*q)"),
    ("ln(1 - q)", "logarithm of a nonpositive value in subexpression: ln(-q + 1)"),
    ("(1 - q)^(1/2)", "fractional power of a negative value in subexpression: -q + 1"),
    ("exp(800*q)", "float overflow in subexpression: exp(800*q)"),
    ("q^1100", "float overflow in subexpression: q^1100"),
    ("sin(1e308*q^2)", "math domain error in subexpression: sin(1" + "0" * 52 + "..."),
]


@pytest.mark.parametrize("quantity, message", DRIFT_FAULTS,
                         ids=["division", "tan-pole", "ln", "fractional-power",
                              "exp-overflow", "power-overflow", "sin-of-inf"])
def test_drift_fault_is_replayed_on_the_scalar_path(quantity, message):
    space, traj = _free_particle()
    e = parse(quantity, space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's floating-point warnings included
        assert batch_values(e, space, traj.states) is None
        rep = check_conserved(e, traj, space)
        assert batch_values(e, space, traj.states[1:3]) is not None  # q = 0.25 and 0.5 are fine
    assert rep.error == message
    assert rep.describe() == f"{e}: evaluation error: {message}"


@pytest.mark.parametrize("quantity, message", [
    ("sqrt(-2)*q", "fractional power of a negative value in subexpression: -2"),
    ("sqrt(M)*q", "fractional power of a negative value in subexpression: M"),
    ("q/Z", "division by zero in subexpression: q/(Z)"),
    ("ln(Z)*q", "logarithm of a nonpositive value in subexpression: ln(Z)"),
    ("exp(-B*C/q)", "division by zero in subexpression: (-B*C)/(q)"),
], ids=["constant-fractional-power", "fractional-power", "division", "ln",
         "overflowing-product"])
def test_drift_fault_of_a_constant_operand_is_replayed_on_the_scalar_path(quantity, message):
    # the faulting operand is a constant or a parameter, not a column:
    # numpy still raises, where a plain ** of -2.0 gives a complex number.
    # B*C overflows: as Python floats it would be an unflagged -inf, and
    # -inf/0 an unflagged -inf whose exp is a finite 0 at q = 0.
    _, traj = _free_particle()
    space = PhaseSpace(1, ["q", "p"], {"M": -1.0, "Z": 0.0, "B": 1e200, "C": 1e200})
    # the parser rejects a divisor that vanishes at the declared values, so
    # q/Z is built by the operators
    e = symexpr.symbol("q") / symexpr.symbol("Z") if quantity == "q/Z" else parse(quantity, space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert batch_values(e, space, traj.states) is None
        rep = check_conserved(e, traj, space)
    assert rep.describe() == f"{e}: evaluation error: {message}"


def test_drift_of_a_quantity_without_faults_builds_no_code(built_code):
    space, traj = _free_particle()
    built_code.clear()  # the integrator's step
    e = parse("p^2/2 + tan(q/3) + ln(2 + q) + (1 + q^2)^(3/2)/(2 - q/4)", space)
    rep = check_conserved(e, traj, space)
    assert rep.error is None and rep.samples == 9
    assert built_code == []


def test_drift_of_a_constant_quantity_is_zero():
    space, traj = _free_particle()
    rep = check_conserved(parse("3", space), traj, space)
    assert (rep.max_abs_drift, rep.initial_value, rep.samples) == (0.0, 3.0, 9)


def test_nan_samples_fail_the_drift_check():
    # inf - inf = nan on part of the saddle's run; Python's max skipped the
    # NaNs and passed the check, numpy's propagates them
    space = PhaseSpace(1, ["q", "p"])
    traj = integrate(make_system(space, "canonical", parse("p^2/2 - q^2/2", space)),
                     (1.0, 0.0), 12.0, 0.01, "rk4")
    e = parse("1e300*p^2 - 1e300*q^2", space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_conserved(e, traj, space)
    assert rep.error is None and rep.samples == 1201
    assert math.isnan(rep.max_abs_drift)
    assert not rep.passed(1e-6)


def test_symmetry_residual_overflow_at_the_end_state_is_a_domain_fault():
    # the flow from the end state runs on Python floats: q^300 overflows
    # with an EvalDomainError, not a numpy RuntimeWarning and an inf
    space = PhaseSpace(1, ["q", "p"])
    system = make_system(space, "canonical", parse("p^2/2 - q^2/2", space))
    y = VectorField(space, (parse("q^300", space), symexpr.ZERO))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalDomainError, match=r"^float overflow in subexpression: q\^300$"):
            check_symmetry_numeric(y, system, (1.0, 1.0), t_final=10.0, dt=1e-2)


def test_verify_builds_only_float_loops(tmp_path, capsys, monkeypatch):
    # every build is an integrator step or a quadrature integrand; the flow
    # field, the drift check and its replay walk their expressions.  Fresh
    # systems, so that no build cached on a shared space hides one.
    sources = []
    compile_numeric = symexpr.compile_numeric

    def recording(exprs, space, source=None):
        sources.append(source)
        return compile_numeric(exprs, space, source)

    monkeypatch.setattr(symexpr, "compile_numeric", recording)
    for name, text in BUNDLED_EXAMPLES.items():
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["verify", str(path)]) == 0
    sf, system = _build("pendulum.sys")
    y, x0 = candidate_named(sf, "Y_rot").field, (0.3, 0.0, 0.0, 0.5)
    for method in METHODS:
        assert check_symmetry_numeric(y, system, x0, t_final=0.1, dt=1e-2, method=method) < 1e-2
    space, traj = _free_particle()
    assert check_conserved(parse("1/(q - 1)", space), traj, space).error is not None
    potential = poincare_potential(exterior_derivative(scalar_form(sf.space, system.h)))
    assert isinstance(potential, NumericPotential)
    traj = integrate(system, x0, 0.05, 1e-2)
    assert check_conserved(potential, traj, sf.space).max_rel_drift < 1e-6
    assert sources and None not in sources
    assert set(sources) == {verify._rk4_source, verify._midpoint_source,
                            hamiltonian._integrand_source}
