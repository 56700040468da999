import io
import math

import numpy as np
import pytest

from hamsym import symexpr
from hamsym.exterior import VectorField
from hamsym.hamiltonian import make_system
from hamsym.symexpr import PhaseSpace, parse
from hamsym.verify import (
    IntegrationError,
    check_conserved,
    check_symmetry_numeric,
    dump_trajectory,
    integrate,
)

from conftest import candidate_named


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
