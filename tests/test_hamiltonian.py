import math
import random
from fractions import Fraction

import pytest

from hamsym import symexpr
from hamsym.exterior import (
    KForm,
    exterior_derivative,
    interior_product,
    lie_derivative_form,
    lie_scalar,
    scalar_form,
)
from hamsym.hamiltonian import (
    DegenerateError,
    NotClosedError,
    NumericPotential,
    cotangent_lift,
    hamilton_equations,
    is_bihamiltonian_pair,
    liouville_form,
    make_symplectic,
    make_system,
    poincare_potential,
)
from hamsym.symexpr import PhaseSpace, parse

from conftest import candidate_named
from genutil import random_poly


def test_pendulum_field_matches_closed_form(pendulum):
    sf, system = pendulum
    sp = sf.space
    expected = [
        parse("p_theta", sp),
        parse("p_phi*(1+tan(theta)^2)", sp),
        parse("-(p_phi^2*tan(theta)*(1+tan(theta)^2) + Omega^2*cos(theta))", sp),
        symexpr.ZERO,
    ]
    for comp, want in zip(system.x_h.components, expected):
        assert (comp - want).is_zero_expr


def test_iso_field_matches_closed_form(iso):
    sf, system = iso
    sp = sf.space
    expected = [parse(t, sp) for t in
                ("p1", "p2", "-Omega^2*q1", "-Omega^2*q2")]
    assert list(system.x_h.components) == expected


def test_zero_hamiltonian_gives_zero_field():
    sp = PhaseSpace(1, ["q", "p"])
    system = make_system(sp, "canonical", symexpr.ZERO)
    assert system.x_h.is_zero_field


def test_hamilton_equations_pattern(aniso):
    sf, system = aniso
    sp = sf.space
    eqs = dict(hamilton_equations(system))
    for i, (q, p, om) in enumerate((("q1", "p1", "Omega1"), ("q2", "p2", "Omega2"))):
        assert eqs[q] == parse(p, sp)
        assert eqs[p] == parse(f"-{om}^2*{q}", sp)


def test_hamilton_equations_free_particle():
    sp = PhaseSpace(1, ["q1", "p1"])
    system = make_system(sp, "canonical", symexpr.symbol("p1"))
    eqs = dict(hamilton_equations(system))
    assert eqs["q1"] == symexpr.ONE
    assert eqs["p1"].is_zero_expr


def test_system_identities_hold(pendulum, iso, aniso):
    for sf, system in (pendulum, iso, aniso):
        dh = KForm(system.space, 1,
                   {(i,): g for i, g in enumerate(system.gradient(system.h))})
        residual = interior_product(system.x_h, system.omega_form) - dh
        assert all(e.is_zero_expr for e in residual.coeffs.values())
        assert lie_scalar(system.x_h, system.h).is_zero_expr
        assert lie_derivative_form(system.x_h, system.omega_form).is_zero_form


def test_noncanonical_symplectic_solve():
    sp = PhaseSpace(1, ["q", "p"])
    omega = make_symplectic(sp, [(symexpr.rational(2), 0, 1)])
    h = parse("(p^2 + q^2)/2", sp)
    system = make_system(sp, omega, h)
    # i(X)(2 dq^dp) = dh  =>  X = (p/2) d/dq - (q/2) d/dp
    assert system.x_h.components == (parse("p/2", sp), parse("-q/2", sp))


def test_noncanonical_coupled_solve():
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    terms = [
        (symexpr.ONE, 0, 2),
        (symexpr.ONE, 1, 3),
        (symexpr.ONE, 0, 3),  # coupling dq1^dp2
    ]
    omega = make_symplectic(sp, terms)
    h = parse("(p1^2 + p2^2 + q1^2 + q2^2)/2", sp)
    system = make_system(sp, omega, h)
    dh = KForm(sp, 1, {(i,): g for i, g in enumerate(system.gradient(h))})
    residual = interior_product(system.x_h, omega.form) - dh
    assert all(e.is_zero_expr for e in residual.coeffs.values())


def test_degenerate_symplectic_rejected():
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    with pytest.raises(DegenerateError):
        make_symplectic(sp, [(symexpr.ONE, 0, 1)])  # dq1^dq2 alone


def test_nonclosed_symplectic_rejected():
    # on a 2-dof space a coordinate-dependent block coefficient breaks closedness
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    terms = [(symexpr.ONE, 0, 2), (parse("q1", sp), 1, 3)]
    with pytest.raises(NotClosedError):
        make_symplectic(sp, terms)


# -- cotangent lifts ----------------------------------------------------------

def test_lift_constant_field(pendulum):
    sf, _ = pendulum
    sp = sf.space
    lift = cotangent_lift(sp, [symexpr.ZERO, symexpr.ONE])
    assert lift.components == (symexpr.ZERO, symexpr.ONE, symexpr.ZERO, symexpr.ZERO)


def test_lift_linear_fields(iso):
    sf, _ = iso
    sp = sf.space
    lift = cotangent_lift(sp, [symexpr.symbol("q1"), symexpr.ZERO])
    assert lift.components == (symexpr.symbol("q1"), symexpr.ZERO,
                               -symexpr.symbol("p1"), symexpr.ZERO)
    lift2 = cotangent_lift(sp, [symexpr.symbol("q2"), symexpr.ZERO])
    assert lift2.components == (symexpr.symbol("q2"), symexpr.ZERO,
                                symexpr.ZERO, -symexpr.symbol("p1"))


def test_lift_preserves_canonical_one_form(iso):
    sf, system = iso
    sp = sf.space
    rng = random.Random(67)
    theta = liouville_form(sp)
    for _ in range(10):
        base = [random_poly(rng, sp, degree=2), random_poly(rng, sp, degree=2)]
        base = [symexpr.substitute(z, {"p1": symexpr.ZERO, "p2": symexpr.ZERO})
                for z in base]
        lift = cotangent_lift(sp, base)
        lt = lie_derivative_form(lift, theta)
        assert all(e.is_zero_expr for e in lt.coeffs.values())
        # hence lifts are geometric symmetries
        lw = lie_derivative_form(lift, system.omega_form)
        assert all(e.is_zero_expr for e in lw.coeffs.values())


def test_lift_rejects_momentum_dependence(iso):
    sf, _ = iso
    with pytest.raises(symexpr.ExprError):
        cotangent_lift(sf.space, [symexpr.symbol("p1"), symexpr.ZERO])


# -- potentials ---------------------------------------------------------------

def test_potential_of_constant_form(pendulum):
    sf, system = pendulum
    sp = sf.space
    alpha = KForm(sp, 1, {(3,): symexpr.ONE})  # dp_phi
    f = poincare_potential(alpha)
    assert f == symexpr.symbol("p_phi")


def test_potential_round_trip_exact(iso):
    sf, system = iso
    sp = sf.space
    f = poincare_potential(exterior_derivative(scalar_form(sp, system.h)))
    assert (f - system.h).is_zero_expr  # h vanishes at the origin already


def test_potential_cross_terms(iso):
    sf, _ = iso
    sp = sf.space
    alpha = KForm(sp, 1, {
        (0,): symexpr.symbol("p2"),
        (1,): symexpr.symbol("p1"),
        (2,): symexpr.symbol("q2"),
        (3,): symexpr.symbol("q1"),
    })
    f = poincare_potential(alpha)
    assert f == parse("q1*p2 + q2*p1", sp)
    df = exterior_derivative(scalar_form(sp, f))
    assert all(e.is_zero_expr for e in (df - alpha).coeffs.values())


def test_potential_rejects_nonclosed(iso):
    sf, _ = iso
    sp = sf.space
    alpha = KForm(sp, 1, {(0,): symexpr.symbol("p1")})  # p1 dq1, not closed
    with pytest.raises(NotClosedError):
        poincare_potential(alpha)


def test_potential_numeric_fallback():
    sp = PhaseSpace(1, ["q", "p"])
    alpha = KForm(sp, 1, {(0,): parse("cos(q)/(2 + sin(q))", sp)})
    pot = poincare_potential(alpha)
    assert isinstance(pot, NumericPotential)
    for qv in (-0.8, 0.1, 0.9):
        want = math.log(2 + math.sin(qv)) - math.log(2.0)
        assert pot.evaluate((qv, 0.0)) == pytest.approx(want, abs=1e-9)
    # gradient check by finite differences
    step = 1e-6
    for qv in (-0.5, 0.4):
        fd = (pot.evaluate((qv + step, 0.0)) - pot.evaluate((qv - step, 0.0))) / (2 * step)
        want = math.cos(qv) / (2 + math.sin(qv))
        assert fd == pytest.approx(want, rel=1e-5)


def test_pendulum_energy_potential_is_numeric(pendulum):
    sf, system = pendulum
    dh = exterior_derivative(scalar_form(sf.space, system.h))
    pot = poincare_potential(dh)
    assert isinstance(pot, NumericPotential)
    fn = sf.space.compile(system.h)
    base = tuple((sf.space.box(c)[0] + sf.space.box(c)[1]) / 2 for c in sf.space.coords)
    h0 = fn(base)
    for point in ((0.3, 0.2, 0.1, 0.5), (-0.4, 1.0, 0.0, 0.2)):
        assert pot.evaluate(point) == pytest.approx(fn(point) - h0, abs=1e-8)


def test_potential_nonzero_base(pendulum):
    sf, _ = pendulum
    sp = sf.space
    alpha = KForm(sp, 1, {(3,): symexpr.ONE})
    f = poincare_potential(alpha, base=(0, Fraction(1, 2), 0, Fraction(1, 4)))
    assert f == parse("p_phi - 1/4", sp)


# -- second Hamiltonian pairs --------------------------------------------------

def test_bihamiltonian_pair_accepts_iso_pair(iso, probes):
    sf, system = iso
    y = candidate_named(sf, "Y").field
    omega2 = lie_derivative_form(y, system.omega_form)
    lyh = lie_scalar(y, system.h)
    alpha2 = KForm(sf.space, 1,
                   {(i,): g for i, g in enumerate(system.gradient(lyh))})
    check = is_bihamiltonian_pair(system, omega2, alpha2, probes)
    assert check.is_pair


def test_bihamiltonian_pair_requires_distinctness(iso, probes):
    sf, system = iso
    dh = KForm(sf.space, 1,
               {(i,): g for i, g in enumerate(system.gradient(system.h))})
    check = is_bihamiltonian_pair(system, system.omega_form, dh, probes)
    assert not check.is_pair
    assert not check.omega2_distinct
    assert not check.alpha2_distinct


def test_bihamiltonian_pair_requires_closedness(iso, probes):
    sf, system = iso
    sp = sf.space
    omega2 = KForm(sp, 2, {(0, 1): parse("q1*p1", sp)})
    alpha2 = KForm(sp, 1, {(0,): symexpr.ONE})
    check = is_bihamiltonian_pair(system, omega2, alpha2, probes)
    assert not check.is_pair
    assert not check.omega2_closed.is_zero
