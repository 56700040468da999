import math
import random
from fractions import Fraction

import pytest

from hamsym import hamiltonian as hamiltonian_module
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
    hamiltonian_field_for,
    is_bihamiltonian_pair,
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
    eqs = dict(zip(sp.coords, system.x_h.components))
    for i, (q, p, om) in enumerate((("q1", "p1", "Omega1"), ("q2", "p2", "Omega2"))):
        assert eqs[q] == parse(p, sp)
        assert eqs[p] == parse(f"-{om}^2*{q}", sp)


def test_hamilton_equations_free_particle():
    sp = PhaseSpace(1, ["q1", "p1"])
    system = make_system(sp, "canonical", symexpr.symbol("p1"))
    eqs = dict(zip(sp.coords, system.x_h.components))
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


# -- the Poisson matrix --------------------------------------------------------

@pytest.mark.parametrize("coords, terms", [
    (["q1", "q2", "p1", "p2"],
     [("1", 0, 2), ("1", 1, 3), ("q1", 0, 1), ("1 + q1^2", 0, 2), ("2", 2, 3)]),
    (["q", "p"], [("q^2 + 1", 0, 1)]),
], ids=["coupled", "weighted-plane"])
def test_field_of_solves_the_interior_product(coords, terms):
    # i(field_of(alpha))omega == alpha holds in the canonical form, for
    # 1-forms alpha with arbitrary polynomial coefficients
    sp = PhaseSpace(len(coords) // 2, coords)
    omega = make_symplectic(sp, [(parse(c, sp), i, j) for c, i, j in terms])
    rng = random.Random(5)
    for _ in range(5):
        alpha = KForm(sp, 1, {(k,): random_poly(rng, sp, degree=2)
                              for k in range(len(coords))})
        residual = interior_product(omega.field_of(
            [alpha.coeff((k,)) for k in range(len(coords))]), omega.form) - alpha
        assert all(e.is_zero_expr for e in residual.coeffs.values())


def test_degenerate_symplectic_names_the_pivot_column():
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    with pytest.raises(DegenerateError, match=r"no nonzero pivot in column 2 \(p1\)"):
        make_symplectic(sp, [(symexpr.ONE, 0, 1)])


def test_tiny_constant_symplectic_form_is_nondegenerate():
    # 1e-12 dq^dp is a nonzero constant form: its determinant, 1e-24, lies
    # below the probe tolerance, but the pivot is a rational constant
    sp = PhaseSpace(1, ["q", "p"])
    omega = make_symplectic(sp, [(parse("1e-12", sp), 0, 1)])
    system = make_system(sp, omega, parse("(p^2 + q^2)/2", sp))
    assert system.x_h.components == (parse("10^12*p", sp), parse("-10^12*q", sp))


_PIVOT_Q1 = [("q1", 0, 1), ("1", 0, 2), ("1", 1, 3), ("1", 2, 3)]  # Pfaffian q1 - 1


@pytest.mark.parametrize("coords, domain, terms, degenerate", [
    (["q", "p"], {"q": (-1.0, 1.0)}, [("q", 0, 1)], True),
    (["q", "p"], {"q": (0.5, 1.0)}, [("q", 0, 1)], False),
    (["q", "p"], {}, [("1 + q^2", 0, 1)], False),
    (["q1", "q2", "p1", "p2"], {"q1": (0.0, 2.0)}, _PIVOT_Q1, True),
    # the first pivot, q1, changes sign in the box, but omega does not vanish
    (["q1", "q2", "p1", "p2"], {"q1": (-1.0, 0.5)}, _PIVOT_Q1, False),
    # a tan or a denominator may change sign across a pole instead of a zero
    (["q", "p"], {"q": (-1.0, 1.0)}, [("tan(q)", 0, 1)], False),
    (["q", "p"], {"q": (-1.0, 1.0)}, [("1/q", 0, 1)], False),
    # an integer-linear argument is in the exact class, so it is probed
    (["q", "p"], {"q": (-1.0, 1.0)}, [("sin(2*q)", 0, 1)], True),
], ids=["q", "q-positive", "definite", "2-dof", "2-dof-pivot", "tan", "denominator",
        "sin-2q"])
def test_a_pfaffian_that_changes_sign_in_the_box_is_degenerate(coords, domain, terms,
                                                               degenerate):
    # omega^n is +-n! Pf(omega) times the volume form; a continuous Pfaffian
    # taking both signs at probe points vanishes in the connected box
    sp = PhaseSpace(len(coords) // 2, coords, domain=domain)
    spec = [(parse(c, sp), i, j) for c, i, j in terms]
    if degenerate:
        with pytest.raises(DegenerateError, match=f"omega\\^{sp.n} takes both signs"):
            make_symplectic(sp, spec)
    else:
        make_symplectic(sp, spec)


@pytest.mark.parametrize("fixture, f, expected", [
    ("pendulum", "p_phi", ["0", "1", "0", "0"]),
    ("pendulum", "p_theta^2/2 + p_phi^2*(1 + tan(theta)^2)/2 + Omega^2*(1 + sin(theta))",
     ["p_theta", "p_phi*tan(theta)^2 + p_phi",
      "-p_phi^2*tan(theta)^3 - p_phi^2*tan(theta) - Omega^2*cos(theta)", "0"]),
    ("iso", "(p1^2 + p2^2 + Omega^2*q1^2 + Omega^2*q2^2)/2",
     ["p1", "p2", "-Omega^2*q1", "-Omega^2*q2"]),
    ("iso", "(p1^2 + Omega^2*q1^2)/2", ["p1", "0", "-Omega^2*q1", "0"]),
    ("iso", "q1*p2 - q2*p1", ["-q2", "q1", "-p2", "p1"]),
    ("iso", "p1*p2 + Omega^2*q1*q2", ["p2", "p1", "-Omega^2*q2", "-Omega^2*q1"]),
], ids=["pendulum-p_phi", "pendulum-h", "iso-h", "iso-h1", "iso-L", "iso-K"])
def test_hamiltonian_field_for_invariants(request, probes, fixture, f, expected):
    # exact printed components: P df must keep the canonical form of each field
    sf, system = request.getfixturevalue(fixture)
    y = hamiltonian_field_for(system, parse(f, sf.space), probes)
    assert [str(c) for c in y.components] == expected


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


def test_potential_rejects_nonclosed(iso, monkeypatch):
    # the public function keeps its closedness check: one d(alpha), tested
    sf, _ = iso
    sp = sf.space
    alpha = KForm(sp, 1, {(0,): symexpr.symbol("p1")})  # p1 dq1, not closed
    derivatives = []

    def recording(a):
        derivatives.append(a)
        return exterior_derivative(a)

    monkeypatch.setattr(hamiltonian_module, "exterior_derivative", recording)
    with pytest.raises(NotClosedError):
        poincare_potential(alpha)
    assert derivatives == [alpha]


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
    fn = symexpr.interpret(system.h, sf.space)
    base = tuple((sf.space.box(c)[0] + sf.space.box(c)[1]) / 2 for c in sf.space.coords)
    h0 = fn(base)
    for point in ((0.3, 0.2, 0.1, 0.5), (-0.4, 1.0, 0.0, 0.2)):
        assert pot.evaluate(point) == pytest.approx(fn(point) - h0, abs=1e-8)


def test_numeric_potential_rejects_a_point_of_the_wrong_length(built_code):
    # one entry per coordinate, whether or not the integrand reads the
    # missing or extra one
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    point = (0.1, 0.2, 0.3, 0.4)
    for text, want in (("sin(q1)*p1", math.sin(0.1) * 0.3), ("sin(q1)*p2", math.sin(0.1) * 0.4)):
        pot = poincare_potential(exterior_derivative(scalar_form(sp, parse(text, sp))))
        assert isinstance(pot, NumericPotential)
        for bad in (point + (0.5,), point[:3]):
            with pytest.raises(symexpr.ExprError, match="point needs 4 entries, got"):
                pot.evaluate(bad)
        assert built_code == []  # the integrand compiles on the first evaluation
        assert pot.evaluate(point) == pytest.approx(want, abs=1e-9)
        assert len(built_code) == 1
        built_code.clear()


# coordinate-free coefficients: parameters, parameter quotients and atoms
POTENTIAL_COEFFS = ("1", "k", "1/(2*k + 1)", "k/(k^2 + 3)", "sin(k)", "exp(k)", "sqrt(k)",
                    "sqrt(k)*sin(k)")


@pytest.mark.parametrize("seed", range(8))
def test_polynomial_potential_is_f_minus_f_at_base(seed):
    rng = random.Random(f"potential:{seed}")
    domain = {"q1": (0.5, 2.0), "p1": (-3.0, 1.0), "q2": (-1.0, 1.0), "p2": (1.0, 1.5)}
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"], {"k": 0.75}, domain)
    base = tuple((Fraction(lo) + Fraction(hi)) / 2 for lo, hi in map(sp.box, sp.coords))
    for _ in range(6):
        f = symexpr.sum_(random_poly(rng, sp, degree=4, terms=4)
                         * parse(rng.choice(POTENTIAL_COEFFS), sp) for _ in range(3))
        pinned = f - symexpr.substitute(f, dict(zip(sp.coords, map(symexpr.rational, base))))
        pot = poincare_potential(exterior_derivative(scalar_form(sp, f)))
        assert isinstance(pot, symexpr.Expr)
        assert (pot - pinned).is_zero_expr, (f, pot)
        if f.den == symexpr.ONE.den:
            assert pot == pinned


@pytest.mark.parametrize("potential, numeric", [
    ("1/(2 + q1^2)", True),  # a coordinate in a denominator
    ("sin(q1)*p1", True),  # a function argument
    ("(2 + q2)^(3/2)", True),  # a root
    ("q2^(5/2)", True),  # a fractional power
    ("exp(q1 + p2)", True),
    ("sin(k)*q1 + sqrt(k)*q2^2 + exp(k)*p1*p2/(1 + k)", False),
    ("ln(k)*q1^3 + k^(1/3)*p1", False),
])
def test_potential_falls_back_exactly_where_the_form_is_not_polynomial(potential, numeric):
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"], {"k": 0.75}, {"q2": (0.5, 1.0)})
    f = parse(potential, sp)
    pot = poincare_potential(exterior_derivative(scalar_form(sp, f)))
    assert isinstance(pot, NumericPotential) == numeric
    if numeric:
        fn = symexpr.interpret(f, sp)
        base = tuple(sum(sp.box(c)) / 2 for c in sp.coords)
        point = (0.3, 0.8, -0.2, 0.4)
        assert pot.evaluate(point) == pytest.approx(fn(point) - fn(base), abs=1e-8)
    else:
        assert isinstance(pot, symexpr.Expr)
        assert (exterior_derivative(scalar_form(sp, pot))
                - exterior_derivative(scalar_form(sp, f))).coeffs == {}


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
