import random

import pytest

from hamsym import symexpr
from hamsym.exterior import (
    KForm,
    SpaceMismatchError,
    VectorField,
    exterior_derivative,
    form_is_zero,
    form_to_string,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    scalar_form,
    wedge,
)
from hamsym.symexpr import ProbeConfig, parse

from genutil import random_field, random_form, random_poly, small_space


@pytest.fixture(scope="module")
def space():
    return small_space(2)


def canonical(space):
    n = space.n
    return KForm(space, 2, {(i, n + i): symexpr.ONE for i in range(n)})


def basis_covector(space, name):
    return KForm(space, 1, {(space.coord_index(name),): symexpr.ONE})


def test_wedge_repeated_covector_vanishes(space):
    dq1 = basis_covector(space, "q1")
    dp1 = basis_covector(space, "p1")
    two = wedge(dq1, dp1)
    assert wedge(two, two).is_zero_form


def test_canonical_form_from_wedges(space):
    built = (wedge(basis_covector(space, "q1"), basis_covector(space, "p1"))
             + wedge(basis_covector(space, "q2"), basis_covector(space, "p2")))
    omega = canonical(space)
    assert (built.degree, built.coeffs) == (omega.degree, omega.coeffs)


def test_wedge_graded_antisymmetry_on_one_forms(space):
    rng = random.Random(31)
    for _ in range(30):
        a = random_form(rng, space, 1)
        b = random_form(rng, space, 1)
        assert (wedge(a, b) + wedge(b, a)).is_zero_form


def test_wedge_space_mismatch(space):
    other = small_space(2)
    with pytest.raises(SpaceMismatchError):
        wedge(basis_covector(space, "q1"), basis_covector(other, "q1"))


def test_exterior_derivative_of_momentum(space):
    d = exterior_derivative(scalar_form(space, symexpr.symbol("p1")))
    dp1 = basis_covector(space, "p1")
    assert (d.degree, d.coeffs) == (dp1.degree, dp1.coeffs)


def test_exterior_derivative_constant_coefficients(space):
    assert exterior_derivative(canonical(space)).is_zero_form


def test_exterior_derivative_components(space):
    h = parse("q1^2*p2 + sin(q2)", space)
    dh = exterior_derivative(scalar_form(space, h))
    for i, name in enumerate(space.coords):
        assert dh.coeff((i,)) == symexpr.differentiate(h, name)


def test_top_degree_derivative_is_zero(space):
    top = random_form(random.Random(5), space, 4)
    assert exterior_derivative(top).degree == 4
    assert exterior_derivative(top).is_zero_form


def test_interior_product_basic(space):
    y = VectorField(space, (symexpr.ZERO, symexpr.ONE, symexpr.ZERO, symexpr.ZERO))
    # i(d/dq2)(dq1^dp1 + dq2^dp2) = dp2
    got, dp2 = interior_product(y, canonical(space)), basis_covector(space, "p2")
    assert (got.degree, got.coeffs) == (dp2.degree, dp2.coeffs)


def test_interior_product_degree_zero_rejected(space):
    y = random_field(random.Random(3), space)
    with pytest.raises(symexpr.ExprError):
        interior_product(y, scalar_form(space, symexpr.ONE))


def test_double_contraction_vanishes(space):
    rng = random.Random(37)
    for _ in range(25):
        x = random_field(rng, space)
        a = random_form(rng, space, rng.choice((2, 3)))
        assert interior_product(x, interior_product(x, a)).is_zero_form


def test_interior_product_leibniz(space):
    rng = random.Random(41)
    cfg = ProbeConfig(count=24, seed=4)
    for _ in range(20):
        x = random_field(rng, space, degree=1)
        a = random_form(rng, space, 1, coeff_degree=1)
        b = random_form(rng, space, rng.choice((1, 2)), coeff_degree=1)
        lhs = interior_product(x, wedge(a, b))
        rhs = wedge(interior_product(x, a), b) + wedge(a, interior_product(x, b)).scale(
            symexpr.MINUS_ONE)
        assert form_is_zero(lhs - rhs, cfg).is_zero


def test_lie_derivative_zero_field(space):
    zero = VectorField(space, tuple([symexpr.ZERO] * 4))
    a = random_form(random.Random(2), space, 2)
    assert lie_derivative_form(zero, a).is_zero_form


def test_lie_derivative_scalar_is_contraction_of_differential(space):
    rng = random.Random(43)
    for _ in range(25):
        x = random_field(rng, space, trig=True)
        f = random_poly(rng, space, trig=True)
        via_lie = lie_derivative_form(x, scalar_form(space, f)).coeff(())
        via_d = interior_product(x, exterior_derivative(scalar_form(space, f))).coeff(())
        assert (via_lie - via_d).is_zero_expr


def test_lie_derivative_commutes_with_d(space):
    rng = random.Random(47)
    cfg = ProbeConfig(count=24, seed=8)
    for _ in range(20):
        x = random_field(rng, space, degree=1)
        a = random_form(rng, space, rng.choice((0, 1, 2)), coeff_degree=1)
        lhs = lie_derivative_form(x, exterior_derivative(a))
        rhs = exterior_derivative(lie_derivative_form(x, a))
        assert form_is_zero(lhs - rhs, cfg).is_zero


def test_lie_bracket_examples(space):
    dq1 = VectorField(space, (symexpr.ONE, symexpr.ZERO, symexpr.ZERO, symexpr.ZERO))
    q1dq2 = VectorField(space, (symexpr.ZERO, symexpr.symbol("q1"),
                                symexpr.ZERO, symexpr.ZERO))
    br = lie_bracket(dq1, q1dq2)
    assert br.components == (symexpr.ZERO, symexpr.ONE, symexpr.ZERO, symexpr.ZERO)


def test_lie_bracket_self_vanishes(space):
    rng = random.Random(53)
    for _ in range(20):
        x = random_field(rng, space, trig=True)
        assert lie_bracket(x, x).is_zero_field


def test_jacobi_identity(space):
    rng = random.Random(59)
    for _ in range(15):
        x = random_field(rng, space, degree=1)
        y = random_field(rng, space, degree=1)
        z = random_field(rng, space, degree=1)
        total = (lie_bracket(lie_bracket(x, y), z)
                 - lie_bracket(z, lie_bracket(y, x)))
        total = VectorField(space, tuple(
            a + b for a, b in zip(total.components,
                                  lie_bracket(lie_bracket(y, z), x).components)))
        # [[x,y],z] + [[y,z],x] + [[z,x],y] == 0
        jac = tuple(
            a + b + c for a, b, c in zip(
                lie_bracket(lie_bracket(x, y), z).components,
                lie_bracket(lie_bracket(y, z), x).components,
                lie_bracket(lie_bracket(z, x), y).components,
            ))
        assert all(comp.is_zero_expr for comp in jac)


def test_d_squared_zero_random(space):
    rng = random.Random(61)
    for _ in range(25):
        a = random_form(rng, space, rng.choice((0, 1, 2)), trig=True)
        dda = exterior_derivative(exterior_derivative(a))
        assert all(e.is_zero_expr for e in dda.coeffs.values())


def test_form_printer(space):
    two = KForm(space, 2, {
        (0, 3): symexpr.rational(2),
        (1, 2): symexpr.rational(2),
    })
    assert form_to_string(two) == "2*dq1^dp2 + 2*dq2^dp1"
    assert form_to_string(KForm(space, 2, {})) == "0"
