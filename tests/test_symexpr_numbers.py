"""The kernel's number rule and the lazily built structural key.

A canonical form holds int coefficients only: its denominator is
primitive (gcd 1) or the shared unit, and a one-term polynomial has
coefficient 1.  Every other rational, an exponent or the scale, is a plain
int when it is integral and a Fraction only when its denominator exceeds 1.
`Expr.key` is built on first use, which is sound only because no kernel
operation mutates the polynomials of its operands.
"""

import copy
import math
import random
from fractions import Fraction

import pytest

from hamsym import symexpr
from hamsym.symexpr import (
    FuncAtom,
    PowAtom,
    _poly_key,
    differentiate,
    integrate_radially,
    parse,
    pow_,
    substitute,
)

from genutil import random_coeff, random_poly, small_space

SPACE = small_space()
COORDS = SPACE.coords


def kernel_numbers(e):
    """Every scale and exponent of e, through function arguments and root
    bases, after checking the coefficients of each polynomial."""
    yield e.scale
    assert e.sd > 0 and math.gcd(e.sn, e.sd) == 1, e
    for poly in (e.num, e.den):
        assert all(type(c) is int for c in poly.values()), f"{poly!r} in {e}"
        if poly:
            assert poly is e.num or math.gcd(*poly.values()) == 1, e
            assert len(poly) > 1 or 1 in poly.values(), e
        for m, c in poly.items():
            factors = symexpr._factors(m)
            assert symexpr._pack(factors) == m, f"{m!r} is not in its one form in {e}"
            for a, x in factors:
                yield x
                if isinstance(a, FuncAtom):
                    yield from kernel_numbers(a.arg)
                elif isinstance(a, PowAtom):
                    yield from kernel_numbers(a.base)


def assert_kernel_numbers(e):
    for x in kernel_numbers(e):
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), \
            f"{x!r} ({type(x).__name__}) in {e}"


def operand(rng):
    """A polynomial, with a trig factor now and then, or a quotient."""
    p = random_poly(rng, SPACE, degree=2, terms=3, trig=True)
    d = random_poly(rng, SPACE, degree=1, terms=2) + symexpr.rational(3)
    return p / d if rng.random() < 0.4 and not d.is_zero_expr else p


def trig_rewrites(rng):
    """Inputs that exercise 1/cos^2 -> 1 + tan^2 and sin^2 + cos^2 -> 1."""
    u = symexpr.symbol(rng.choice(COORDS))
    r = random_coeff(rng) * symexpr.symbol(rng.choice(COORDS))
    sin2 = pow_(symexpr.func("sin", u), 2)
    cos2 = pow_(symexpr.func("cos", u), 2)
    return [
        symexpr.ONE / cos2,
        r / pow_(symexpr.func("cos", u), 3),
        r * sin2 + r * cos2,
        symexpr.sum_([r * sin2, random_coeff(rng), r * cos2]),
    ]


def kernel_results(rng, a, b):
    """Every kernel operation applied to the operands a and b."""
    out = [a + b, a - b, a * b, pow_(a, 2), pow_(a, 3), differentiate(a, rng.choice(COORDS)),
           substitute(a, {rng.choice(COORDS): b}),
           symexpr.sum_([a, b, a * b, symexpr.rational(Fraction(1, 3))])]
    if not b.is_zero_expr:
        out += [a / b, pow_(b, -1), pow_(b, -2)]
    if not a.is_zero_expr:
        out += [pow_(a, Fraction(1, 2)), pow_(a, Fraction(3, 2)), pow_(a, Fraction(-1, 3))]
    for names in [(name,) for name in COORDS] + [COORDS]:
        integral = integrate_radially(a, names)
        if integral is not None:
            out.append(integral)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_kernel_keeps_ints_off_the_fraction_path(seed):
    rng = random.Random(f"numbers:{seed}")
    checked = 0
    for _ in range(6):
        a, b = operand(rng), operand(rng)
        for e in [a, b] + trig_rewrites(rng) + kernel_results(rng, a, b):
            assert_kernel_numbers(e)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("text, printed", [
    ("q1/2", "1/2*q1"),
    ("q1/(2*p1 + 2)", "1/2*q1/(p1 + 1)"),
    ("(2*q1 + 2)/(q1 + 1)", "2"),
    ("(q1 + 1)/(2*q1 + 2)", "1/2"),
    ("(4*q1^2 - 1)/(2*q1 + 1)", "2*q1 - 1"),
    ("sqrt(4*q1^2)*q1^(3/2)", "2*q1^(3/2)*sqrt(q1^2)"),
    ("(-2*q1)/(4*p1)", "(-1/2*q1)/(p1)"),
    ("q1^(3/2)/(q1^2*p1)", "1/(p1*sqrt(q1))"),
    ("q1^(1/2)*q1^(1/2)", "q1"),
    ("(4/9)^(3/2)", "8/27"),
    ("3^(-2)", "1/9"),
    ("sin(q1)^3/cos(q1)^2", "sin(q1)^3/(cos(q1)^2)"),
    ("3*p1*sin(q1)^2 + 3*p1*cos(q1)^2 - 3*p1", "3*p1*sin(q1)^2 + 3*p1*cos(q1)^2 - 3*p1"),
])
def test_division_sites_print_exactly(text, printed):
    e = parse(text, SPACE)
    assert str(e) == printed
    assert_kernel_numbers(e)


def test_integral_and_derivative_over_fractions_print_exactly():
    e = integrate_radially(parse("3*q1^2*p1 + q1/2 + 5", SPACE), COORDS)
    assert str(e) == "3/4*p1*q1^2 + 1/4*q1 + 5"
    assert_kernel_numbers(e)
    e = integrate_radially(parse("(q1^3 + p1)/(2*p1 + 1)", SPACE), ["q1"])
    assert str(e) == "(1/8*q1^3 + 1/2*p1)/(p1 + 1/2)"
    assert_kernel_numbers(e)
    e = integrate_radially(parse("(q1^3*p1 + 3*k)/(2*k + 1)", SPACE), COORDS)
    assert str(e) == "(1/10*p1*q1^3 + 3/2*k)/(k + 1/2)"
    assert_kernel_numbers(e)
    e = differentiate(parse("q1^(3/2)*p1/3", SPACE), "q1")
    assert str(e) == "1/2*p1*sqrt(q1)"
    assert_kernel_numbers(e)


def test_rational_value_and_content_stay_exact():
    assert parse("6/2", SPACE).rational_value == 3
    assert type(parse("6/2", SPACE).rational_value) is int
    # a literal, and a quotient of two, are ints when integral
    for text, value in (("7", 7), ("007", 7), ("0" * 5000 + "12", 12), ("-8/-4", 2)):
        assert type(parse(text, SPACE).rational_value) is int
        assert parse(text, SPACE).rational_value == value
    assert parse("4/6", SPACE).rational_value == Fraction(2, 3)
    content = symexpr.rational_content(parse("4*q1 + 6*p1", SPACE))
    assert content == 2 and type(content) is Fraction  # callers divide by it


def snapshot(e):
    """A deep copy of e's polynomials and scale, term order and number types
    included."""
    return [[(m, type(c), c) for m, c in copy.deepcopy(p).items()]
            for p in (e.num, e.den)] + [(e.sn, e.sd)]


@pytest.mark.parametrize("seed", range(4))
def test_operations_leave_operands_unmutated_and_keys_fresh(seed):
    rng = random.Random(f"lazy-key:{seed}")
    for _ in range(5):
        a, b = operand(rng), operand(rng)
        before = [snapshot(x) for x in (a, b)]
        results = kernel_results(rng, a, b)
        assert [snapshot(x) for x in (a, b)] == before
        for e in results + trig_rewrites(rng):
            sn, sd = symexpr._read_scales(e)
            assert e.key == (_poly_key(e.num, *sn), _poly_key(e.den, *sd))
            again = parse(str(e), SPACE)
            assert again == e
            assert hash(again) == hash(e)
