"""The exact zero test: residues modulo the prime P = 2^61 - 1.

An Expr whose atoms are coordinates, parameters and sin, cos, tan or exp of
one coordinate, with integral exponents, is read modulo P at a seeded
point (`ProbeConfig.residues`).  `is_zero` takes one such residue where its
first valid probe is at or below the tolerance; any other Expr is probed.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from hamsym import symexpr
from hamsym.exterior import lie_scalar
from hamsym.symexpr import ProbeConfig, is_zero, parse

from genutil import conformal_case, random_poly, small_space

SPACE = small_space()  # one parameter, k = 0.75


def residue(text):
    return symexpr._poly_residue(parse(text, SPACE).num, ProbeConfig().residues(SPACE)[0])


def test_the_residue_point_keeps_the_trig_identities():
    at = ProbeConfig().residues(SPACE)[0]
    one = {}  # the polynomial 1 is the empty monomial
    assert symexpr._poly_residue(symexpr._UNIT, one) == 1
    for u in SPACE.coords:
        sin, cos, tan = (at[symexpr.FuncAtom(f, symexpr.symbol(u))] for f in ("sin", "cos", "tan"))
        assert (sin * sin + cos * cos) % symexpr.P == 1
        assert tan * cos % symexpr.P == sin
    assert residue("k - 3/4") == 0  # the declared value, as an exact decimal
    assert residue("tan(q1)*cos(q1) - sin(q1)") == 0


@pytest.mark.parametrize("text", [
    "1e-12*sqrt(1 + q1^2)",  # a root
    "1e-12*ln(2 + q1)",  # ln
    "1e-12*sin(q1 + q2)",  # a compound argument
    "1e-12*sin(k)*q1",  # a parameter argument
    "1e-12*exp(2*q1)",  # a compound argument of exp
    "1e-12*q1^(3/2)",  # a fractional exponent
    f"1/{symexpr.P}*q1",  # a coefficient denominator that P divides
])
def test_outside_the_exact_class_every_probe_is_taken(text):
    e = parse(text, SPACE)
    assert symexpr._poly_residue(e.num, ProbeConfig().residues(SPACE)[0]) is None
    v = is_zero(e, SPACE)
    assert (v.kind, v.probes, v.modular) == (symexpr.NUMERIC_ZERO, 64, False)
    assert v.describe().startswith("numeric zero (probabilistic): 64 probes, max |value| = ")


@pytest.mark.parametrize("text, kind, special, description", [
    ("1e-12*q1*exp(q2)", symexpr.NONZERO, False, "nonzero (decided mod 2^61-1): witness value"),
    ("sin(q1)^4 - cos(q1)^4 - sin(q1)^2 + cos(q1)^2", symexpr.NUMERIC_ZERO, False,
     "numeric zero (probabilistic): residue 0 mod 2^61-1, seed 42"),
    ("(16*k^2 - 9)*p1*q2", symexpr.NUMERIC_ZERO, True,
     "numeric zero (probabilistic): residue 0 mod 2^61-1, "
     "holds only at the declared parameter values, seed 42"),
])
def test_a_residue_decides_below_the_tolerance(text, kind, special, description):
    v = is_zero(parse(text, SPACE), SPACE)
    assert (v.kind, v.probes, v.modular, v.parameter_special) == (kind, 1, True, special)
    assert v.numeric == (kind == symexpr.NUMERIC_ZERO)
    assert v.describe().startswith(description)


def test_a_value_above_the_tolerance_decides_before_any_residue(monkeypatch):
    monkeypatch.setattr(symexpr, "_poly_residue", lambda *args: pytest.fail("residue taken"))
    v = is_zero(parse("q1*p2 + 1e-12*q2", SPACE), SPACE)
    assert (v.kind, v.probes, v.modular) == (symexpr.NONZERO, 1, False)


# -- the oracle: sympy's simplify on seeded in-class expressions ---------------


def _oracle_exprs():
    """Seeded in-class expressions, zero and nonzero: entries of both
    corpora, each with an equal form the kernel builds another way, and
    products of the genutil families with a trig identity the fold misses."""
    rng = random.Random("residue-oracle")
    golden = Path(__file__).parent / "golden"
    trig = [line.split("\t") for line in (golden / "trig_corpus.txt").read_text().splitlines()]
    trig = [text for text, out in trig
            if "tan(q1)" in text and len(out) < 60 and not out.startswith("error")]
    for text in rng.sample(trig, 4):
        yield parse(text, SPACE)
        yield parse(text, SPACE) - parse(text.replace("tan(q1)", "(sin(q1)/cos(q1))"), SPACE)
    kernel = [line.split("\t") for line in (golden / "kernel_corpus.txt").read_text().splitlines()]
    kernel = [line for line in kernel if line[0] in ("mul", "div") and "error" not in line[-1]]
    for kind, a, b, out in rng.sample(kernel, 5):
        e = parse(out, SPACE)
        yield e
        yield e - parse(f"({a})*({b})" if kind == "mul" else f"({a})/({b})", SPACE)
        yield e + parse("1/1000000000000*q1", SPACE)
    identity = parse("sin(q1)^4 - cos(q1)^4 - sin(q1)^2 + cos(q1)^2", SPACE)
    for _ in range(4):
        a = random_poly(rng, SPACE, trig=True)
        yield a * random_poly(rng, SPACE, trig=True)
        yield a * identity
    for _ in range(3):
        system, y, c, h = conformal_case(rng)
        yield lie_scalar(y, h) - symexpr.rational(c) * h
        yield lie_scalar(y, h) - symexpr.rational(c + 1) * h


def test_the_modular_verdict_is_sympys():
    sympy = pytest.importorskip("sympy")
    names = {name: sympy.Symbol(name) for name in (*SPACE.coords, "k")}
    checked = set()
    for e in _oracle_exprs():
        r = symexpr._poly_residue(e.num, ProbeConfig().residues(SPACE)[0])
        assert r is not None, str(e)
        text = str(e)
        exact = sympy.parse_expr(text.replace("^", "**"), local_dict=names)
        exact = exact.subs(names["k"], sympy.Rational(3, 4))  # the declared k = 0.75
        # simplify misses some zeros written with tan, such as
        # sin^4*(1 + tan^2)^2 - tan^4, and none written with sin/cos
        exact = exact.replace(sympy.tan, lambda u: sympy.sin(u) / sympy.cos(u))
        assert (r == 0) == (sympy.simplify(exact) == 0), text
        checked.add(r == 0)
    assert checked == {True, False}
