"""The exact zero test: residues modulo the prime P = 2^61 - 1.

An Expr whose atoms are coordinates, parameters and sin, cos, tan or exp of
an integer-linear form in the coordinates, with integral exponents below
2^15, is read modulo P at a seeded point (`ProbeConfig.residues`, and
`_linear_residue` for a form that is not one coordinate).  `is_zero` reads
such a residue before any probe: a zero residue decides with no probe
point, and a nonzero one takes the first valid probe as its witness.  Any
other Expr is probed.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from hamsym import symexpr
from hamsym.exterior import lie_scalar
from hamsym.symexpr import ProbeConfig, is_zero, parse

from genutil import conformal_case, kernel_corpus_fields, random_poly, small_space

SPACE = small_space()  # one parameter, k = 0.75


def residue(text):
    e = parse(text, SPACE)
    at = ProbeConfig().residues(SPACE)[0]
    return symexpr._poly_residue(e.num, at, *symexpr._read_scales(e)[0])


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
    "1e-12*sin(q1/2)",  # a fractional multiple of a coordinate
    "1e-12*sin(q1^2)",  # a nonlinear argument
    "1e-12*sin(k)*q1",  # a parameter argument
    "1e-12*q1^(3/2)",  # a fractional exponent
    f"1/{symexpr.P}*q1",  # a coefficient denominator that P divides
])
def test_outside_the_exact_class_every_probe_is_taken(text):
    e = parse(text, SPACE)
    assert symexpr._poly_residue(e.num, ProbeConfig().residues(SPACE)[0],
                              *symexpr._read_scales(e)[0]) is None
    v = is_zero(e, SPACE)
    assert (v.kind, v.probes, v.modular) == (symexpr.NUMERIC_ZERO, 64, False)
    assert v.describe().startswith("numeric zero (probabilistic): 64 probes, max |value| = ")


@pytest.mark.parametrize("text, kind, special, description", [
    ("1e-12*q1*exp(q2)", symexpr.NONZERO, False, "nonzero (decided mod 2^61-1): witness value"),
    ("1e-12*sin(q1 + q2)", symexpr.NONZERO, False, "nonzero (decided mod 2^61-1): witness value"),
    ("1e-12*exp(2*q1)", symexpr.NONZERO, False, "nonzero (decided mod 2^61-1): witness value"),
    ("sin(q1)^4 - cos(q1)^4 - sin(q1)^2 + cos(q1)^2", symexpr.NUMERIC_ZERO, False,
     "numeric zero (probabilistic): residue 0 mod 2^61-1, seed 42"),
    ("(16*k^2 - 9)*p1*q2", symexpr.NUMERIC_ZERO, True,
     "numeric zero (probabilistic): residue 0 mod 2^61-1, "
     "holds only at the declared parameter values, seed 42"),
])
def test_a_residue_decides_below_the_tolerance(text, kind, special, description):
    # a zero residue takes no probe; a nonzero one, its witness
    v = is_zero(parse(text, SPACE), SPACE)
    probes = 0 if kind == symexpr.NUMERIC_ZERO else 1
    assert (v.kind, v.probes, v.modular, v.parameter_special) == (kind, probes, True, special)
    assert v.numeric == (kind == symexpr.NUMERIC_ZERO)
    assert v.describe().startswith(description)


def test_a_value_above_the_tolerance_reads_the_residue_first(monkeypatch):
    # the residue is read whatever the first probe's value; a nonzero one
    # keeps the float verdict, not marked modular, since the value alone
    # was above the tolerance
    residue, taken = symexpr._poly_residue, []
    monkeypatch.setattr(symexpr, "_poly_residue", lambda *args: taken.append(1) or residue(*args))
    v = is_zero(parse("q1*p2 + 1e-12*q2", SPACE), SPACE)
    assert (v.kind, v.probes, v.modular) == (symexpr.NONZERO, 1, False)
    assert taken == [1]
    assert v.describe().startswith("nonzero: witness value ")


def test_roundoff_above_the_tolerance_is_a_modular_zero():
    # float cancellation leaves about 1e-4 of roundoff on this zero, far
    # above the tolerance; its residue is 0
    e = parse("1e12*(sin(q2)^4 - cos(q2)^4 - sin(q2)^2 + cos(q2)^2)", SPACE)
    assert abs(symexpr.interpret(e, SPACE)(next(iter(ProbeConfig().points(SPACE))))) > 1e-9
    v = is_zero(e, SPACE)
    assert (v.kind, v.probes, v.modular) == (symexpr.NUMERIC_ZERO, 0, True)
    assert v.describe() == "numeric zero (probabilistic): residue 0 mod 2^61-1, seed 42"


def test_a_zero_residue_needs_no_valid_probe():
    # every probe of exp(q)^800 overflows on q = 1 .. 2; the residue alone
    # decides a zero, while a nonzero has no witness to print
    space = symexpr.PhaseSpace(1, ["q", "p"], domain={"q": (1.0, 2.0)})
    v = is_zero(parse("exp(q)^800*(sin(q)^4 - cos(q)^4 - sin(q)^2 + cos(q)^2)", space), space)
    assert (v.kind, v.probes, v.modular) == (symexpr.NUMERIC_ZERO, 0, True)
    with pytest.raises(symexpr.NoValidProbesError):
        is_zero(parse("exp(q)^800*sin(q)", space), space)


@pytest.mark.parametrize("text", [f"q1^{symexpr.P} - q1", f"exp(q1)^{symexpr.P} - exp(q1)"],
                         ids=["symbol", "exp"])
def test_an_exponent_beyond_the_field_limit_is_probed(text):
    # x^P and x have the same residue everywhere (Fermat), though they
    # differ; an exponent of 2^15 or more leaves the exact class
    e = parse(text, SPACE)
    assert residue(text) is None
    v = is_zero(e, SPACE)
    assert (v.kind, v.modular) == (symexpr.NONZERO, False)


# -- the oracle: sympy's simplify on seeded in-class expressions ---------------


def _oracle_exprs():
    """Seeded in-class expressions, zero and nonzero: entries of both
    corpora, each with an equal form the kernel builds another way, and
    products of the genutil families with a trig identity that the
    canonical form does not see."""
    rng = random.Random("residue-oracle")
    golden = Path(__file__).parent / "golden"
    trig = [line.split("\t") for line in (golden / "trig_corpus.txt").read_text().splitlines()]
    trig = [text for text, out in trig
            if "tan(q1)" in text and len(out) < 60 and not out.startswith("error")]
    for text in rng.sample(trig, 4):
        yield parse(text, SPACE)
        yield parse(text, SPACE) - parse(text.replace("tan(q1)", "(sin(q1)/cos(q1))"), SPACE)
    kernel = map(kernel_corpus_fields, (golden / "kernel_corpus.txt").read_text().splitlines())
    kernel = [(kind, *operands, out) for kind, operands, out in kernel
              if kind in ("mul", "div") and "error" not in out]
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
        r = symexpr._poly_residue(e.num, ProbeConfig().residues(SPACE)[0],
                              *symexpr._read_scales(e)[0])
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


def test_integer_linear_residues_are_sympys_expansions():
    # sin, cos, tan and exp of k.x, with |k_i| <= 3 over two or three
    # coordinates, against sympy's expansion into atoms of one coordinate,
    # which the residue point reads directly
    sympy = pytest.importorskip("sympy")
    rng = random.Random("linear-residue")
    at = ProbeConfig().residues(SPACE)[0]
    names = {name: sympy.Symbol(name) for name in SPACE.coords}
    powers = {name: sympy.Symbol(f"E_{name}") for name in SPACE.coords}  # exp(x), unmerged
    for _ in range(30):
        coords = rng.sample(SPACE.coords, rng.choice((2, 3)))
        ks = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in coords]
        u = sum(k * names[c] for k, c in zip(ks, coords))
        for f in ("sin", "cos", "tan", "exp"):
            e = parse(f"{f}({sympy.sstr(u)})", SPACE)
            if f == "exp":
                expanded = sympy.expand(sympy.exp(u), power_exp=True).replace(
                    sympy.exp, lambda a: powers[str(a.as_coeff_Mul()[1])] ** a.as_coeff_Mul()[0])
                text = sympy.sstr(expanded)
                for name in SPACE.coords:
                    text = text.replace(f"E_{name}", f"exp({name})")
            else:
                text = sympy.sstr(sympy.expand_trig(getattr(sympy, f)(u)))
            back = parse(text.replace("**", "^"), SPACE)
            assert all(a in at for a in back.atoms()), text
            assert symexpr._residue(e, at) == symexpr._residue(back, at), (str(e), text)
