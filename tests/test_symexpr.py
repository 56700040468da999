import functools
import math
from itertools import chain, islice
import random
import re
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from hamsym import symexpr
from hamsym.classifier import ClassifyConfig, classify
from hamsym.hamiltonian import make_system
from hamsym.symexpr import (
    EvalDomainError,
    ParseError,
    PhaseSpace,
    ProbeConfig,
    UnknownIdentifierError,
    aggregate_zero,
    batch_values,
    differentiate,
    eval_numeric,
    is_constant,
    is_zero,
    parse,
    substitute,
)
from hamsym.systemio import BUNDLED_EXAMPLES, parse_system_text

from conftest import CountingFloat, candidate_named
from genutil import (_trig_term, kernel_corpus_fields, kernel_corpus_text, random_poly,
                     small_space, trig_corpus, trig_corpus_text)


@pytest.fixture(scope="module")
def pend_space():
    return PhaseSpace(2, ["theta", "phi", "p_theta", "p_phi"], {"Omega": 1.0},
                      {"theta": (-1.2, 1.2), "phi": (0.0, 6.283185307179586)})


@pytest.fixture(scope="module")
def osc_space():
    return PhaseSpace(2, ["q1", "q2", "p1", "p2"], {"Omega": 1.0})


# -- parsing ----------------------------------------------------------------

def test_parse_single_token(pend_space):
    assert parse("p_phi", pend_space) == symexpr.symbol("p_phi")


def test_parse_oscillator_hamiltonian(osc_space):
    h = parse("(p1^2 + p2^2 + Omega^2*q1^2 + Omega^2*q2^2)/2", osc_space)
    built = (
        symexpr.symbol("p1") ** 2 + symexpr.symbol("p2") ** 2
        + symexpr.symbol("Omega") ** 2 * symexpr.symbol("q1") ** 2
        + symexpr.symbol("Omega") ** 2 * symexpr.symbol("q2") ** 2
    ) / 2
    assert h == built


def test_parse_pendulum_hamiltonian(pend_space):
    h = parse("p_theta^2/2 + p_phi^2*(1+tan(theta)^2)/2 + Omega^2*(1+sin(theta))",
              pend_space)
    assert eval_numeric(h, (0.0, 0.0, 0.0, 0.0), pend_space) == pytest.approx(1.0)


def test_rational_roots_are_exact_at_any_size(osc_space):
    assert parse("(10^400)^(1/2)", osc_space) == symexpr.rational(10**200)
    assert parse("((10^30 + 7)^2)^(1/2) - (10^30 + 7)", osc_space).is_zero_expr
    assert parse("((10^30 + 7)^3/8)^(2/3)", osc_space) == \
        symexpr.rational(Fraction((10**30 + 7) ** 2, 4))
    # not perfect powers: the root stays an irrational atom
    assert not parse("(10^30 + 1)^(1/3)", osc_space).is_rational
    assert not parse("3^(1/1000000)", osc_space).is_rational


def test_parse_syntax_error_position(pend_space):
    with pytest.raises(ParseError) as err:
        parse("q1 +", pend_space)
    assert "position" in str(err.value)
    for text in ("1/0", "2/(1-1)"):
        with pytest.raises(ParseError, match=r"^division by zero \(at position 1\)$"):
            parse(text, pend_space)
    # the position is where the whitespace before the character begins
    with pytest.raises(ParseError, match=r"^unexpected character '@' \(at position 7\)$"):
        parse("theta +  @phi", pend_space)
    assert parse(" theta \t", pend_space) == symexpr.symbol("theta")


def test_parse_unknown_identifier(pend_space):
    with pytest.raises(UnknownIdentifierError):
        parse("theta + bogus", pend_space)


def test_parse_unknown_function(pend_space):
    with pytest.raises(UnknownIdentifierError):
        parse("sinh(theta)", pend_space)


def test_parse_function_arity(pend_space):
    with pytest.raises(ParseError):
        parse("sin(theta, phi)", pend_space)


@pytest.mark.parametrize("text, printed", [
    ("sin(0)", "0"), ("cos(0)", "1"), ("tan(0)", "0"), ("exp(0)", "1"), ("ln(1)", "0"),
    ("cos(2)", "cos(2)"),
])
def test_function_of_a_rational_folds_only_where_exact(pend_space, text, printed):
    assert str(parse(text, pend_space)) == printed


def test_parse_precedence(pend_space):
    assert parse("-theta^2", pend_space) == -(symexpr.symbol("theta") ** 2)
    assert parse("2^2^3", pend_space) == symexpr.rational(256)
    assert parse("1 - 2 - 3", pend_space) == symexpr.rational(-4)
    assert parse("6/2/3", pend_space) == symexpr.rational(1)
    assert parse("theta^3/2", pend_space) == parse("(theta^3)/2", pend_space)
    assert parse("4/6*theta", pend_space) == parse("2/3*theta", pend_space)


def test_parse_rational_exponent_only(pend_space):
    assert parse("theta^(1/2)", pend_space) == symexpr.pow_(
        symexpr.symbol("theta"), Fraction(1, 2))
    with pytest.raises(ParseError):
        parse("2^theta", pend_space)


def test_parse_scientific_literals(pend_space):
    assert parse("1e-3", pend_space) == symexpr.rational(Fraction(1, 1000))
    assert parse("2.5", pend_space) == symexpr.rational(Fraction(5, 2))
    # up to the printable digit limit (4300 by default)
    assert parse("1e4299", pend_space) == symexpr.rational(10**4299)
    # leading zeros do not count against the limit, though int() counts them
    assert parse("007*theta", pend_space) == parse("7*theta", pend_space)
    assert parse("0" * 5000 + "1", pend_space) == symexpr.ONE
    # the limit holds for the numerator and denominator in lowest terms:
    # 1e-4299 is 1/10^4299 and 5e-4300 is 1/(2*10^4299), 4300 digits each
    assert parse("1e-4299", pend_space) == symexpr.rational(Fraction(1, 10**4299))
    assert parse("5e-4300", pend_space) == symexpr.rational(Fraction(1, 2 * 10**4299))
    assert parse("1." + "0" * 5000, pend_space) == symexpr.ONE
    assert parse("0e-5000", pend_space) == symexpr.ZERO


@pytest.mark.parametrize("text, position", [
    ("1e10000000*q1", 0), ("q1 + 1e-5000", 5), ("2*1e4300", 2), ("1" + "0" * 4300, 0),
    ("1e-4300*q1", 0),
], ids=["huge-exponent", "tiny-exponent", "first-too-long", "long-digit-run",
        "denominator-one-digit-over"])
def test_parse_rejects_a_literal_beyond_the_digit_limit(osc_space, text, position):
    # rejected before the Fraction is built: its numerator or denominator
    # could not be printed, and building 10^10000000 takes seconds
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError, match=rf"more than {limit} digits \(at position {position}\)"):
        parse(text, osc_space)


@pytest.mark.parametrize("text", ["10^5000*q1", "q1^(10^5000)", "q1^(1/10^5000)"])
def test_printing_a_constant_beyond_the_digit_limit_is_an_expr_error(osc_space, text):
    with pytest.raises(symexpr.ExprError, match="a constant has more than"):
        str(parse(text, osc_space))


@pytest.mark.parametrize("text", ["10^(10^9)*q1", "(1/2)^(10^7)", "(-3)^(-10^7)",
                                  "(2*q1)^(10^9)", "4^((10^9 + 1)/2)", "(4*q1)^((10^9 + 1)/2)"])
def test_a_constant_power_beyond_the_bound_is_a_parse_error(osc_space, text):
    # its size is bounded before any multiplication, which for 10^(10^9)
    # would take hours
    with pytest.raises(ParseError, match=f"a power of a constant has more than "
                                         f"{symexpr.MAX_POWER_BITS} bits"):
        parse(text, osc_space)


@pytest.mark.parametrize("text", ["(q1 + 1)^(10^9)", "1/(q1 + 1)^32768",
                                  "(q1/(p1 + 1))^(-2^15)"])
def test_a_power_of_a_sum_beyond_the_packed_field_is_a_parse_error(osc_space, text):
    # multiplying out (q1 + 1)^(10^9) would not end
    with pytest.raises(ParseError, match="a power of a sum has an exponent of 2\\^15 or more"):
        parse(text, osc_space)


def test_a_constant_power_within_the_bound_is_exact(osc_space):
    assert parse("10^5000/10^4999", osc_space) == symexpr.rational(10)
    assert parse("2^(10^6 - 1)", osc_space).rational_value == 2 ** (10**6 - 1)
    assert parse("(3/2*q1)^2", osc_space) == parse("9/4*q1^2", osc_space)


@pytest.mark.parametrize("text, position", [
    ("-" * 3000 + "q1", 65),
    ("sin(" * 300 + "q1" + ")" * 300, 260),
    ("(" * 400 + "q1" + ")" * 400, 65),
    ("2^" * 3000 + "2", 130),
], ids=["signs", "functions", "parentheses", "powers"])
def test_parse_nesting_beyond_the_limit_is_a_parse_error(osc_space, text, position):
    with pytest.raises(ParseError, match=f"nests deeper than {symexpr.MAX_NESTING} levels "
                                         rf"\(at position {position}\)"):
        parse(text, osc_space)


def test_parse_nesting_up_to_the_limit(osc_space):
    depth = symexpr.MAX_NESTING
    e = parse("sin(" * depth + "q1" + ")" * depth, osc_space)
    assert str(e).count("sin(") == depth
    assert parse("-" * depth + "q1", osc_space) == symexpr.symbol("q1")
    with pytest.raises(ParseError):
        parse("sin(" * (depth + 1) + "q1" + ")" * (depth + 1), osc_space)


def test_print_parse_round_trip(pend_space, osc_space):
    cases = [(text, pend_space) for text in (
        "p_theta^2/2 + p_phi^2*(1+tan(theta)^2)/2 + Omega^2*(1+sin(theta))",
        "sin(theta)*cos(phi) - 3/2*p_theta",
        "sqrt(1 + theta^2)",
        "(theta + 1)/(p_theta^2 + 1)",
        "(1 + theta)^(2/3)",
        "theta^(3/2) - 1/phi",
    )]
    # a quotient by cos^2 whose numerator holds a sin^2 + cos^2 pair
    cases.append(("(sin(q1)^2 + tan(q1)^2*cos(q1)^2)/cos(q1)^2", osc_space))
    for text, space in cases:
        e = parse(text, space)
        again = parse(str(e), space)
        assert again == e


def test_print_parse_round_trip_fuzzed(osc_space):
    rng = random.Random(97)
    for _ in range(120):
        e = random_poly(rng, osc_space, degree=3, terms=4, trig=True)
        if rng.random() < 0.4:
            d = random_poly(rng, osc_space, degree=2) + symexpr.rational(3)
            e = e / d
        if rng.random() < 0.2 and not e.is_zero_expr:
            e = symexpr.func("sqrt", e * e)
        assert parse(str(e), osc_space) == e


# -- normal form ------------------------------------------------------------

def test_normal_form_rules(osc_space):
    x = symexpr.symbol("q1")
    assert x * symexpr.ZERO == symexpr.ZERO
    assert x * symexpr.ONE == x
    assert x + symexpr.ZERO == x
    assert x ** 0 == symexpr.ONE
    assert x ** 1 == x
    # trig identities are no structural rule: each side keeps its own form,
    # and their difference is a zero of the residue, decided with no probe
    for a, b in (("sin(q1)^2 + cos(q1)^2", "1"), ("1/cos(q1)^2", "1 + tan(q1)^2")):
        ea, eb = parse(a, osc_space), parse(b, osc_space)
        assert ea != eb
        v = is_zero(ea - eb, osc_space)
        assert v.kind == symexpr.NUMERIC_ZERO and v.modular and v.probes == 0


def test_trig_corpus_matches_golden():
    # seeded sums, products and quotients of sin, cos and tan powers; the
    # golden pins the canonical form of each, byte for byte, and re-parsing
    # a printed form prints the same text
    space = small_space()
    path = Path(__file__).parent / "golden" / "trig_corpus.txt"
    golden = path.read_text(encoding="utf-8")
    assert trig_corpus_text(space) == golden
    for line in golden.splitlines():
        printed = line.split("\t")[1]
        if not printed.startswith("error: "):
            assert str(parse(printed, space)) == printed


def test_kernel_corpus_matches_golden():
    # seeded sums, products, quotients, scalings, integer and fractional
    # powers, derivatives, contents, radial integrals and substitutions of
    # random polynomials; the golden pins each printed result, its value and
    # its residue, byte for byte, and re-parsing a result prints the same text
    space = small_space()
    path = Path(__file__).parent / "golden" / "kernel_corpus.txt"
    golden = path.read_text(encoding="utf-8")
    assert kernel_corpus_text(space) == golden
    for line in golden.splitlines():
        printed = kernel_corpus_fields(line)[2]
        if not printed.startswith("error: "):
            assert str(parse(printed, space)) == printed


def _two_helper_order(m):
    """The monomial order as it was built from two helpers, degree and key."""
    def key(m):
        return tuple((a.key, (e.numerator, e.denominator)) for a, e in m)

    def degree(m):
        return sum(e for _, e in m)
    m = symexpr._factors(m)
    return (degree(m), key(m))


def _monomials(e, seen):
    """Every monomial of e, of its denominator and of the Exprs inside its atoms."""
    for p in (e.num, e.den):
        for m in p:
            if m not in seen:
                seen.add(m)
                for a, _ in symexpr._factors(m):
                    inner = getattr(a, "arg", None) or getattr(a, "base", None)
                    if inner is not None:
                        _monomials(inner, seen)


def test_monomial_order_is_the_two_helper_order():
    space = small_space()
    golden = Path(__file__).parent / "golden"
    texts = []
    # the kernel corpus's operands and results, and the trig corpus's printed forms
    for line in golden.joinpath("kernel_corpus.txt").read_text(encoding="utf-8").splitlines():
        _, operands, result = kernel_corpus_fields(line)
        texts += [t for t in [*operands, result] if not t.startswith("error: ")]
    for line in golden.joinpath("trig_corpus.txt").read_text(encoding="utf-8").splitlines():
        texts += [t for t in line.split("\t")[-1:] if not t.startswith("error: ")]
    seen = set()
    for text in texts:
        _monomials(parse(text, space), seen)
    for name, source in BUNDLED_EXAMPLES.items():
        sf = parse_system_text(source, name_hint=name)
        system = make_system(sf.space, sf.symplectic, sf.hamiltonian)
        exprs = [sf.hamiltonian, *system.x_h.components]
        exprs += [c for cand in sf.symmetries for c in cand.field.components]
        for e in exprs:
            _monomials(e, seen)
    assert len(seen) > 1500
    assert any(isinstance(e, Fraction) for m in seen for _, e in symexpr._factors(m))
    assert any(type(m) is int for m in seen) and any(type(m) is tuple for m in seen)
    for m in seen:
        assert symexpr._mono_order(m) == _two_helper_order(m), m


def test_negative_atom_power_is_canonical():
    # (cos(q)^3)^(-2/3) collapses to cos(q)^-2, whose canonical form,
    # 1/cos(q)^2, is the one that 1/cos(q)^2 parses to
    space = small_space()
    collapsed = parse("(cos(q1)^3)^(-2/3)", space)
    assert str(collapsed) == "1/(cos(q1)^2)"
    assert collapsed == parse("1/cos(q1)^2", space)
    assert collapsed * 1 == collapsed
    assert str(parse("(q1^3)^(-2/3)", space)) == "1/(q1^2)"


def _guard_corpus(space):
    """Every parsed expression of both golden corpora (operands and results),
    and each function atom in them raised through `_atom_power`'s collapse
    (a^3)^(-2/3)."""
    exprs = []
    for name in ("kernel_corpus.txt", "trig_corpus.txt"):
        lines = (Path(__file__).parent / "golden" / name).read_text(encoding="utf-8")
        for line in lines.splitlines():
            fields = line.split("\t")
            if name == "kernel_corpus.txt":
                _, operands, result = kernel_corpus_fields(line)
                fields = [*operands, result]
            if fields[-1].startswith("error: "):
                continue
            exprs += [parse(text, space) for text in fields]
    atoms = {a for e in exprs for a in e.atoms() if isinstance(a, symexpr.FuncAtom)}
    exprs += [symexpr.pow_(symexpr.pow_(symexpr._atom_value(a), 3), Fraction(-2, 3))
              for a in sorted(atoms, key=lambda a: a.key)]
    return exprs


def test_every_expr_is_canonical_and_rational_scaling_matches_make():
    # mul scales by a rational constant by changing the scale alone; that is
    # sound only because every Expr is a fixed point of `_make`, which this
    # pins on both corpora, and the scaled results must equal the general
    # product
    space = small_space()
    exprs = _guard_corpus(space)
    assert len(exprs) > 1000
    make, pmul = symexpr._make, symexpr._poly_mul
    for e in exprs:
        assert make(e.num, e.den, e.sn, e.sd) == e, str(e)
        for c in (-1, Fraction(3, 4), Fraction(-5, 2)):
            r = symexpr.rational(c)
            general = make(pmul(r.num, e.num)[0], pmul(r.den, e.den)[0],
                           *symexpr._times(r.sn, r.sd, e.sn, e.sd))
            assert r * e == general and e * r == general, (str(e), c)
        assert -e == make(e.num, e.den, -e.sn, e.sd)


def test_make_short_path_matches_full_path():
    # `_make` over the shared unit denominator returns the numerator over
    # it; over an equal but unshared {0: 1} it takes the full path, which
    # must give the same parts, in the same order and with the same
    # coefficient types, and the shared denominator
    space = small_space()
    polys = [e for e in _guard_corpus(space) if e.den is symexpr._UNIT]
    assert len(polys) > 500
    sums = [symexpr._poly_add(a.num, b.num) for a, b in zip(polys, polys[1:])]
    products = [symexpr._poly_mul(a.num, b.num)[0] for a, b in zip(polys[:300], polys[1:301])]
    for num in sums + products:
        short, full = symexpr._make(num, symexpr._UNIT), symexpr._make(num, {0: 1})
        assert short.den is symexpr._UNIT and full.den is symexpr._UNIT
        assert [(m, type(c), c) for m, c in short.num.items()] == \
            [(m, type(c), c) for m, c in full.num.items()]
        assert (short.sn, short.sd) == (full.sn, full.sd)


def _exponents(e):
    """Every monomial exponent in e, those inside its atoms included."""
    for p in (e.num, e.den):
        for m in p:
            for a, k in symexpr._factors(m):
                yield k
                if isinstance(a, symexpr.FuncAtom):
                    yield from _exponents(a.arg)
                elif isinstance(a, symexpr.PowAtom):
                    yield from _exponents(a.base)


def test_canonical_monomial_exponents_are_positive():
    # so no guard needs a case for zero raised to a negative power: a
    # negative exponent goes to the denominator, where a zero base is a
    # division by zero.  The corpora's results (products, quotients,
    # integer and fractional powers, derivatives), parsed from their
    # printed forms, then differentiated and substituted into
    space = small_space()
    exprs = []
    golden = Path(__file__).parent / "golden"
    results = [line.split("\t")[-1] for line in
               golden.joinpath("trig_corpus.txt").read_text(encoding="utf-8").splitlines()]
    results += [kernel_corpus_fields(line)[2] for line in
                golden.joinpath("kernel_corpus.txt").read_text(encoding="utf-8").splitlines()]
    exprs += [parse(text, space) for text in results if not text.startswith("error: ")]
    mapping = {"q1": parse("(q2^2 + 1)^(-1/2)", space), "p1": parse("1/(k - q2)", space)}
    derived = []
    for e in exprs:
        derived.append(differentiate(e, "q1"))
        try:
            derived.append(substitute(e, mapping))
        except symexpr.ExprError:  # a root of a negative constant, say
            pass
    assert len(exprs) > 700 and len(derived) > 1400
    assert all(k > 0 for e in exprs + derived for k in _exponents(e))


@pytest.mark.parametrize("text, printed", [
    ("(q1^2 - q2^2)/(q1 - q2)", "q2 + q1"),
    ("(q1^2*q2 - q2^3)/(q1 - q2)", "q2^2 + q1*q2"),
])
def test_exact_division_by_a_polynomial_divisor_cancels(osc_space, text, printed):
    assert str(parse(text, osc_space)) == printed


def test_exact_division_property():
    # (a*b)/b == a for integer-exponent polynomials in at least two atoms
    space = small_space()
    rng = random.Random(61)
    checked = 0
    while checked < 80:
        a = random_poly(rng, space, degree=3, terms=3)
        b = random_poly(rng, space, degree=2, terms=3)
        if len(b.num) < 2 or len({x.key for x in chain(a.atoms(), b.atoms())}) < 2:
            continue
        assert (a * b) / b == a, f"({a})*({b})/({b})"
        checked += 1


def test_trig_sums_do_not_depend_on_term_order():
    # seeded trig terms with an extra c*R*sin(u)^2 + c*R*cos(u)^2 +
    # c*R*cos(u)^2 each: three shuffled sums and one running `add` must be
    # one Expr that prints one text, since no rule matches coefficients
    space = small_space()
    rng = random.Random(1)
    for _ in range(150):
        terms = [_trig_term(rng) for _ in range(rng.randint(1, 3))]
        rest, u = _trig_term(rng), rng.choice(("q1", "q2"))
        terms += [f"{rest}*sin({u})^2", f"{rest}*cos({u})^2", f"{rest}*cos({u})^2"]
        exprs = [parse(t, space) for t in terms]
        results = []
        for _ in range(3):
            rng.shuffle(exprs)
            results.append(symexpr.sum_(exprs))
        results.append(functools.reduce(symexpr.add, exprs))
        assert all(r == results[0] for r in results)
        assert len({str(r) for r in results}) == 1, terms


def test_rational_function_cancellation(osc_space):
    e = parse("Omega*(Omega^2*q1^2 + p1^2)/(Omega^2*q1^2 + p1^2)", osc_space)
    assert e == symexpr.symbol("Omega")
    f = parse("q1/(q1*p1)", osc_space)
    assert f == parse("1/p1", osc_space)


def test_quotients_over_one_denominator_keep_it(osc_space):
    e = parse("q1/(1 + q1^2)", osc_space) + parse("p1/(1 + q1^2)", osc_space)
    assert str(e) == "(q1 + p1)/(q1^2 + 1)"
    # a denominator that divides the other: the larger one is kept
    f = parse("q1/(1 + q1^2)", osc_space) + parse("p1/(1 + q1^2)^2", osc_space)
    assert str(f) == "(q1^3 + q1 + p1)/(q1^4 + 2*q1^2 + 1)"


def test_sum_of_one_or_no_term():
    e = symexpr.symbol("q1") / (symexpr.symbol("p1") + 1)
    assert symexpr.sum_([e]) is e
    assert symexpr.sum_([symexpr.ZERO, e, symexpr.ZERO]) is e
    assert symexpr.sum_([]) == symexpr.ZERO


@pytest.mark.parametrize("trig", [False, True])
def test_sum_of_polynomials_matches_pairwise_adds(osc_space, trig):
    rng = random.Random(31 + trig)
    for _ in range(60):
        terms = [random_poly(rng, osc_space, degree=3, terms=4, trig=trig)
                 for _ in range(rng.randint(2, 8))]
        assert symexpr.sum_(terms).key == functools.reduce(symexpr.add, terms).key


def test_sum_of_quotients_equals_pairwise_adds(osc_space, probes):
    rng = random.Random(41)
    d1 = random_poly(rng, osc_space) + symexpr.rational(3)
    d2 = random_poly(rng, osc_space) + symexpr.rational(5)
    dens = [symexpr.ONE, d1, d2, d1 * d2, d1 * d1]
    for _ in range(30):
        terms = [random_poly(rng, osc_space, trig=True) / rng.choice(dens)
                 for _ in range(rng.randint(2, 6))]
        diff = symexpr.sum_(terms) - functools.reduce(symexpr.add, terms)
        assert diff.is_zero_expr
        assert is_zero(diff, osc_space, probes).kind == symexpr.SYMBOLIC_ZERO


def test_construction_idempotent(osc_space):
    rng = random.Random(7)
    for _ in range(50):
        e = random_poly(rng, osc_space, trig=True)
        rebuilt = e + symexpr.ZERO
        assert rebuilt == e
        assert (e * symexpr.ONE).key == e.key


def test_normalization_preserves_value(osc_space):
    # common-denominator normalization must not change numeric values
    rng = random.Random(21)
    cfg = ProbeConfig(count=16, seed=5)
    for _ in range(25):
        a = random_poly(rng, osc_space, trig=True)
        b = random_poly(rng, osc_space) + symexpr.rational(2)
        combined = a / b + b
        for point in list(cfg.points(osc_space))[:8]:
            va = eval_numeric(a, point, osc_space)
            vb = eval_numeric(b, point, osc_space)
            vc = eval_numeric(combined, point, osc_space)
            assert vc == pytest.approx(va / vb + vb, rel=1e-10, abs=1e-10)


# -- differentiation ---------------------------------------------------------

def test_differentiate_pendulum_momentum(pend_space):
    e = parse("p_phi^2*(1+tan(theta)^2)/2", pend_space)
    d = differentiate(e, "p_phi")
    assert d == parse("p_phi*(1+tan(theta)^2)", pend_space)


def test_differentiate_parameter_is_zero(pend_space):
    assert differentiate(parse("Omega", pend_space), "theta").is_zero_expr


def test_differentiate_tan(pend_space):
    d = differentiate(parse("tan(theta)", pend_space), "theta")
    assert d == parse("1 + tan(theta)^2", pend_space)


def test_differentiate_quotient_and_sqrt(osc_space):
    e = parse("q1/(1 + q2)", osc_space)
    assert differentiate(e, "q2") == parse("-q1/(1 + q2)^2", osc_space)
    s = parse("sqrt(1 + q1^2)", osc_space)
    ds = differentiate(s, "q1")
    # d sqrt(u) = u'/(2 sqrt(u))
    assert (ds - parse("q1/sqrt(1 + q1^2)", osc_space)).is_zero_expr
    # the power rule on symbols: fractional exponents above and below 1, an
    # exponent of exactly 1 that drops the atom, and a parameter (no term);
    # then the logarithm's rule
    for text, name, printed in (
        ("q1^(3/2)*sin(p1)", "q1", "3/2*sqrt(q1)*sin(p1)"),
        ("q1^(3/2)*sin(p1)", "p1", "q1^(3/2)*cos(p1)"),
        ("q1^(5/2)*q2", "q1", "5/2*q1^(3/2)*q2"),
        ("q1^(1/2)", "q1", "1/2/(sqrt(q1))"),
        ("q1^(1/3)*p1", "q1", "1/3*p1/(q1^(2/3))"),
        ("q1*sqrt(1 + q2^2)", "q1", "sqrt(q2^2 + 1)"),
        ("q1*sqrt(1 + q2^2)", "q2", "q1*q2*sqrt(q2^2 + 1)/(q2^2 + 1)"),
        ("q1*p1^2", "q1", "p1^2"),
        ("Omega^3*p1", "q1", "0"),
        ("Omega^3*p1", "p1", "Omega^3"),
        ("ln(q1^2 + 1)", "q1", "2*q1/(q1^2 + 1)"),
    ):
        assert str(differentiate(parse(text, osc_space), name)) == printed


def test_differentiation_linearity_property(osc_space):
    rng = random.Random(11)
    for _ in range(60):
        e1 = random_poly(rng, osc_space, trig=True)
        e2 = random_poly(rng, osc_space, trig=True)
        a = symexpr.rational(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
        b = symexpr.rational(rng.randint(-3, 3))
        name = rng.choice(osc_space.coords)
        lhs = differentiate(a * e1 + b * e2, name)
        rhs = a * differentiate(e1, name) + b * differentiate(e2, name)
        assert (lhs - rhs).is_zero_expr


def test_product_rule_property(osc_space):
    rng = random.Random(13)
    cfg = ProbeConfig(count=32, seed=3)
    for _ in range(60):
        e1 = random_poly(rng, osc_space, trig=True)
        e2 = random_poly(rng, osc_space, trig=True)
        name = rng.choice(osc_space.coords)
        residual = (differentiate(e1 * e2, name)
                    - e1 * differentiate(e2, name)
                    - e2 * differentiate(e1, name))
        assert is_zero(residual, osc_space, cfg).is_zero


def test_derivative_matches_finite_differences(pend_space):
    rng = random.Random(17)
    h = parse("p_theta^2/2 + p_phi^2*(1+tan(theta)^2)/2 + Omega^2*(1+sin(theta))",
              pend_space)
    candidates = [
        h,
        parse("sin(theta)*p_phi + cos(theta)^3", pend_space),
        parse("tan(theta)*p_theta^2", pend_space),
        parse("(p_theta + 1)/(2 + sin(theta))", pend_space),
        # symbol powers: fractional above and below 1, exactly 1, a parameter
        parse("p_theta^(3/2)*sin(phi)", pend_space),
        parse("p_theta^(1/2)", pend_space),
        parse("theta*sqrt(1 + p_phi^2)", pend_space),
        parse("Omega^2*theta*p_phi^3", pend_space),
    ]
    step = 1e-5
    checked = 0
    for e in candidates:
        for name in pend_space.coords:
            d = differentiate(e, name)
            idx = pend_space.coord_index(name)
            valid = 0
            while valid < 7:  # seven points in the domain for every partial
                point = [rng.uniform(-1.0, 1.0) for _ in pend_space.coords]
                plus = list(point)
                minus = list(point)
                plus[idx] += step
                minus[idx] -= step
                try:
                    fd = (eval_numeric(e, plus, pend_space)
                          - eval_numeric(e, minus, pend_space)) / (2 * step)
                    exact = eval_numeric(d, point, pend_space)
                except EvalDomainError:
                    continue
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
                valid += 1
            checked += valid
    assert checked >= 100


# -- numeric evaluation -------------------------------------------------------

def test_eval_simple(pend_space):
    assert eval_numeric(parse("p_phi", pend_space), (0, 0, 0, 2), pend_space) == 2.0


def test_eval_domain_errors(osc_space):
    with pytest.raises(EvalDomainError) as err:
        eval_numeric(parse("1/q1", osc_space), (0.0, 0, 0, 0), osc_space)
    assert "q1" in str(err.value)
    with pytest.raises(EvalDomainError):
        eval_numeric(parse("ln(q1)", osc_space), (-1.0, 0, 0, 0), osc_space)
    with pytest.raises(EvalDomainError):
        eval_numeric(parse("sqrt(q1)", osc_space), (-1.0, 0, 0, 0), osc_space)
    with pytest.raises(EvalDomainError):
        eval_numeric(parse("tan(q1)", osc_space), (math.pi / 2, 0, 0, 0), osc_space)


# -- generated code: compile_numeric with a source that lists the components --

def _components(codes):
    """A compile_numeric source: f(x, d) -> the components' values at x."""
    return ["return [" + ", ".join(codes) + "]"]


def _scalar(e, space):
    """f(x) -> e's value, from a one-component compile."""
    fn = symexpr.compile_numeric((e,), space, _components)
    return lambda x: fn(x, None)[0]


def test_tuple_compile_matches_scalar_compiles(osc_space):
    rng = random.Random(3)
    comps = tuple(random_poly(rng, osc_space, degree=3, trig=True) for _ in range(4))
    comps += (parse("Omega^2*q1/(1 + q2^2)", osc_space), symexpr.ZERO)
    fields = osc_space.compile(comps, _components)
    assert osc_space.compile(comps, _components) is fields
    for point in ProbeConfig(count=4).points(osc_space):
        want = [_scalar(c, osc_space)(point) for c in comps]
        assert [v.hex() for v in fields(point, None)] == [v.hex() for v in want]
    # the first faulting component raises, as a loop over scalar compiles would
    faulty = (parse("q2", osc_space), parse("ln(q1)", osc_space), parse("1/q1", osc_space))
    point = (0.0, 0.5, 0.0, 0.0)
    with pytest.raises(EvalDomainError) as err:
        osc_space.compile(faulty, _components)(point, None)
    with pytest.raises(EvalDomainError) as first:
        [_scalar(c, osc_space)(point) for c in faulty]
    assert str(err.value) == str(first.value)
    assert "logarithm" in str(err.value)
    # a float overflow names its component too, not the whole tuple
    faulty = (parse("q2", osc_space), parse("exp(q1)", osc_space), parse("1/q2", osc_space))
    point = (800.0, 0.5, 0.0, 0.0)
    with pytest.raises(EvalDomainError) as err:
        osc_space.compile(faulty, _components)(point, None)
    with pytest.raises(EvalDomainError) as first:
        [_scalar(c, osc_space)(point) for c in faulty]
    assert str(err.value) == str(first.value) == "float overflow in subexpression: exp(q1)"


@pytest.mark.parametrize("texts, point, message", [
    (("q2", "exp(q1)", "1/q2"), (800.0, 0.5, 0.0, 0.0),
     "float overflow in subexpression: exp(q1)"),
    (("q2", "p1 + cos(1e300*q1^3)", "1/q2"), (1000.0, 0.5, 0.0, 0.0),
     "math domain error in subexpression: cos(" + "1" + "0" * 52 + "..."),
], ids=["exp-overflow", "cos-of-inf"])
def test_tuple_fault_names_its_component_without_compiling_the_components(texts, point,
                                                                          message, built_code):
    # the component search walks each component; a fresh space, so that no
    # cached compile of a component could hide a build
    space = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    fields = space.compile(tuple(parse(t, space) for t in texts), _components)
    assert len(built_code) == 1
    with pytest.raises(EvalDomainError) as err:
        fields(point, None)
    assert str(err.value) == message
    assert len(built_code) == 1


@pytest.mark.parametrize("texts, point, message, once", [
    (("q2", "p1*exp(q1)", "exp(q1) + p2", "exp(q1)^2"), (800.0, 0.5, 1.0, 0.0),
     "float overflow in subexpression: p1*exp(q1)", ["exp"]),
    (("q2", "p1*tan(q1)^2", "tan(q1) + 1/tan(q1)"), (math.pi / 2, 0.5, 1.0, 0.0),
     "tangent pole in subexpression: tan(q1)", ["cos", "sin"]),
], ids=["exp-overflow", "tan-pole"])
def test_repeated_atom_is_evaluated_once_and_faults_at_its_first_use(osc_space, monkeypatch,
                                                                     texts, point, message,
                                                                     once):
    # the tuple's code evaluates exp(q1), or the cos(q1) and sin(q1) whose
    # quotient is tan(q1), at its first use only, and calls the tangent's
    # guard only at the pole; a fault there still names the first component
    # that uses it
    comps = tuple(parse(t, osc_space) for t in texts)
    fields = symexpr.compile_numeric(comps, osc_space, _components)
    with pytest.raises(EvalDomainError) as err:
        fields(point, None)
    with pytest.raises(EvalDomainError) as first:
        [symexpr.interpret(c, osc_space)(point) for c in comps]
    assert str(err.value) == str(first.value) == message
    calls = []
    tan = fields.__globals__["_tan"]

    def counted(name):
        f = getattr(math, name)
        return lambda x: calls.append(name) or f(x)

    for name in ("exp", "cos", "sin"):
        monkeypatch.setitem(fields.__globals__, f"_{name}", counted(name))
    monkeypatch.setitem(fields.__globals__, "_tan", lambda x, a: calls.append("tan") or tan(x, a))
    inside = (0.5, 0.25, 0.75, -0.5)
    assert fields(inside, None) == [symexpr.interpret(c, osc_space)(inside) for c in comps]
    assert calls == once


def test_shared_product_of_adjacent_terms_is_computed_once(osc_space):
    # 5/2*p1^2*(q2^2 + q2 + 1): the three terms share the leading product
    # 2.5*p1**2, which the code computes once and stores; 5/2*p1^2*q2 + p2
    # follows in another component, where p1**2 is taken again
    comps = (parse("5*p1^2*(q2^2 + q2 + 1)/2", osc_space), parse("5*p1^2*q2/2 + p2", osc_space))
    fields = symexpr.compile_numeric(comps, osc_space, _components)
    point = (0.5, 0.25, CountingFloat(0.75), -0.5)
    CountingFloat.powers = 0
    values = fields(point, None)
    assert CountingFloat.powers == 2
    assert [v.hex() for v in values] == [
        symexpr.interpret(c, osc_space)(tuple(map(float, point))).hex() for c in comps]
    # the same terms with unequal coefficients share nothing
    fields = symexpr.compile_numeric((parse("p1^2*(3*q2^2 + 2*q2 + 1)", osc_space),),
                                     osc_space, _components)
    CountingFloat.powers = 0
    fields(point, None)
    assert CountingFloat.powers == 3


# (expression, faulting point, message): one case per guard, the messages as
# they were when the guard labels were printed at compile time
GUARD_FAULTS = [
    ("(q2 + p1^2 + 3*p2^3 + Omega^2*q2*p1 + p1*p2*q2^2)/(q1 - 1)", (1.0, 0.5, 0.25, 0.75),
     "division by zero in subexpression: "
     "(p1*p2*q2^2 + Omega^2*p1*q2 + 3*p2^3 + p1^2 + q2)/(q1 - 1)"),
    ("p1 + tan(q1 + q2^2)", (math.pi / 2, 0.0, 0.0, 0.0),
     "tangent pole in subexpression: tan(q2^2 + q1)"),
    ("p2*ln(q1 - q2 + p1^2*p2^2 + Omega*q1*q2*p1*p2 + 3*q2^4 + q1^5 - 1)", (0.0, 0.0, 0.0, 0.0),
     "logarithm of a nonpositive value in subexpression: "
     "ln(q1^5 + Omega*p1*p2*q1*q2 + 3*q2^4 + p1^2*p2^2 - q2 + q..."),
    ("p1*(q1 - 2*q2^3 + p2)^(3/2)", (0.5, 1.0, 0.0, 0.0),
     "fractional power of a negative value in subexpression: -2*q2^3 + q1 + p2"),
]


def test_guard_labels_are_printed_only_on_the_fault_path(osc_space, monkeypatch):
    exprs = [parse(text, osc_space) for text, _, _ in GUARD_FAULTS]
    printed = []
    to_string = symexpr.to_string

    def counting(e):
        printed.append(e)
        return to_string(e)

    monkeypatch.setattr(symexpr, "to_string", counting)
    fields = symexpr.compile_numeric((symexpr.symbol("q1"), *exprs), osc_space, _components)
    scalars = [_scalar(e, osc_space) for e in exprs]
    assert printed == []
    for (text, point, message), scalar in zip(GUARD_FAULTS, scalars):
        with pytest.raises(EvalDomainError) as err:
            scalar(point)
        assert str(err.value) == message
    with pytest.raises(EvalDomainError) as err:
        fields(GUARD_FAULTS[1][1], None)
    assert str(err.value) == GUARD_FAULTS[1][2]
    assert printed


def test_parameters_bind_at_compile_time_without_shadowing():
    # parameters named like the point, the second argument, the helpers or
    # the math module, and a negative value under an even power
    space = PhaseSpace(1, ["q", "p"], {"x": -2.0, "math": 3.0, "_div": 0.5, "p_": -1.5,
                                       "d": 4.0})
    e = parse("x^2*q + math*p + _div/(q + 1) + p_^3", space)
    q, p = 0.25, -0.75
    want = (-2.0) ** 2 * q + 3.0 * p + 0.5 / (q + 1) + (-1.5) ** 3
    assert eval_numeric(e, (q, p), space) == pytest.approx(want, rel=1e-15)
    fields = space.compile((e, parse("x", space), parse("d", space)), _components)
    values = fields((q, p), None)
    assert values[1:] == [-2.0, 4.0]
    # (-2.0)**2, not -2.0**2 = -4.0: the literal keeps its parentheses
    assert values[0].hex() == eval_numeric(e, (q, p), space).hex()


def test_constant_beyond_float_range_is_an_expr_error(osc_space):
    with pytest.raises(symexpr.ExprError, match="float range"):
        osc_space.compile((parse("1e400*q1", osc_space),), _components)
    with pytest.raises(symexpr.ExprError, match="float range"):
        is_zero(parse("1e400", osc_space), osc_space)


def test_float_overflow_is_a_domain_fault(osc_space):
    exp = _scalar(parse("exp(q1)", osc_space), osc_space)
    with pytest.raises(symexpr.EvalDomainError, match="float overflow"):
        exp((800.0, 0.0, 0.0, 0.0))
    field = osc_space.compile((parse("q1", osc_space), parse("q2^400", osc_space)), _components)
    assert field((1.0, 2.0, 0.0, 0.0), None) == [1.0, 2.0 ** 400]
    with pytest.raises(symexpr.EvalDomainError, match="float overflow"):
        field((1.0, 1e300, 0.0, 0.0), None)


def test_math_domain_error_is_a_domain_fault(osc_space):
    # 1e300*q1^3 overflows to inf without raising; sin(inf) raises ValueError
    fn = _scalar(parse("sin(1e300*q1^3)", osc_space), osc_space)
    assert fn((0.5, 0.0, 0.0, 0.0)) == math.sin(1e300 * 0.5 ** 3)
    with pytest.raises(EvalDomainError, match="math domain error"):
        fn((1000.0, 0.0, 0.0, 0.0))
    field = osc_space.compile((parse("q1", osc_space), parse("cos(1e300*q1^3)", osc_space)),
                              _components)
    with pytest.raises(EvalDomainError, match="math domain error"):
        field((1000.0, 0.0, 0.0, 0.0), None)


def test_too_deep_to_compile_is_an_expr_error(osc_space):
    # built without the parser, so its nesting limit does not apply; the
    # generated code nests two parentheses per sin
    e = symexpr.symbol("q1")
    for _ in range(100):
        e = symexpr.func("sin", e)
    with pytest.raises(symexpr.ExprError, match="too deeply nested to compile"):
        symexpr.compile_numeric((e,), osc_space, _components)


def test_exponent_beyond_float_range_is_an_expr_error(osc_space):
    with pytest.raises(symexpr.ExprError, match="exponent exceeds the float range"):
        osc_space.compile((parse("p1^2/2 + q1^(10^400)", osc_space),), _components)


# -- interpreted evaluation: the first probe builds no code -------------------

def _outcome(fn, point):
    try:
        return repr(fn(point))
    except EvalDomainError as exc:
        return f"fault: {exc}"


def _evaluation_corpus(space):
    """Seeded polynomials (with the parameter k), trig corpus entries,
    quotients, fractional powers and roots, and ln, tan and exp of
    polynomials."""
    rng = random.Random("evaluation-corpus")

    def poly(degree=3, terms=3):
        p = symexpr.ZERO
        while p.is_rational:
            p = random_poly(rng, space, degree=degree, terms=terms, names=("q1", "q2", "p1", "k"))
        return p

    exprs = [poly() for _ in range(15)]
    exprs += [parse(text, space) for text in trig_corpus(count=40) if "/" not in text]
    exprs += [poly() / poly(2, 2) for _ in range(15)]
    exprs += [poly() ** rng.choice((Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2), Fraction(2, 3)))
              for _ in range(15)]
    exprs += [poly() * symexpr.func("sqrt", poly(2, 2)) for _ in range(10)]
    for fname in ("ln", "tan", "exp"):
        exprs += [poly(2, 2) + symexpr.func(fname, poly(2, 2)) * poly(1, 2) for _ in range(10)]
    return exprs


def test_interpreted_and_compiled_evaluation_agree_bit_for_bit():
    space = small_space()
    base = list(ProbeConfig(count=2).points(space))
    # scaled points reach float overflow, inf arguments and tangent poles too
    points = base + [tuple(scale * v for v in p) for p in base[:4] for scale in (40.0, 1e103)]
    faults = set()
    for e in _evaluation_corpus(space) + [parse("p1 + cos(1e300*q1*q2)", space)]:
        interpreted, compiled = symexpr.interpret(e, space), _scalar(e, space)
        for point in points:
            got = _outcome(interpreted, point)
            assert got == _outcome(compiled, point), (str(e), point)
            faults.add(got.split(" in subexpression")[0] if got.startswith("fault") else "value")
    assert faults >= {"value", "fault: float overflow", "fault: math domain error",
                      "fault: logarithm of a nonpositive value",
                      "fault: fractional power of a negative value"}


INTERPRETED_FAULTS = GUARD_FAULTS + [
    ("p2 + exp(q1)", (800.0, 0.0, 0.0, 0.0), "float overflow in subexpression: exp(q1) + p2"),
    ("sin(1e300*q1^3)", (1000.0, 0.0, 0.0, 0.0),
     "math domain error in subexpression: sin(" + "1" + "0" * 52 + "..."),
]


@pytest.mark.parametrize("text, point, message", INTERPRETED_FAULTS,
                         ids=["division", "tan-pole", "ln", "fractional-power", "exp-overflow",
                              "sin-of-inf"])
def test_interpreted_fault_is_the_compiled_fault(osc_space, text, point, message):
    e = parse(text, osc_space)
    with pytest.raises(EvalDomainError) as interpreted:
        symexpr.interpret(e, osc_space)(point)
    with pytest.raises(EvalDomainError) as compiled:
        _scalar(e, osc_space)(point)
    assert str(interpreted.value) == str(compiled.value) == message


def _compiled_is_zero(e, space, config):
    """is_zero on the compiled function alone, as a reference: an Expr in
    the exact class is read modulo P before any probe, a zero residue
    decides with none, and a nonzero one takes the first valid probe as
    its witness."""
    r = symexpr._poly_residue(e.num, config.residues(space)[0], *symexpr._read_scales(e)[0])
    if r == 0:
        return (symexpr.NUMERIC_ZERO, 0, repr(0.0), repr(None), None)
    fn, valid, max_abs = _scalar(e, space), 0, 0.0
    for point in config.points(space):
        try:
            v = fn(point)
        except EvalDomainError:
            continue
        if not math.isfinite(v):
            continue
        valid += 1
        if r or abs(v) > config.tolerance:
            return (symexpr.NONZERO, valid, repr(abs(v)), repr(v), point)
        max_abs = max(max_abs, abs(v))
        if valid >= config.count:
            return (symexpr.NUMERIC_ZERO, valid, repr(max_abs), repr(None), None)
    return None


def test_is_zero_verdicts_match_compiled_probing():
    space = small_space()
    config = ProbeConfig(count=16)
    exprs = _evaluation_corpus(space)
    # below tolerance at every probe: a nonzero that its residue proves
    # nonzero, a trig identity that its residue calls zero, and a
    # root, outside the exact class, that the probes call zero
    exprs += [parse("1e-12*q1*p1", space),
              parse("sin(q1)^4 - cos(q1)^4 - sin(q1)^2 + cos(q1)^2", space),
              parse("1e-12*sqrt(1 + q1^2)", space)]
    kinds = set()
    for e in exprs:
        if e.is_rational:
            continue
        try:
            v = is_zero(e, space, config)
        except symexpr.NoValidProbesError:
            assert _compiled_is_zero(e, space, config) is None
            continue
        kinds.add((v.kind, v.modular))
        got = (v.kind, v.probes, repr(v.max_abs), repr(v.witness_value), v.witness_point)
        assert got == _compiled_is_zero(e, space, config), str(e)
    assert kinds == {(symexpr.NONZERO, False), (symexpr.NONZERO, True),
                     (symexpr.NUMERIC_ZERO, True), (symexpr.NUMERIC_ZERO, False)}


def test_is_zero_decided_at_its_first_valid_probe_compiles_nothing(built_code):
    space = PhaseSpace(2, ["q1", "q2", "p1", "p2"], {"Omega": 1.0})  # an empty cache
    v = is_zero(parse("q1*p2 - 3*Omega*q2^2", space), space)
    assert (v.kind, v.probes) == (symexpr.NONZERO, 1)
    # points outside the domain are skipped on the way to the first valid one
    v = is_zero(parse("ln(q1)", space), space)
    assert (v.kind, v.probes) == (symexpr.NONZERO, 1)
    # a valid probe below tolerance: the residue decides in the exact class,
    # and outside it the remaining probes are walked too, and so is
    # eval_numeric's point
    v = is_zero(parse("1e-12*q1", space), space)
    assert (v.kind, v.probes, v.modular) == (symexpr.NONZERO, 1, True)
    e = parse("1e-12*sqrt(1 + q1^2)", space)
    v = is_zero(e, space)
    assert (v.kind, v.probes, v.modular) == (symexpr.NUMERIC_ZERO, 64, False)
    assert eval_numeric(e, (0.0, 0.0, 0.0, 0.0), space) == 1e-12
    assert built_code == []


@pytest.mark.parametrize("text, what", [("p1^2/2 + q1^(10^400)", "an exponent"),
                                        ("q1^(10^400)", "an exponent"),
                                        ("p1 + sin(2*q1^(10^400)*p2)", "an exponent"),
                                        ("Omega^(10^400)*q1", "an exponent"),
                                        ("1e400*q1^2", "a constant")])
def test_is_zero_beyond_float_range_raises_before_any_probe(osc_space, monkeypatch, text, what):
    drawn = []
    points = ProbeConfig.points

    def counted(config, space):
        for point in points(config, space):
            drawn.append(point)
            yield point

    monkeypatch.setattr(ProbeConfig, "points", counted)
    with pytest.raises(symexpr.ExprError, match=f"{what} exceeds the float range"):
        is_zero(parse(text, osc_space), osc_space)
    assert drawn == []


def test_is_zero_interprets_what_is_too_deep_to_compile(osc_space):
    # built without the parser, whose nesting limit keeps files far below
    # this: 120 nested sins are too deep for compile(), not for the
    # interpreter, so is_zero decides with no code; 400 are too deep for
    # both, and is_zero reports it as an ExprError
    def nested(depth):
        e = symexpr.symbol("q1") + symexpr.symbol("p1")
        for _ in range(depth):
            e = symexpr.func("sin", e)
        return e

    with pytest.raises(symexpr.ExprError, match="too deeply nested to compile"):
        symexpr.compile_numeric((nested(120),), osc_space, _components)
    assert is_zero(nested(120), osc_space).kind == symexpr.NONZERO
    with pytest.raises(symexpr.ExprError, match="too deeply nested to evaluate"):
        is_zero(nested(400), osc_space)


class _ClosureInterpreter(symexpr._Interpreter):
    """The walk with every factor a closure, coordinates through `atom`'s
    itemgetter: the evaluator as it was before coordinate powers were read
    inline, kept as the oracle."""

    def factor(self, a, e):
        base = self.atom(a)
        if e == 1:
            return base
        symexpr._float(e, "an exponent")
        p, q, pow_ = e.numerator, e.denominator, self.pow
        if q == 1:
            return lambda x: base(x) ** p
        return lambda x: pow_(base(x), p, q, a)


def _power_corpus(space):
    """Seeded sums of products of coordinate powers (exponents 1, 2 and
    400) with a parameter power, a fractional coordinate power and
    function atoms, some of whose arguments are coordinate powers too."""
    rng = random.Random("coordinate-powers")
    others = ["k^2", "q2^(3/2)", "sin(q1^2)", "cos(p1)^2", "sqrt(p2^2 + 1)", "exp(q2^400)"]

    def factor():
        if rng.random() < 0.7:
            return f"{rng.choice(space.coords)}^{rng.choice((1, 2, 400))}"
        return rng.choice(others)

    def term():
        coeff = rng.choice(("", "-", "3*", "-1/2*", "1e-300*"))
        return coeff + "*".join(factor() for _ in range(rng.randint(1, 3)))
    return [parse(" + ".join(term() for _ in range(rng.randint(1, 4))), space)
            for _ in range(60)]


def _hex_outcome(fn, point):
    try:
        return fn(point).hex()
    except EvalDomainError as exc:
        return f"fault: {exc}"


def test_inline_coordinate_powers_match_the_compiled_code_and_the_closure_walk(monkeypatch):
    import numpy as np

    space = small_space()
    base = list(ProbeConfig(count=2).points(space))
    # scaled points overflow x^400 (a domain fault) and products (inf)
    scaled = [[tuple(s * v for v in p) for p in base] for s in (8.0, 1e103)]
    outcomes = set()
    corpus = _power_corpus(space)
    for e in corpus:
        interpreted, compiled = symexpr.interpret(e, space), _scalar(e, space)
        for point in base + scaled[0] + scaled[1]:
            got = _hex_outcome(interpreted, point)
            assert got == _hex_outcome(compiled, point), (str(e), point)
            outcomes.add(got.split(" in subexpression")[0] if got.startswith("fault") else
                         "inf" if got in ("inf", "-inf") else "value")
    assert outcomes >= {"value", "inf", "fault: float overflow"}
    # batch_values gives the closure walk's bytes, or None where it does
    batches = [np.array(rows) for rows in [base] + scaled]
    new = [[batch_values(e, space, states) for states in batches] for e in corpus]
    monkeypatch.setattr(symexpr, "_Interpreter", _ClosureInterpreter)
    old = [[batch_values(e, space, states) for states in batches] for e in corpus]
    decided = 0
    for e, got, expected in zip(corpus, new, old):
        for g, x in zip(got, expected):
            assert (g is None) == (x is None), str(e)
            if g is not None:
                assert g.tobytes() == x.tobytes(), str(e)
                decided += 1
    assert decided >= len(corpus)


@pytest.mark.parametrize("text", [
    "k^3*q - 2*k^2 - 1/3*z",  # leading a term, after its coefficient or alone
    "q*z^3 + p*q*z*k^2 - 2*q*k",  # trailing a coordinate
    "m^2*q - 3*q*m^4 + m^2",  # negative under an even power
    "k^(3/2)*q + 5*p*z^(1/3)",  # under a fractional power
    "q + m^(1/2)*p",  # a negative one under a fractional power: a fault
    "n^2*q + q*n",  # an int beyond 2^53, read as the float its literal is
], ids=["leading", "trailing", "negative-even", "fractional", "fractional-fault", "int"])
def test_walk_and_compiled_code_agree_on_parameters_in_every_position(text):
    # the walk takes a parameter's power at each evaluation, with the float
    # operations the compiler folds into the compiled code's constants, so
    # every value, and every fault, is the compiled code's bit for bit
    space = PhaseSpace(1, ["q", "p"], {"k": math.sqrt(0.5), "z": 1.3, "m": -math.sqrt(3),
                                       "n": 7 ** 20})
    points = [(0.3, -1.7), (2.5, 0.125), (-1e-3, 7.0), (1.0, 1.0), (0.5, 0.5)]
    e = parse(text, space)
    walked, compiled = symexpr.interpret(e, space), _scalar(e, space)
    assert [_hex_outcome(walked, x) for x in points] == [
        _hex_outcome(compiled, x) for x in points]


def test_compiled_code_folds_parameters_into_constants():
    # -k^2*q is -1.0*(1.3)**2*v0, which the compiler folds into one constant:
    # the code binds no parameter name and keeps no prelude local
    space = PhaseSpace(1, ["q", "p"], {"k": 1.3})
    e = parse("-k^2*q", space)
    code = symexpr.compile_numeric((e,), space, _components).__code__
    assert -1.6900000000000002 in code.co_consts
    assert not [n for n in code.co_names if n.startswith("_p_")]
    assert not [n for n in code.co_varnames if re.fullmatch(r"_c\d+", n)]
    assert _scalar(e, space)((2.0, 0.0)).hex() == symexpr.interpret(e, space)((2.0, 0.0)).hex()


def test_a_shared_product_of_literals_is_folded_not_stored():
    # -k^2*q - k^2*p: both terms begin with -1.0*(1.3)**2, literals alone,
    # which the compiler folds in each term, so no local _t<k> holds it.  A
    # shared fractional power of a parameter is a guard call, not a literal,
    # and is still computed once
    space = PhaseSpace(1, ["q", "p"], {"k": 1.3})
    points = [(2.0, 0.0), (0.7, -0.3), (-1e-3, 5.5), (1e300, 1e300)]
    for text, stored in (("-k^2*q - k^2*p", False), ("2*k^(1/2)*q + 2*k^(1/2)*p", True)):
        e = parse(text, space)
        code = symexpr.compile_numeric((e,), space, _components).__code__
        assert any(re.fullmatch(r"_t\d+", n) for n in code.co_varnames) == stored, text
        assert stored or -1.6900000000000002 in code.co_consts
        walked, compiled = symexpr.interpret(e, space), _scalar(e, space)
        assert [_hex_outcome(compiled, x) for x in points] == [
            _hex_outcome(walked, x) for x in points]


@pytest.mark.parametrize("value, message", [
    (math.inf, "needs a finite value"), (-math.inf, "needs a finite value"),
    (math.nan, "needs a finite value"), (10 ** 400, "exceeds the float range"),
])
def test_a_non_finite_parameter_value_is_an_expr_error(value, message):
    # compiled code writes the value as a float literal, which inf, nan and
    # an int beyond the float range have none of
    with pytest.raises(symexpr.ExprError, match=f"^parameter 'k' {message}"):
        PhaseSpace(1, ["q", "p"], {"k": value})


def test_an_overflowing_parameter_power_stays_a_fault_of_the_probe():
    # B^2 overflows: building the walk raises nothing, and each evaluation
    # raises the compiled code's domain fault, with its message
    space = PhaseSpace(1, ["q", "p"], {"B": 1e200, "k": 0.5})
    for text in ("B^2*q", "q*B^2 + k", "k*q + B^3"):
        e = parse(text, space)
        walked, compiled = symexpr.interpret(e, space), _scalar(e, space)
        for x in ((1.0, 2.0), (0.0, 0.0)):
            with pytest.raises(EvalDomainError) as fault:
                walked(x)
            with pytest.raises(EvalDomainError) as expected:
                compiled(x)
            assert str(fault.value) == str(expected.value)
            assert str(fault.value).startswith("float overflow in subexpression: ")


def test_substitute(osc_space):
    e = parse("q1^2 + sin(q2)", osc_space)
    mapped = substitute(e, {"q1": parse("2*p1", osc_space),
                            "q2": symexpr.ZERO})
    assert mapped == parse("4*p1^2", osc_space)


def test_at_parameter_values_reads_each_value_as_its_decimal():
    sp = PhaseSpace(1, ["q", "p"], {"k": 0.1, "m": 4567e-7, "s": 2.0})
    e = parse("k*q + m*sqrt(s)*p + sin(k*q)", sp)
    assert symexpr.at_parameter_values(e, sp) == parse(
        "1/10*q + 4567/10000000*sqrt(2)*p + sin(1/10*q)", sp)
    free = parse("q^2 + p", sp)
    assert symexpr.at_parameter_values(free, sp) is free


# -- zero and constant verdicts ----------------------------------------------

def test_is_zero_symbolic(pend_space):
    assert is_zero(symexpr.ZERO, pend_space).kind == symexpr.SYMBOLIC_ZERO


def test_is_zero_nonzero_witness(osc_space, probes):
    e = parse("2*(p1*p2 + Omega^2*q1*q2)", osc_space)
    v = is_zero(e, osc_space, probes)
    assert v.kind == symexpr.NONZERO
    # witness re-evaluates to the reported value
    assert eval_numeric(e, v.witness_point, osc_space) == pytest.approx(v.witness_value)
    assert abs(v.witness_value) > probes.tolerance


def test_is_zero_numeric_certificate(osc_space):
    # sin(q1/2)^2 - (1 - cos(q1))/2 is identically zero, but a half-angle
    # argument is outside the exact class, so only the probes can tell
    e = _numeric_zero()
    v = is_zero(e, osc_space)
    assert v.kind == symexpr.NUMERIC_ZERO
    assert v.numeric
    assert v.probes == 64


def test_nonzero_never_mislabeled(osc_space):
    rng = random.Random(23)
    cfg = ProbeConfig(count=32, seed=9)
    for _ in range(40):
        e = random_poly(rng, osc_space, trig=True)
        v = is_zero(e, osc_space, cfg)
        if v.is_zero:
            # verdict says zero: independent confirmation at fresh probes
            check = ProbeConfig(count=16, seed=1234)
            for point in list(check.points(osc_space))[:16]:
                try:
                    val = eval_numeric(e, point, osc_space)
                except EvalDomainError:
                    continue
                assert abs(val) <= 10 * cfg.tolerance


def test_no_valid_probes(osc_space):
    e = parse("sqrt(-1 - q1^2)", osc_space)
    with pytest.raises(symexpr.NoValidProbesError):
        is_zero(e, osc_space)


def test_is_constant(osc_space, probes):
    v = is_constant(parse("3/2", osc_space), osc_space, probes)
    assert v.is_constant and v.value == symexpr.rational(Fraction(3, 2))
    v2 = is_constant(symexpr.symbol("q1"), osc_space, probes)
    assert not v2.is_constant
    assert v2.witness_coord == "q1"
    v3 = is_constant(parse("Omega^2", osc_space), osc_space, probes)
    assert v3.is_constant and v3.symbolic
    # a coordinate the canonical form keeps: the value is read at the box centre
    v4 = is_constant(parse("ln(exp(q1)) - q1 + 2", osc_space), osc_space, probes)
    assert v4.is_constant and not v4.symbolic
    assert v4.value is None and v4.numeric_value == 2.0


def _numeric_zero():
    """The half-angle formula sin(q1/2)^2 - (1 - cos(q1))/2: zero, but only
    detectable by probing, since q1/2 is no integer-linear argument."""
    q1, half = symexpr.symbol("q1"), symexpr.rational(Fraction(1, 2))
    s = symexpr.func("sin", q1 * half)
    return s * s - (symexpr.ONE - symexpr.func("cos", q1)) * half


def test_aggregate_zero_first_nonzero_wins(osc_space, probes):
    never = parse("q1 - q1 + p2", osc_space)  # must not be reached
    entries = iter([symexpr.ZERO, _numeric_zero(),
                    parse("p1*q2", osc_space), never])
    v, i = aggregate_zero(entries, osc_space, probes)
    assert v.kind == symexpr.NONZERO and i == 2
    assert eval_numeric(parse("p1*q2", osc_space), v.witness_point,
                        osc_space) == pytest.approx(v.witness_value)
    assert next(entries) is never  # tested lazily, stopped at the witness


def test_aggregate_zero_numeric(osc_space, probes):
    v, i = aggregate_zero([symexpr.ZERO, _numeric_zero(), symexpr.ZERO],
                          osc_space, probes)
    assert v.kind == symexpr.NUMERIC_ZERO and v.probes == probes.count
    assert i is None


def test_aggregate_zero_symbolic(osc_space, probes):
    for entries in ([], [symexpr.ZERO, parse("q1 - q1", osc_space)]):
        v, i = aggregate_zero(entries, osc_space, probes)
        assert vars(v) == vars(symexpr.ZeroVerdict(symexpr.SYMBOLIC_ZERO, seed=probes.seed))
        assert i is None


# -- probe points: drawn once per phase space ---------------------------------

def _fresh_draw(seed, space, n):
    rng = random.Random(f"probe:{seed}")
    boxes = [space.box(name) for name in space.coords]
    return [tuple(rng.uniform(lo, hi) for lo, hi in boxes) for _ in range(n)]


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("count", [1, 4, 64])
def test_shared_probe_points_are_a_fresh_seeded_draw(count, seed):
    limit = count * symexpr.PROBE_RESAMPLE_FACTOR
    config = ProbeConfig(count=count, seed=seed)
    for domain in (None, {"q1": (-3.0, 0.5), "p2": (2.0, 2.25)}):
        space = PhaseSpace(2, ["q1", "q2", "p1", "p2"], {"k": 1.0}, domain)
        expected = _fresh_draw(seed, space, limit)
        # a short read, then reads past count to the end of the sequence
        assert list(islice(config.points(space), 3)) == expected[:3]
        assert list(config.points(space)) == expected
        assert list(config.points(space)) == expected
        # two generators on one space, interleaved: the leader draws, the
        # other reads what was drawn
        fresh = PhaseSpace(2, space.coords, {"k": 1.0}, domain)
        lead, follow = config.points(fresh), config.points(fresh)
        got_lead, got_follow = [next(lead) for _ in range(min(5, limit))], []
        for point in lead:
            got_lead.append(point)
            got_follow.append(next(follow))
        got_follow += list(follow)
        assert got_lead == got_follow == expected
        # another count extends the same sequence; another seed is its own
        longer = ProbeConfig(count=count + 1, seed=seed)
        assert list(longer.points(space)) == _fresh_draw(seed, space, limit + 8)
        other = ProbeConfig(count=count + 1, seed=seed + 1)
        assert list(other.points(space)) == _fresh_draw(seed + 1, space, limit + 8)


def test_domain_and_parameters_are_read_only():
    # the probe points, the box center and the compiled runs cached on a
    # space rest on its boxes and parameter values, so neither can change
    space = PhaseSpace(1, ["q", "p"], {"k": 1.0}, {"q": (0.0, 2.0)})
    with pytest.raises(TypeError):
        space.domain["q"] = (1.0, 1.0)
    with pytest.raises(TypeError):
        space.parameters["k"] = 3.0
    assert dict(space.domain) == {"q": (0.0, 2.0)} and dict(space.parameters) == {"k": 1.0}


@pytest.fixture
def generators(monkeypatch):
    """The seeds of the generators that symexpr builds, and the draws they make."""
    built, draws = [], []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

        def uniform(self, lo, hi):
            draws.append((lo, hi))
            return super().uniform(lo, hi)

    monkeypatch.setattr(symexpr, "random", types.SimpleNamespace(Random=CountingRandom))
    return built, draws


def test_probe_points_are_drawn_lazily_and_once(generators):
    built, draws = generators
    space, config = PhaseSpace(2, ["q1", "q2", "p1", "p2"]), ProbeConfig(count=4)
    # the residue, from its own generator, is read first: a zero residue
    # decides before any probe point is drawn
    zero = parse("sin(q1)^4 - cos(q1)^4 - sin(q1)^2 + cos(q1)^2", space)
    assert is_zero(zero, space, config).probes == 0
    assert (built, len(draws)) == (["residue:42"], 0)
    # never beyond the furthest point asked for: a nonzero residue takes
    # the first valid point as its witness
    assert is_zero(parse("q1*p2", space), space, config).probes == 1
    assert (built, len(draws)) == (["residue:42", "probe:42"], 4)
    assert next(iter(config.points(space))) == _fresh_draw(42, space, 1)[0]
    # a residue decides a tiny nonzero at the first point
    assert is_zero(parse("1e-12*q1", space), space, config).kind == symexpr.NONZERO
    assert (built, len(draws)) == (["residue:42", "probe:42"], 4)
    # outside the exact class the probes go on
    assert is_zero(parse("1e-12*sqrt(1 + q1^2)", space), space,
                   config).kind == symexpr.NUMERIC_ZERO
    assert (built, len(draws)) == (["residue:42", "probe:42"], 4 * 4)


def test_classify_builds_one_generator_per_space_and_key(generators, monkeypatch):
    # every zero test and dependence screen of a classify walk reads the
    # same seeded points and residue points
    built, _ = generators
    keys, calls = set(), []
    points, residues = ProbeConfig.points, ProbeConfig.residues

    def counted(config, space):
        calls.append(space)
        keys.add((id(space), config.seed, config.count))
        return points(config, space)

    def counted_residues(config, space):
        calls.append(space)
        return residues(config, space)

    monkeypatch.setattr(ProbeConfig, "points", counted)
    monkeypatch.setattr(ProbeConfig, "residues", counted_residues)
    source = BUNDLED_EXAMPLES["iso_oscillator.sys"]
    sf = parse_system_text(source, name_hint="iso_oscillator.sys")
    system = make_system(sf.space, sf.symplectic, sf.hamiltonian)
    classify(candidate_named(sf, "Z"), system, ClassifyConfig())
    assert len(calls) >= 10 * len(keys)
    # one probe and one residue generator per space and seed
    assert sorted(built) == sorted(f"{kind}:{seed}" for _, seed, _ in keys
                                   for kind in ("probe", "residue"))


def test_phase_space_validation():
    with pytest.raises(symexpr.ExprError):
        PhaseSpace(2, ["q1", "q2", "p1"])  # wrong count
    with pytest.raises(symexpr.ExprError):
        PhaseSpace(1, ["q", "q"])  # duplicate
    with pytest.raises(symexpr.ExprError):
        PhaseSpace(1, ["q", "p"], {"q": 1.0})  # clash
    for name, box in [("qq", (0.0, 1.0)), ("k", (0.0, 1.0)), ("q", (1.0, 1.0)),
                      ("q", (2.0, 1.0)), ("p", (float("nan"), 1.0)),
                      ("p", (float("-inf"), 1.0)), ("p", (0.0, float("inf")))]:
        with pytest.raises(symexpr.ProbeBoxError) as err:  # no coordinate, or not lo < hi
            PhaseSpace(1, ["q", "p"], {"k": 1.0}, {"q": (0.0, 1.0), name: box})
        assert err.value.name == name
    assert PhaseSpace(1, ["q", "p"], domain={"q": (0.0, 1e-300)}).box("q") == (0.0, 1e-300)
