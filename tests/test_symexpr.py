import functools
import math
import random
from fractions import Fraction

import pytest

from hamsym import symexpr
from hamsym.symexpr import (
    EvalDomainError,
    ParseError,
    PhaseSpace,
    ProbeConfig,
    UnknownIdentifierError,
    aggregate_zero,
    differentiate,
    eval_numeric,
    is_constant,
    is_zero,
    parse,
    substitute,
)

from genutil import random_poly


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


def test_parse_unknown_identifier(pend_space):
    with pytest.raises(UnknownIdentifierError):
        parse("theta + bogus", pend_space)


def test_parse_unknown_function(pend_space):
    with pytest.raises(UnknownIdentifierError):
        parse("sinh(theta)", pend_space)


def test_parse_function_arity(pend_space):
    with pytest.raises(ParseError):
        parse("sin(theta, phi)", pend_space)


def test_parse_precedence(pend_space):
    assert parse("-theta^2", pend_space) == -(symexpr.symbol("theta") ** 2)
    assert parse("2^2^3", pend_space) == symexpr.rational(256)
    assert parse("1 - 2 - 3", pend_space) == symexpr.rational(-4)
    assert parse("6/2/3", pend_space) == symexpr.rational(1)


def test_parse_rational_exponent_only(pend_space):
    assert parse("theta^(1/2)", pend_space) == symexpr.pow_(
        symexpr.symbol("theta"), Fraction(1, 2))
    with pytest.raises(ParseError):
        parse("2^theta", pend_space)


def test_parse_scientific_literals(pend_space):
    assert parse("1e-3", pend_space) == symexpr.rational(Fraction(1, 1000))
    assert parse("2.5", pend_space) == symexpr.rational(Fraction(5, 2))


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


def test_print_parse_round_trip(pend_space):
    texts = [
        "p_theta^2/2 + p_phi^2*(1+tan(theta)^2)/2 + Omega^2*(1+sin(theta))",
        "sin(theta)*cos(phi) - 3/2*p_theta",
        "sqrt(1 + theta^2)",
        "(theta + 1)/(p_theta^2 + 1)",
        "(1 + theta)^(2/3)",
        "theta^(3/2) - 1/phi",
    ]
    for text in texts:
        e = parse(text, pend_space)
        again = parse(str(e), pend_space)
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
    assert parse("sin(q1)^2 + cos(q1)^2", osc_space) == symexpr.ONE
    assert parse("1/cos(q1)^2", osc_space) == parse("1 + tan(q1)^2", osc_space)


def test_trig_fold_requires_matching_coefficients(osc_space):
    e = parse("2*sin(q1)^2 + 3*cos(q1)^2", osc_space)
    assert e != parse("2 + cos(q1)^2", osc_space)
    e2 = parse("p1*sin(q1)^2 + p1*cos(q1)^2", osc_space)
    assert e2 == symexpr.symbol("p1")


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
    ]
    step = 1e-5
    checked = 0
    for e in candidates:
        for name in pend_space.coords:
            d = differentiate(e, name)
            idx = pend_space.coord_index(name)
            while checked < 100:
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
                checked += 1
                if checked % 7 == 0:
                    break
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


def test_tuple_compile_matches_scalar_compiles(osc_space):
    rng = random.Random(3)
    comps = tuple(random_poly(rng, osc_space, degree=3, trig=True) for _ in range(4))
    comps += (parse("Omega^2*q1/(1 + q2^2)", osc_space), symexpr.ZERO)
    fields = osc_space.compile(comps)
    assert osc_space.compile(comps) is fields
    for point in ProbeConfig(count=4).points(osc_space):
        want = [osc_space.compile(c)(point) for c in comps]
        assert [v.hex() for v in fields(point)] == [v.hex() for v in want]
    # the first faulting component raises, as a loop over scalar compiles would
    faulty = (parse("q2", osc_space), parse("ln(q1)", osc_space), parse("1/q1", osc_space))
    point = (0.0, 0.5, 0.0, 0.0)
    with pytest.raises(EvalDomainError) as err:
        osc_space.compile(faulty)(point)
    with pytest.raises(EvalDomainError) as first:
        [osc_space.compile(c)(point) for c in faulty]
    assert str(err.value) == str(first.value)
    assert "logarithm" in str(err.value)


def test_parameters_bind_at_compile_time_without_shadowing():
    # parameters named like the point, the helpers or the math module, and a
    # negative value under an even power
    space = PhaseSpace(1, ["q", "p"], {"x": -2.0, "math": 3.0, "_div": 0.5, "p_": -1.5})
    e = parse("x^2*q + math*p + _div/(q + 1) + p_^3", space)
    q, p = 0.25, -0.75
    want = (-2.0) ** 2 * q + 3.0 * p + 0.5 / (q + 1) + (-1.5) ** 3
    assert eval_numeric(e, (q, p), space) == pytest.approx(want, rel=1e-15)
    assert space.compile((e, parse("x", space)))((q, p))[1] == -2.0


def test_constant_beyond_float_range_is_an_expr_error(osc_space):
    with pytest.raises(symexpr.ExprError, match="float range"):
        osc_space.compile(parse("1e400*q1", osc_space))
    with pytest.raises(symexpr.ExprError, match="float range"):
        is_zero(parse("1e400", osc_space), osc_space)


def test_float_overflow_is_a_domain_fault(osc_space):
    exp = osc_space.compile(parse("exp(q1)", osc_space))
    with pytest.raises(symexpr.EvalDomainError, match="float overflow"):
        exp((800.0, 0.0, 0.0, 0.0))
    field = osc_space.compile((parse("q1", osc_space), parse("q2^400", osc_space)))
    assert field((1.0, 2.0, 0.0, 0.0)) == [1.0, 2.0 ** 400]
    with pytest.raises(symexpr.EvalDomainError, match="float overflow"):
        field((1.0, 1e300, 0.0, 0.0))


def test_math_domain_error_is_a_domain_fault(osc_space):
    # 1e300*q1^3 overflows to inf without raising; sin(inf) raises ValueError
    fn = osc_space.compile(parse("sin(1e300*q1^3)", osc_space))
    assert fn((0.5, 0.0, 0.0, 0.0)) == math.sin(1e300 * 0.5 ** 3)
    with pytest.raises(EvalDomainError, match="math domain error"):
        fn((1000.0, 0.0, 0.0, 0.0))
    field = osc_space.compile((parse("q1", osc_space), parse("cos(1e300*q1^3)", osc_space)))
    with pytest.raises(EvalDomainError, match="math domain error"):
        field((1000.0, 0.0, 0.0, 0.0))


def test_too_deep_to_compile_is_an_expr_error(osc_space):
    # built without the parser, so its nesting limit does not apply; the
    # generated code nests two parentheses per sin
    e = symexpr.symbol("q1")
    for _ in range(100):
        e = symexpr.func("sin", e)
    with pytest.raises(symexpr.ExprError, match="too deeply nested to compile"):
        symexpr.compile_numeric(e, osc_space)


def test_exponent_beyond_float_range_is_an_expr_error(osc_space):
    with pytest.raises(symexpr.ExprError, match="exponent exceeds the float range"):
        osc_space.compile(parse("p1^2/2 + q1^(10^400)", osc_space))


def test_substitute(osc_space):
    e = parse("q1^2 + sin(q2)", osc_space)
    mapped = substitute(e, {"q1": parse("2*p1", osc_space),
                            "q2": symexpr.ZERO})
    assert mapped == parse("4*p1^2", osc_space)


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
    # (sin q1)^2 - (1 - cos(2 q1))/2 is identically zero but only numerically
    # detectable under the restricted rule set; build it via composition
    e = (symexpr.func("sin", parse("q1 + q2", osc_space))
         - symexpr.func("sin", symexpr.symbol("q1")) * symexpr.func("cos", symexpr.symbol("q2"))
         - symexpr.func("cos", symexpr.symbol("q1")) * symexpr.func("sin", symexpr.symbol("q2")))
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
    assert v2.witness.witness_value == pytest.approx(1.0)
    v3 = is_constant(parse("Omega^2", osc_space), osc_space, probes)
    assert v3.is_constant and v3.symbolic


def _numeric_zero():
    """sin(q1 + q2) expanded by hand: zero, but only detectable by probing."""
    q1, q2 = symexpr.symbol("q1"), symexpr.symbol("q2")
    return (symexpr.func("sin", q1 + q2)
            - symexpr.func("sin", q1) * symexpr.func("cos", q2)
            - symexpr.func("cos", q1) * symexpr.func("sin", q2))


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
        assert v == symexpr.ZeroVerdict(symexpr.SYMBOLIC_ZERO,
                                        tolerance=probes.tolerance, seed=probes.seed)
        assert i is None


def test_phase_space_validation():
    with pytest.raises(symexpr.ExprError):
        PhaseSpace(2, ["q1", "q2", "p1"])  # wrong count
    with pytest.raises(symexpr.ExprError):
        PhaseSpace(1, ["q", "q"])  # duplicate
    with pytest.raises(symexpr.ExprError):
        PhaseSpace(1, ["q", "p"], {"q": 1.0})  # clash
