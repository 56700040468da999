"""Seeded random generators for property tests.

Expressions are built through the public constructors, so every generated
object is already in canonical form; the generators keep degrees and sizes
small enough that symbolic cancellation stays fast.
"""

import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations

from hamsym import symexpr
from hamsym.classifier import (CONSTANT_COEFFICIENTS_C0_ZERO, FUNCTION_COEFFICIENTS,
                               SymmetryCandidate, classify)
from hamsym.exterior import KForm, VectorField
from hamsym.hamiltonian import hamiltonian_field_for, make_system
from hamsym.symexpr import PhaseSpace
from hamsym.systemio import BUNDLED_EXAMPLES, parse_system_text


def small_space(n=2):
    names = [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    return PhaseSpace(n, names, {"k": 0.75})


def random_coeff(rng):
    return symexpr.rational(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))


def random_poly(rng, space, degree=2, terms=3, trig=False, names=None):
    """Random small polynomial (optionally with one trig factor) in the
    space's coordinates, or in `names` when given."""
    coords = list(names or space.coords)
    total = symexpr.ZERO
    for _ in range(rng.randint(1, terms)):
        term = random_coeff(rng)
        for _ in range(rng.randint(0, degree)):
            term = term * symexpr.symbol(rng.choice(coords))
        if trig and rng.random() < 0.3:
            fn = rng.choice(("sin", "cos"))
            term = term * symexpr.func(fn, symexpr.symbol(rng.choice(coords)))
        total = total + term
    return total


def random_field(rng, space, degree=2, trig=False):
    comps = tuple(random_poly(rng, space, degree=degree, trig=trig)
                  for _ in range(2 * space.n))
    return VectorField(space, comps)


def random_form(rng, space, degree, coeff_degree=2, trig=False, fill=0.6):
    dim = 2 * space.n
    coeffs = {}
    for idx in combinations(range(dim), degree):
        if rng.random() < fill:
            coeffs[idx] = random_poly(rng, space, degree=coeff_degree, trig=trig)
    if not coeffs and degree <= dim:
        idx = tuple(range(degree))
        coeffs[idx] = random_poly(rng, space, degree=coeff_degree, trig=trig)
    return KForm(space, degree, coeffs)


def outside_span_case(rng, space, m):
    """m seeded random 2-forms and a target: a seeded rational combination of
    them plus a sparse random 2-form, so the target lies outside their span
    unless that extra form happens to lie in it."""
    forms = [random_form(rng, space, 2) for _ in range(m)]
    target = random_form(rng, space, 2, fill=0.2)
    for f in forms:
        target = target + f.scale(random_coeff(rng))
    return forms, target


def rank_at(rows, point, space):
    """The rank over the rationals of a matrix of polynomial Exprs at a
    rational point (name -> Fraction), parameters at their declared values:
    evaluated by substitution, eliminated over Fraction."""
    values = {name: symexpr.rational(v) for name, v in point.items()}
    rows = [[Fraction(symexpr.at_parameter_values(symexpr.substitute(e, values),
                                                   space).rational_value) for e in row]
            for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[x - r[c] / pivot[c] * y for x, y in zip(r, pivot)] for r in rows]
        rows.insert(rank, pivot)
        rank += 1
    return rank


def _trig_factor(rng):
    f = rng.choice(("sin", "sin", "cos", "cos", "tan"))
    k = rng.choice((1, 2, 2, 3, 4))
    return f"{f}({rng.choice(('q1', 'q2'))})" + (f"^{k}" if k > 1 else "")


def _trig_term(rng):
    coeff = rng.choice(("1", "2", "-1", "3", "1/2", "-3/2"))
    return "*".join([coeff] + [_trig_factor(rng) for _ in range(rng.randint(1, 3))])


def _trig_sum(rng):
    terms = [_trig_term(rng) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:  # a sin^2 + cos^2 pair, which only the residue sees
        coeff_rest = _trig_term(rng)
        u = rng.choice(("q1", "q2"))
        terms += [f"{coeff_rest}*sin({u})^2", f"{coeff_rest}*cos({u})^2"]
        rng.shuffle(terms)
    return "(" + " + ".join(terms) + ")"


def _trig_cos_power(rng):
    u = rng.choice(("q1", "q2"))
    rest = f"*{_trig_factor(rng)}" if rng.random() < 0.4 else ""
    return f"(cos({u})^{rng.randint(2, 5)}{rest})"


def trig_corpus(seed=1, count=400):
    """Seeded sums, products and quotients of sin, cos and tan powers of
    q1 and q2, as text; quotients over a cos power reach 1/cos^2."""
    rng = random.Random(seed)
    kinds = (
        lambda: _trig_sum(rng),
        lambda: f"{_trig_sum(rng)}*{_trig_sum(rng)}",
        lambda: f"{_trig_sum(rng)}/{_trig_cos_power(rng)}",
        lambda: f"{_trig_sum(rng)}/{_trig_sum(rng)}",
        lambda: f"{_trig_sum(rng)}^2",
    )
    return [rng.choice(kinds)() for _ in range(count)]


def trig_corpus_text(space):
    """One line per corpus entry: the input text, a tab, and the printed form
    or the error.  tests/golden/trig_corpus.txt holds this for `small_space()`."""
    lines = []
    for text in trig_corpus():
        try:
            out = str(symexpr.parse(text, space))
        except symexpr.ExprError as exc:
            out = f"error: {exc}"
        lines.append(f"{text}\t{out}\n")
    return "".join(lines)


KERNEL_CORPUS_NAMES = ("q1", "q2", "p1", "k")
# The point at which the kernel corpus evaluates each result (q1, q2, p1, p2)
KERNEL_CORPUS_POINT = (0.375, 0.625, 0.8125, 0.25)


def _kernel_entry(rng, space):
    """One kernel corpus entry: (kind, operands, a thunk giving the result)."""
    def poly(degree=3, terms=3):
        return random_poly(rng, space, degree=degree, terms=terms, names=KERNEL_CORPUS_NAMES)

    def maybe_quotient(e):
        return e / poly(degree=2, terms=2) if rng.random() < 0.4 else e

    kind = rng.choice(("mul", "div", "pow", "root", "sqrt", "diff", "diff", "diff",
                       "add", "sub", "neg", "scale", "content", "radial", "subst"))
    a = poly()
    if kind == "mul":
        b = poly()
        return kind, (a, b), lambda: a * b
    if kind == "div":
        b = poly(degree=2, terms=2)
        return kind, (a, b), lambda: a / b
    if kind == "pow":
        n = rng.choice((2, 3, -1, -2))
        return kind, (a, n), lambda: a ** n
    if kind == "root":
        r = rng.choice((Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2),
                        Fraction(1, 3), Fraction(2, 3), Fraction(5, 2)))
        return kind, (a, r), lambda: a ** r
    if kind == "sqrt":
        b = poly(degree=2, terms=2)
        return kind, (a, b), lambda: a * symexpr.func("sqrt", b)
    if kind in ("add", "sub"):
        a, b = maybe_quotient(a), maybe_quotient(poly())
        return kind, (a, b), (lambda: a + b) if kind == "add" else (lambda: a - b)
    if kind == "neg":
        a = maybe_quotient(a)
        return kind, (a,), lambda: -a
    if kind == "scale":
        a, c = maybe_quotient(a), random_coeff(rng)
        return kind, (a, c), lambda: c * a
    if kind == "content":
        a = maybe_quotient(a)
        return kind, (a,), lambda: symexpr.rational(symexpr.rational_content(a))
    if kind == "radial":
        # over a denominator in the parameter alone, which the integral keeps
        k = symexpr.symbol("k")
        if rng.random() < 0.4:
            a = a / (random_coeff(rng) * k + symexpr.rational(rng.randint(1, 3)))
        names = KERNEL_CORPUS_NAMES[:3]
        return kind, (a,), lambda: symexpr.integrate_radially(a, names)
    if kind == "subst":
        a = maybe_quotient(a)
        point = tuple(random_coeff(rng) for _ in KERNEL_CORPUS_NAMES[:3])
        mapping = dict(zip(KERNEL_CORPUS_NAMES, point))
        return kind, (a, *point), lambda: symexpr.substitute(a, mapping)
    # a derivative of a polynomial, a quotient, a root or a product with a root
    name = rng.choice(KERNEL_CORPUS_NAMES)
    shape = rng.choice(("poly", "quotient", "root", "sqrt"))
    if shape == "quotient":
        a = a / poly(degree=2, terms=2)
    elif shape == "root":
        a = a ** rng.choice((Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)))
    elif shape == "sqrt":
        a = a * symexpr.func("sqrt", poly(degree=2, terms=2))
    return kind, (a, name), lambda: symexpr.differentiate(a, name)


def _kernel_columns(e, space):
    """The value of e at `KERNEL_CORPUS_POINT`, walked by `interpret`, and its
    residue at the default residue point, as text."""
    try:
        value = repr(symexpr.interpret(e, space)(KERNEL_CORPUS_POINT))
    except symexpr.ExprError as exc:
        value = f"error: {exc}"
    residue = symexpr._residue(e, symexpr.ProbeConfig().residues(space)[0])
    return [value, str(residue)]


def kernel_corpus_text(space, seed=1, count=600):
    """One line per seeded kernel operation on random polynomials over
    q1, q2, p1 and the parameter k, tab-separated: the kind, its operands,
    the printed result (or the error), and the result's value and residue
    (see `_kernel_columns`; "-" after an error).  tests/golden/kernel_corpus.txt
    holds this for `small_space()`; `kernel_corpus_fields` splits a line."""
    rng = random.Random(f"kernel-corpus:{seed}")
    lines = []
    for _ in range(count):
        try:
            kind, operands, result = _kernel_entry(rng, space)
        except symexpr.ExprError as exc:  # an operand that fails to build
            lines.append(f"operand\terror: {exc}\t-\t-\n")
            continue
        try:
            e = result()
            columns = [str(e)] + _kernel_columns(e, space)
        except symexpr.ExprError as exc:
            columns = [f"error: {exc}", "-", "-"]
        lines.append("\t".join([kind, *map(str, operands), *columns]) + "\n")
    return "".join(lines)


def kernel_corpus_fields(line):
    """A kernel corpus line as (kind, operand texts, result text)."""
    kind, *rest = line.rstrip("\n").split("\t")
    return kind, rest[:-3], rest[-3]


# The charts of the parse corpus: the benchmark systems' coordinates and
# parameters, and one space whose parameter k = 2 makes k - 2 a divisor that
# only the residue sees as zero.
PARSE_CORPUS_SPACES = {
    "pendulum": (("theta", "phi", "p_theta", "p_phi"), {"Omega": 1.0}),
    "aniso": (("q1", "q2", "p1", "p2"), {"Omega1": 1.0, "Omega2": 0.5}),
    "iso3": (("q1", "q2", "q3", "p1", "p2", "p3"), {"Omega": 1.0}),
    "magnetic": (("x", "y", "px", "py"), {"B": 0.5}),
    "k2": (("q1", "q2", "p1", "p2"), {"k": 2.0}),
}

_LITERALS = ("0", "1", "1", "2", "2", "3", "5", "12", "007", "0.5", "2.25", "1e-3", "3E2",
             "1.5e+1", "100", "255", "256")
_EXPONENTS = ("2", "2", "3", "0", "1", "-1", "(1/2)", "(-3/2)", "(2/3)", "-2", "(4/2)")
# Each malformed input with the space it is parsed in; every error the parser
# raises is among them, with its position.
PARSE_CORPUS_MALFORMED = (
    ("aniso", "q1 @ 2"), ("aniso", "q1 +  $p1"), ("pendulum", "theta # 2"),
    ("aniso", "2. + q1"), ("aniso", "q1 + p1;"), ("magnetic", "x ! y"),
    ("aniso", "bogus + 1"), ("aniso", "q1 + Q1"), ("pendulum", "p_theta*Omega2"),
    ("aniso", "sinh(q1)"), ("aniso", "q1(2)"), ("aniso", "Omega1 (q1)"),
    ("aniso", "sin(q1, q2)"), ("iso3", "cos(q1 , q2 + 1)"),
    ("aniso", "(q1 + 2"), ("aniso", "sin(q1"), ("aniso", "((q1)"), ("aniso", "q1 + 2)"),
    ("aniso", "()"), ("aniso", "q1 + ()"), ("aniso", "q1 q2"), ("aniso", "2 3"),
    ("aniso", "sin(q1) q2"), ("aniso", ""), ("aniso", "   "), ("aniso", "q1 +"),
    ("aniso", "*q1"), ("aniso", "q1 ** 2"), ("aniso", "q1 ^"), ("aniso", ", q1"),
    ("aniso", "q1 / ,"), ("aniso", ")"),
    ("aniso", "1/0"), ("aniso", "q1/(2 - 2)"), ("aniso", "p1 / (q1 - q1)"),
    ("aniso", "q1/(0*q2)"), ("k2", "1/(k - 2)"), ("k2", "q1/(k^2 - 4)"),
    ("iso3", "1/(Omega - 1)"), ("aniso", "q1/(sin(q2)^2 + cos(q2)^2 - 1)"),
    ("pendulum", "1/(tan(theta)*cos(theta) - sin(theta))"), ("magnetic", "1/(exp(0) - 1)"),
    ("aniso", "0^-1"), ("aniso", "(q1 - q1)^(-1/2)"), ("k2", "(k - 2)^-2"),
    ("aniso", "(2 - 2)^(-3)"), ("aniso", "(sin(q1)^2 + cos(q1)^2 - 1)^-1"),
    ("aniso", "q1^q2"), ("aniso", "2^Omega1"), ("aniso", "q1^sin(q1)"),
    ("aniso", "q1^(1/q2)"), ("aniso", "(q1 + 1)^40000"), ("aniso", "10^(10^9)"),
    ("aniso", "(" * 65 + "q1" + ")" * 65), ("aniso", "-" * 66 + "q1"),
    ("aniso", "sin(" * 65 + "q1" + ")" * 65), ("aniso", "2^" * 70 + "2"),
    ("aniso", "1e4300"), ("aniso", "q1 + 1e-4301"), ("aniso", "2*1e-4300"),
    ("aniso", "1E+4300*q1"),
)
_BAD_CHARS = "@$!#%&;:'\"[]{}~`?<>=|\\"


def _parse_leaf(rng, names):
    return rng.choice(names) if rng.random() < 0.6 else rng.choice(_LITERALS)


def _parse_atom(rng, names, depth):
    r = rng.random()
    if depth <= 0 or r < 0.4:
        return _parse_leaf(rng, names)
    if r < 0.55:
        return f"{rng.choice(symexpr.FUNCTION_NAMES)}({_parse_expr(rng, names, depth - 1)})"
    if r < 0.7:
        return f"({_parse_expr(rng, names, depth - 1)})"
    if r < 0.8:
        return rng.choice(("-", "+", "- ")) + _parse_atom(rng, names, depth - 1)
    base = _parse_atom(rng, names, depth - 1)
    return f"{base}{rng.choice(('^', ' ^ '))}{rng.choice(_EXPONENTS)}"


def _parse_expr(rng, names, depth):
    terms = []
    for i in range(rng.randint(1, 3)):
        factors = [_parse_atom(rng, names, depth) for _ in range(rng.randint(1, 3))]
        term = factors[0]
        for f in factors[1:]:
            term += rng.choice(("*", " * ", "/", " / ")) + f
        terms.append(term if not i else rng.choice((" + ", " - ", "+", "-")) + term)
    return "".join(terms)


def _mutated(rng, text):
    """text with one seeded fault: a bad character, a dropped or extra
    parenthesis, a stray identifier or operator, or a cut."""
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(5)
    if kind == 0:
        return text[:i] + rng.choice(_BAD_CHARS) + text[i:]
    if kind == 1:
        return text.replace("(", "", 1) if "(" in text else text + ")"
    if kind == 2:
        return text[:i] + rng.choice((" foo ", " Q1 ", " sinh(", " , ")) + text[i:]
    if kind == 3:
        return text[:i] + rng.choice(("*", "^", "/", "(", ")")) + text[i:]
    return text[:i]


def parse_corpus(seed=1, valid=320, mutated=120):
    """Seeded (space name, text) pairs: valid inputs drawn from the grammar
    over each space's names, seeded faults in such inputs, and
    `PARSE_CORPUS_MALFORMED`."""
    rng = random.Random(f"parse-corpus:{seed}")
    keys = sorted(PARSE_CORPUS_SPACES)
    out = []
    for _ in range(valid):
        key = rng.choice(keys)
        coords, params = PARSE_CORPUS_SPACES[key]
        depth = rng.choice((0, 1, 1, 2, 2, 3))
        out.append((key, _parse_expr(rng, coords + tuple(params), depth)))
    for _ in range(mutated):
        key, text = rng.choice(out[:valid])
        out.append((key, _mutated(rng, text)))
    return out + list(PARSE_CORPUS_MALFORMED)


def parse_corpus_text(seed=1):
    """One line per `parse_corpus` entry, tab-separated: the space name, the
    text, and either the printed form and the first 16 hex digits of the
    sha256 of repr(e.key), or the error's class and message.
    tests/golden/parse_corpus.txt holds this for seed 1."""
    spaces = {key: PhaseSpace(len(coords) // 2, coords, params)
              for key, (coords, params) in PARSE_CORPUS_SPACES.items()}
    lines = []
    for key, text in parse_corpus(seed):
        try:
            e = symexpr.parse(text, spaces[key])
            digest = hashlib.sha256(repr(e.key).encode()).hexdigest()[:16]
            columns = [str(e), digest]
        except symexpr.ParseError as exc:
            columns = [f"{type(exc).__name__}: {exc}"]
        lines.append("\t".join([key, text, *columns]) + "\n")
    return "".join(lines)


# Known invariants of the bundled systems, beside h, by file name
BUNDLED_INVARIANTS = {
    "pendulum.sys": ("p_phi",),
    "aniso_oscillator.sys": ("(p1^2 + Omega1^2*q1^2)/2", "(p2^2 + Omega2^2*q2^2)/2"),
    "iso_oscillator.sys": ("(p1^2 + Omega^2*q1^2)/2", "(p2^2 + Omega^2*q2^2)/2",
                           "q1*p2 - q2*p1", "p1*p2 + Omega^2*q1*q2"),
}


def _nonzero_coeff(rng):
    while True:
        c = random_coeff(rng)
        if not c.is_zero_expr:
            return c


def rational_corpus(seed=1, per_system=20):
    """Seeded candidates with rational coefficients on the three bundled
    systems, as (file name, system, candidates).  Per system, in turn: a
    random polynomial field, the Hamiltonian field of a random rational
    combination of one or two known invariants (h among them), and a
    bundled candidate scaled by a random rational."""
    rng = random.Random(f"rational-corpus:{seed}")
    out = []
    for fname in sorted(BUNDLED_EXAMPLES):
        sf = parse_system_text(BUNDLED_EXAMPLES[fname], name_hint=fname)
        system = make_system(sf.space, sf.symplectic, sf.hamiltonian)
        invariants = [sf.hamiltonian] + [symexpr.parse(text, sf.space)
                                         for text in BUNDLED_INVARIANTS[fname]]
        candidates = []
        for i in range(per_system):
            if i % 3 == 0:
                field = random_field(rng, sf.space)
            elif i % 3 == 1:
                chosen = rng.sample(invariants, rng.randint(1, 2))
                f = symexpr.sum_(_nonzero_coeff(rng) * inv for inv in chosen)
                field = hamiltonian_field_for(system, f)
            else:
                c = _nonzero_coeff(rng)
                bundled = rng.choice(sf.symmetries).field
                field = VectorField(sf.space, tuple(c * y for y in bundled.components))
            candidates.append(SymmetryCandidate(f"c{i}", field))
        out.append((fname, system, candidates))
    return out


def rational_corpus_json(seed=1):
    """The structured `classify` report of every `rational_corpus` candidate,
    by file name, as indented JSON.  tests/golden/rational_corpus.classify.json
    holds this for seed 1."""
    reports = {fname: [classify(c, system).to_dict() for c in candidates]
               for fname, system, candidates in rational_corpus(seed)}
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


# The seeded spectator families by name, each with the label it is built to get
FUNCTION_COEFFICIENTS_MOVING_H = "FunctionCoefficientsMovingH"
SPECTATOR_FAMILIES = {
    FUNCTION_COEFFICIENTS: FUNCTION_COEFFICIENTS,
    CONSTANT_COEFFICIENTS_C0_ZERO: CONSTANT_COEFFICIENTS_C0_ZERO,
    FUNCTION_COEFFICIENTS_MOVING_H: FUNCTION_COEFFICIENTS,
}


def spectator_label_case(rng, family):
    """A seeded system and field whose label is known by construction.

    The system is h = p2^2/2 + V(q2) on a 2-dof canonical space, with V a
    seeded polynomial of degree 4 and positive top coefficient, so a field
    acting on the spectator pair (q1, p1) alone commutes with X_h and leaves
    h invariant.  With s a seeded nonzero rational:

    - FunctionCoefficients: Y = s*(p1*q1 | 0 | -p1^2 | 0) has
      L^2(Y)omega = -2s*p1 * L(Y)omega, and the coefficient p1 is conserved.
    - ConstantCoefficientsC0Zero: Y = s*(0 | 0 | p1 | 0) has
      L^2(Y)omega = s * L(Y)omega, and theta_(1) = s*theta_(0), so the
      combination form vanishes and its potential is a constant.
    - FunctionCoefficientsMovingH: h gains c*p1, with c a seeded nonzero
      rational, so X_h still commutes with any field of p1 alone, and
      Y = s*p1^k d/dp1 (k = 2 or 3) moves h: L(Y)h = c*s*p1^k.  Then
      L(Y)omega = k*s*p1^(k-1) dq1^dp1 and L^2(Y)omega = (2k-1)*s*p1^(k-1)
      * L(Y)omega, and the coefficient's p1^(k-1) is conserved.

    Returns (system, field, coefficients, quantity): the dependence
    coefficients as Exprs, and the conserved quantity up to a multiple and
    a constant, or None where it is a constant.
    """
    space = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    q1, q2, p1, p2 = (symexpr.symbol(c) for c in space.coords)
    top = symexpr.rational(Fraction(rng.randint(1, 4), rng.choice((1, 2, 4))))
    potential = symexpr.sum_([top * q2 ** 4] + [random_coeff(rng) * q2 ** k
                                                 for k in (1, 2, 3)])
    h = p2 * p2 * symexpr.rational(Fraction(1, 2)) + potential
    if family == FUNCTION_COEFFICIENTS_MOVING_H:
        h = h + symexpr.rational(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), 2)) * p1
    system = make_system(space, "canonical", h)
    s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 7))
    zero = symexpr.ZERO
    if family == FUNCTION_COEFFICIENTS:
        comps = (p1 * q1, zero, -(p1 * p1), zero)
        coefficients, quantity = [zero, symexpr.rational(-2 * s) * p1], p1
    elif family == CONSTANT_COEFFICIENTS_C0_ZERO:
        comps = (zero, zero, p1, zero)
        coefficients, quantity = [zero, symexpr.rational(s)], None
    elif family == FUNCTION_COEFFICIENTS_MOVING_H:
        k = rng.choice((2, 3))
        comps = (zero, zero, p1 ** k, zero)
        quantity = p1 ** (k - 1)
        coefficients = [zero, symexpr.rational((2 * k - 1) * s) * quantity]
    else:
        raise ValueError(f"no spectator family {family!r}")
    field = VectorField(space, tuple(symexpr.rational(s) * c for c in comps))
    return system, field, coefficients, quantity


def conformal_case(rng):
    """A seeded system and field labelled ConformalSymplectic by construction.

    On a 2-dof canonical space, h = p1^2 + Q with Q a seeded rational
    quadratic form, so X_h is linear and commutes with the Euler field
    E = sum_i x_i d/dx_i.  With s != 0 and t seeded rationals,
    Y = s*E + t*X_h commutes with X_h, L(Y)omega = 2s*omega (L(E) doubles
    dq^dp, and L(X_h)omega = 0) and L(Y)h = 2s*h (h is homogeneous of
    degree 2, and X_h(h) = 0), which is not zero.

    Returns (system, field, c, h) with c = 2s the conformal constant.
    """
    space = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    xs = [symexpr.symbol(c) for c in space.coords]
    quadratic = [random_coeff(rng) * x * y
                 for i, x in enumerate(xs) for y in xs[i:] if rng.random() < 0.6]
    h = symexpr.sum_([xs[2] * xs[2]] + quadratic)
    system = make_system(space, "canonical", h)
    s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
    t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    field = VectorField(space, tuple(symexpr.rational(s) * x + symexpr.rational(t) * v
                                     for x, v in zip(xs, system.x_h.components)))
    return system, field, 2 * s, h


# -- a tuple-monomial reference for the packed kernel -------------------------
#
# Before packing, every monomial was a tuple of (atom, exponent) pairs sorted
# by atom key, and a product merged two of them through a dict.  These
# functions keep that form and those semantics, roots' extras included, so
# that the kernel's packed products and derivatives can be read against them
# term by term, in the same order.


def tuple_poly(p):
    """p with every monomial as its sorted (atom, exponent) pairs."""
    return {symexpr._factors(m): c for m, c in p.items()}


def _ref_merge(m1, m2):
    """The product of two tuple monomials, as (monomial, extras): the pairs
    merged through a dict and sorted by atom key; a root whose exponent
    reaches an integer n gives the extra (base, n) and keeps the rest."""
    if not m1:
        return m2, []
    if not m2:
        return m1, []
    exps, extras = dict(m1), []
    for a, e in m2:
        old = exps.get(a)
        if old is None:
            exps[a] = e
        elif isinstance(a, symexpr.PowAtom):
            e = old + e
            n = math.floor(e)
            if n > 0:
                extras.append((a.base, n))
            if e == n:
                del exps[a]
            else:
                exps[a] = e - n
        else:
            e = old + e
            exps[a] = e.numerator if e.denominator == 1 else e
    return tuple(sorted(exps.items(), key=lambda ae: ae[0].key)), extras


def _ref_iadd(out, q, k=1):
    for m, c in q.items():
        c *= k
        old = out.get(m)
        if old is None:
            out[m] = c
        elif old + c:
            out[m] = old + c
        else:
            del out[m]
    return out


def _ref_add_over(p, pd, q, qd):
    d = math.lcm(pd, qd)
    return _ref_iadd({m: c * (d // pd) for m, c in p.items()}, q, d // qd), d


def ref_poly_mul(p, q):
    """The product of two tuple-form int polynomials, as (poly, d) with
    p*q = poly/d, terms in the order of the loops over p and then q; a term
    with extras multiplies each root base back in, over its scale."""
    if q == {(): 1}:
        return p, 1
    if p == {(): 1}:
        return q, 1
    out, pending, pd = {}, {}, 1
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m, extras = _ref_merge(m1, m2)
            if not extras:
                _ref_iadd(out, {m: c1 * c2})
                continue
            term, td = {m: c1 * c2}, 1
            for base, n in extras:
                for _ in range(n):
                    term, d = ref_poly_mul(term, tuple_poly(base.num))
                    td *= d
                term = {m: c * base.sn ** n for m, c in term.items()}
                td *= base.sd ** n
            pending, pd = _ref_add_over(pending, pd, term, td)
    return _ref_add_over(out, 1, pending, pd) if pending else (out, 1)


def _ref_poly_diff(p, name, sn=1, sd=1):
    """The derivative of the polynomial p*sn/sd from its tuple-form terms:
    per term and per factor that depends on `name`, in that order, the
    product of the coefficient, the other factors' powers, the factor's
    power one lower and the factor's own derivative, all summed by `sum_`."""
    terms = []
    for m, c in tuple_poly(p).items():
        for i, (a, e) in enumerate(m):
            if isinstance(a, symexpr.SymAtom):
                if a.name != name:
                    continue
                da = symexpr.ONE
            else:
                da = symexpr._atom_diff(a, name)
                if da.is_zero_expr:
                    continue
            t = symexpr.rational(Fraction(c * sn, sd) * e)
            for b, x in m[:i] + m[i + 1:]:
                t = t * symexpr._atom_power(b, x)
            terms.append(t * symexpr._atom_power(a, e - 1) * da)
    return symexpr.sum_(terms)


def ref_derivative(e, name):
    """d e/d name: `_ref_poly_diff` of the numerator over 1, else the
    quotient rule on the two polynomials, scaled by e's scale last."""
    if e.den is symexpr._UNIT:
        return _ref_poly_diff(e.num, name, e.sn, e.sd)
    nex, dex = symexpr.Expr(e.num, symexpr._UNIT), symexpr.Expr(e.den, symexpr._UNIT)
    top = _ref_poly_diff(e.num, name) * dex - nex * _ref_poly_diff(e.den, name)
    return top / (dex * dex) * symexpr.rational(Fraction(e.sn, e.sd))


def mixed_poly(rng, space, terms=3):
    """A seeded polynomial whose terms mix coordinate powers, sin/cos/exp
    factors, roots of 1 + x^2 and fractional powers of a coordinate."""
    def sym():
        return symexpr.symbol(rng.choice(space.coords))

    factors = (
        lambda: sym() ** rng.randint(1, 3),
        lambda: symexpr.func(rng.choice(("sin", "cos", "exp")), sym()) ** rng.randint(1, 2),
        lambda: symexpr.pow_(1 + sym() ** 2, Fraction(rng.choice((1, 3)), 2)),
        lambda: symexpr.pow_(sym(), Fraction(rng.randint(1, 5), rng.choice((2, 3)))),
    )
    total = symexpr.ZERO
    for _ in range(rng.randint(1, terms)):
        term = random_coeff(rng)
        for _ in range(rng.randint(1, 3)):
            term = term * rng.choice(factors)()
        total = total + term
    return total
