"""Seeded random generators for property tests.

Expressions are built through the public constructors, so every generated
object is already in canonical form; the generators keep degrees and sizes
small enough that symbolic cancellation stays fast.
"""

import random
from fractions import Fraction
from itertools import combinations

from hamsym import symexpr
from hamsym.classifier import CONSTANT_COEFFICIENTS_C0_ZERO, FUNCTION_COEFFICIENTS
from hamsym.exterior import KForm, VectorField
from hamsym.hamiltonian import make_system
from hamsym.symexpr import PhaseSpace


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
    if rng.random() < 0.5:  # a sin^2 + cos^2 pair, so the fold has work to do
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


def _kernel_entry(rng, space):
    """One kernel corpus entry: (kind, operands, a thunk giving the result)."""
    def poly(degree=3, terms=3):
        return random_poly(rng, space, degree=degree, terms=terms, names=KERNEL_CORPUS_NAMES)

    kind = rng.choice(("mul", "div", "pow", "root", "sqrt", "diff", "diff", "diff"))
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


def kernel_corpus_text(space, seed=1, count=400):
    """One line per seeded kernel operation on random polynomials over
    q1, q2, p1 and the parameter k: the kind, its operands and the printed
    result (or the error), tab-separated.  tests/golden/kernel_corpus.txt
    holds this for `small_space()`."""
    rng = random.Random(f"kernel-corpus:{seed}")
    lines = []
    for _ in range(count):
        try:
            kind, operands, result = _kernel_entry(rng, space)
        except symexpr.ExprError as exc:  # an operand that fails to build
            lines.append(f"operand\terror: {exc}\n")
            continue
        try:
            out = str(result())
        except symexpr.ExprError as exc:
            out = f"error: {exc}"
        lines.append("\t".join([kind, *map(str, operands), out]) + "\n")
    return "".join(lines)


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
