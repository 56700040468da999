"""Seeded random generators for property tests.

Expressions are built through the public constructors, so every generated
object is already in canonical form; the generators keep degrees and sizes
small enough that symbolic cancellation stays fast.
"""

import random
from fractions import Fraction
from itertools import combinations

from hamsym import symexpr
from hamsym.exterior import KForm, VectorField
from hamsym.symexpr import PhaseSpace


def small_space(n=2):
    names = [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    return PhaseSpace(n, names, {"k": 0.75})


def random_coeff(rng):
    return symexpr.rational(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))


def random_poly(rng, space, degree=2, terms=3, trig=False):
    """Random small polynomial (optionally with one trig factor)."""
    coords = list(space.coords)
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
