"""Symbolic scalar expressions over phase-space coordinates and named parameters.

Expressions are kept in a canonical rational form: a quotient num/den of
expanded polynomials whose indeterminates ("atoms") are coordinate or
parameter symbols, applications of sin/cos/tan/exp/ln, and irreducible
fractional powers.  Construction always canonicalizes, so normalization is
idempotent by design, and structurally equal expressions are equal.

Simplification is deliberately restricted: rational constants fold, like
terms and like factors collect, and sums go over a common denominator with
expanded numerators.  One trig pass (`_trig`) runs in a fixed order: it
folds c*R*sin(u)^2 + c*R*cos(u)^2 to c*R in the denominator, rewrites a
one-monomial denominator's 1/cos(u)^2 to 1 + tan(u)^2, and then folds the
numerator, including the pairs that rewrite made.  Nothing else.  The fold
needs exactly matching coefficients, so structural equality is not complete
for trig: sin(q)^2 + cos(q)^2 + cos(q)^2 folds to cos(q)^2 + 1, while the
equal sin(q)^2 + 2*cos(q)^2 stays as it is; a residue modulo P decides
such cases.
Every sum is built by `sum_`, which owns the one common-denominator rule: a
shared denominator, or one that divides the other, is kept; otherwise the
product of the two is used.  A denominator that divides its numerator
exactly cancels (`_poly_exact_div`, under a graded monomial order).  There
is no polynomial gcd, so a common factor that neither denominator exposes
this way stays in both parts.  A product with a rational constant c skips
all of this (`mul`): every Expr is a fixed point of `_make`, and `_make`
commutes with scaling a numerator by c, so c times num/den is (c*num)/den
as it stands.  Sign flips and rational scalings take this path, and a
quotient of two rational constants is one Fraction division (`div`).
The parser reads an all-digit literal as an int; only a literal with a
point or an exponent (2.5, 1e-5), or an all-digit one longer than
`sys.get_int_max_str_digits()`, goes through Decimal.
Atoms are interned by key (`_ATOMS`, weak values), so equal atoms are one
object and compare and hash by identity.
Every rational inside a polynomial is an int when it is integral and a
Fraction otherwise.  `Expr.key`, the structural key that equality and
hashing use, is built on first use: no kernel operation mutates a Poly once
an Expr holds it, so a key built late is the key the Expr was made with, and
operations may share a Poly between operand and result (a product with a
unit polynomial is the other operand itself).  The denominator 1 is one
shared Poly, `_UNIT`, which nothing mutates: every Expr over 1 holds it
(copies and unpickled Exprs too), so "is the denominator 1" is an identity
test.  Over `_UNIT`, `_make` takes a short path that only folds the
numerator's sin^2 + cos^2 pairs; its docstring proves that the full path
gives the same result there, so sums and products of polynomials skip the
denominator fold, the cos rewrite and the cancel scan.
Zero-testing is hybrid: the canonical form decides the symbolic cases, one
residue modulo the prime `P` decides the rest in the exact class, and seeded
float probing decides what lies outside it (see `is_zero` and `_residue`).
Numeric evaluation walks the canonical form (`interpret`, and `batch_values`
on numpy columns), so no code is built to evaluate an Expr.  Building a walk
converts every coefficient and exponent to a float, so one beyond the float
range is an ExprError before any point is evaluated.  Only the hot
float loops are compiled: `compile_numeric` builds the integrators' runs
and a `NumericPotential`'s quadrature integrand, with the state-free part of
each term computed once per call rather than once per use.  Only there can
an Expr be too deeply nested for Python's compiler; the walk evaluates it.
"""

from __future__ import annotations

import math
import random
import re
import sys
import weakref
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import chain, count
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Expr",
    "PhaseSpace",
    "ProbeConfig",
    "ZeroVerdict",
    "ConstantVerdict",
    "ExprError",
    "ParseError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "NoValidProbesError",
    "ProbeBoxError",
    "parse",
    "rational",
    "sum_",
    "differentiate",
    "substitute",
    "integrate_radially",
    "eval_numeric",
    "interpret",
    "compile_numeric",
    "batch_values",
    "is_zero",
    "aggregate_zero",
    "is_constant",
    "free_symbols",
    "SYMBOLIC_ZERO",
    "NUMERIC_ZERO",
    "NONZERO",
]

FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "ln", "sqrt")

Number = Union[int, Fraction]


class ExprError(Exception):
    """Base class for expression-layer errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    pass


class EvalDomainError(ExprError):
    """Numeric evaluation hit a domain fault (pole, log of nonpositive, ...)."""

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in subexpression: {subexpr}")
        self.subexpr = subexpr


class NoValidProbesError(ExprError):
    pass


class ProbeBoxError(ExprError):
    """A domain box that names no coordinate, or whose bounds are not finite
    with lo < hi (a zero-width box probes one value and proves nothing)."""

    def __init__(self, message: str, name: str):
        super().__init__(message)
        self.name = name


# ---------------------------------------------------------------------------
# Atoms


# The live atoms by key.  Weak values: an atom lives only while an Expr (or
# anything else) holds it, so a long process does not grow the table.
_ATOMS = weakref.WeakValueDictionary()


class Atom:
    """A canonical indeterminate: symbol, function application, or root.

    Atoms are interned by key: building an atom whose key is live returns the
    live object, so equal atoms are one object and the default identity
    equality and hash are structural.  Copies and unpickled atoms are the
    interned ones too (`__reduce__` rebuilds through the constructor).
    """

    __slots__ = ("key", "__weakref__")


def _new_atom(cls, key):
    atom = object.__new__(cls)
    atom.key = key
    _ATOMS[key] = atom
    return atom


class SymAtom(Atom):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (0, name)
        atom = _ATOMS.get(key)
        if atom is None:
            atom = _new_atom(cls, key)
            atom.name = name
        return atom

    def __reduce__(self):
        return SymAtom, (self.name,)


class FuncAtom(Atom):
    __slots__ = ("fname", "arg")

    def __new__(cls, fname: str, arg: "Expr"):
        key = (1, fname, arg.key)
        atom = _ATOMS.get(key)
        if atom is None:
            atom = _new_atom(cls, key)
            atom.fname = fname
            atom.arg = arg
        return atom

    def __reduce__(self):
        return FuncAtom, (self.fname, self.arg)


class PowAtom(Atom):
    """An irreducible fractional power of a polynomial base (base is den-free)."""

    __slots__ = ("base",)

    def __new__(cls, base: "Expr"):
        key = (2, base.key)
        atom = _ATOMS.get(key)
        if atom is None:
            atom = _new_atom(cls, key)
            atom.base = base
        return atom

    def __reduce__(self):
        return PowAtom, (self.base,)


# A monomial maps atoms to positive rational exponents; stored as a tuple of
# (atom, exponent) pairs sorted by atom key.  A polynomial maps monomials to
# nonzero rational coefficients.  Every rational in a polynomial, exponent or
# coefficient, is a plain int when it is integral and a Fraction only when its
# denominator exceeds 1 (see `_q`), so integer arithmetic stays off the
# Fraction path.  Keys read .numerator and .denominator, which int has too.
Mono = tuple
Poly = dict

_ONE_MONO: Mono = ()
# The polynomial 1, the one denominator of every Expr over 1; never mutated.
# `_make` and `_rebuild` put it back wherever a denominator of 1 is built anew.
_UNIT: Poly = {_ONE_MONO: 1}


def _q(x: Number) -> Number:
    """A rational in polynomial form: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _mono(pairs: Iterable) -> Mono:
    """The monomial of (atom, exponent) pairs: sorted by atom key."""
    return tuple(sorted(pairs, key=lambda ae: ae[0].key))


def _mono_order(m: Mono):
    """The monomial order: total degree, then the (atom key, exponent) pairs.
    It orders terms for hashing, printing, `_leading` and evaluation."""
    return (sum([e for _, e in m]),
            tuple([(a.key, (e.numerator, e.denominator)) for a, e in m]))


def _poly_key(p: Poly):
    items = sorted(((_mono_order(m), c) for m, c in p.items()), key=itemgetter(0))
    return tuple((order[1], (c.numerator, c.denominator)) for order, c in items)


def _leading(p: Poly) -> tuple:
    m = max(p, key=_mono_order)
    return m, p[m]


def _poly_const(c: Number) -> Poly:
    c = _q(c)
    if type(c) is not int:
        return {_ONE_MONO: c}
    return {} if c == 0 else _UNIT if c == 1 else {_ONE_MONO: c}


def _is_poly_one(p: Poly) -> bool:
    return len(p) == 1 and _ONE_MONO in p and p[_ONE_MONO] == 1


def _poly_iadd(out: Poly, q: Poly) -> Poly:
    """Add q into out in place; return out."""
    for m, c in q.items():
        old = out.get(m)
        if old is None:
            out[m] = c  # q's coefficients are nonzero and already in `_q` form
            continue
        nc = old + c
        if nc == 0:
            del out[m]
        else:
            out[m] = _q(nc)
    return out


def _poly_add(p: Poly, q: Poly) -> Poly:
    return _poly_iadd(dict(p), q)


def _poly_scale(p: Poly, c: Number) -> Poly:
    if c == 0:
        return {}
    return {m: _q(cc * c) for m, cc in p.items()}


def _merge_mono(m1: Mono, m2: Mono):
    """Multiply two monomials.

    Returns (mono, extras) where extras lists (base Expr, positive int
    exponent) factors spliced out because a fractional-power atom reached an
    integer exponent and must be multiplied back in expanded form.  An
    empty operand gives the other monomial itself.  An atom of one operand
    only keeps its exponent as it is: that is in `_q` form already and, for
    a root, below 1.  The result keeps m1's key order unless m2 brings an
    atom m1 lacks, and only then is it sorted.
    """
    if not m1:
        return m2, ()
    if not m2:
        return m1, ()
    exps = dict(m1)
    extras = []
    grown = False
    for a, e in m2:
        old = exps.get(a)
        if old is None:
            exps[a] = e
            grown = True
        elif isinstance(a, PowAtom):
            e = old + e
            n = math.floor(e)
            if n > 0:
                extras.append((a.base, n))
            if e == n:
                del exps[a]
            else:
                exps[a] = e - n
        else:
            exps[a] = _q(old + e)
    return (_mono(exps.items()) if grown else tuple(exps.items())), extras


def _poly_mul(p: Poly, q: Poly) -> Poly:
    """Expanded product of two den-free polynomials.  A unit operand gives
    the other operand itself, shared: no Poly is mutated once built."""
    if p is _UNIT:
        return q
    if q is _UNIT:
        return p
    if _is_poly_one(p):
        return q
    if _is_poly_one(q):
        return p
    out: Poly = {}
    pending: Poly = {}
    for m1, c1 in p.items():
        unit = c1 == 1
        for m2, c2 in q.items():
            m, extras = _merge_mono(m1, m2)
            c = c2 if unit else c1 if c2 == 1 else c1 * c2
            if not extras:
                old = out.get(m)
                if old is None:
                    out[m] = _q(c)
                    continue
                nc = old + c
                if nc == 0:
                    del out[m]
                else:
                    out[m] = _q(nc)
            else:
                term: Poly = {m: _q(c)}
                for base, n in extras:
                    bp = base.num  # PowAtom bases are den-free by construction
                    for _ in range(n):
                        term = _poly_mul(term, bp)
                pending = _poly_add(pending, term)
    if pending:
        out = _poly_add(out, pending)
    return out


def _poly_pow(p: Poly, n: int) -> Poly:
    out = _UNIT
    base = p
    k = n
    while k:
        if k & 1:
            out = _poly_mul(out, base)
        base = _poly_mul(base, base) if k > 1 else base
        k >>= 1
    return out


def _poly_divides(md: Mono, mn: Mono):
    """Return mn/md as a monomial if md divides mn, else None."""
    dexp = dict(md)
    out = []
    for a, e in mn:
        left = e - dexp.pop(a, 0)
        if left < 0:
            return None
        if left > 0:
            out.append((a, _q(left)))
    if dexp:
        return None
    return tuple(out)


def _all_integral(p: Poly) -> bool:
    for m in p:
        for a, e in m:
            if e.denominator != 1 or isinstance(a, PowAtom):
                return False
    return True


def _poly_exact_div(num: Poly, den: Poly):
    """Exact multivariate division num/den, or None.

    Only attempted for integer-exponent, root-free polynomials.  Leading
    terms are taken in the graded lex order over the atoms in key order, a
    monomial order (unlike `_mono_order`), so the leading term of a multiple
    of den is always divisible by den's: every exact divisor divides.
    """
    if not _all_integral(num) or not _all_integral(den):
        return None
    atoms = sorted({a for p in (num, den) for m in p for a, _ in m}, key=lambda a: a.key)

    def grlex(m: Mono):
        exps = dict(m)
        vec = tuple(exps.get(a, 0) for a in atoms)
        return sum(vec), vec

    quot: Poly = {}
    rem = dict(num)
    ld_m = max(den, key=grlex)
    ld_c = den[ld_m]
    for _ in range(512):
        if not rem:
            return quot
        lr_m = max(rem, key=grlex)
        lr_c = rem[lr_m]
        qm = _poly_divides(ld_m, lr_m)
        if qm is None:
            return None
        qc = _q(Fraction(lr_c, ld_c))
        quot = _poly_add(quot, {qm: qc})
        rem = _poly_add(rem, _poly_scale(_poly_mul({qm: qc}, den), -1))
    return None


def _sin2_cos2_pair(p: Poly):
    """The first c*R*sin(u)^2 in p whose partner c*R*cos(u)^2 is in p with the
    same coefficient, as (sin term, cos term, R); None when there is none.
    A monomial whose atoms are all symbols is skipped at its last atom:
    atoms sort by key, and symbols, keyed (0, name), sort first."""
    for m, c in p.items():
        if not m or type(m[-1][0]) is SymAtom:
            continue
        for a, e in m:
            if not (isinstance(a, FuncAtom) and a.fname == "sin" and e >= 2):
                continue
            rest = [x for x in m if x[0] is not a]
            if e > 2:
                rest.append((a, _q(e - 2)))
            exps = dict(rest)
            cos_atom = FuncAtom("cos", a.arg)
            exps[cos_atom] = _q(exps.get(cos_atom, 0) + 2)
            partner = _mono(exps.items())
            if p.get(partner) == c:
                return m, partner, _mono(rest)
    return None


def _fold_sin2_cos2(p: Poly) -> Poly:
    """Fold c*R*sin(u)^2 + c*R*cos(u)^2 -> c*R, first pair first, until no
    pair is left.  p itself when nothing folds, else a new Poly."""
    pair = _sin2_cos2_pair(p)
    if pair is not None:
        p = dict(p)
    while pair is not None:
        m, partner, rest = pair
        c = p.pop(m)
        del p[partner]
        _poly_iadd(p, {rest: c})
        pair = _sin2_cos2_pair(p)
    return p


def _trig(num: Poly, den: Poly):
    """The trig rules, in their one order: fold sin^2 + cos^2 pairs in den;
    if den is one monomial, rewrite each cos(u)^k in it (k >= 2) by moving
    (1 + tan(u)^2)^(k//2) into num; then fold the pairs in num, those the
    rewrite made too.  Polys that no rule changes come back uncopied."""
    den = _fold_sin2_cos2(den)
    if len(den) == 1:
        (m, c), = den.items()
        kept, mult = [], None
        for a, e in m:
            if isinstance(a, FuncAtom) and a.fname == "cos" and e >= 2:
                k = int(e // 2)
                tan2 = {_ONE_MONO: 1, ((FuncAtom("tan", a.arg), 2),): 1}
                step = _poly_pow(tan2, k)
                mult = step if mult is None else _poly_mul(mult, step)
                e = _q(e - 2 * k)
                if not e:
                    continue
            kept.append((a, e))
        if mult is not None:
            num, den = _poly_mul(num, mult), {tuple(kept): c}
    return _fold_sin2_cos2(num), den


# ---------------------------------------------------------------------------
# Expr


class Expr:
    """Immutable symbolic expression in canonical rational form.

    The structural key, and the hash built from it, are computed on first
    use; that is sound because no Poly is mutated once an Expr holds it.
    A denominator of 1 is the shared `_UNIT`; copies and unpickled Exprs
    hold it too (`__reduce__` rebuilds through `_rebuild`).  The
    constructor takes parts that are canonical already, `_UNIT` included;
    build Exprs with `parse`, `rational`, `symbol` and the operators.
    """

    __slots__ = ("num", "den", "_key", "_hash")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den
        self._key = None
        self._hash = None

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = (_poly_key(self.num), _poly_key(self.den))
        return self._key

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero_expr(self) -> bool:
        return not self.num

    @property
    def is_rational(self) -> bool:
        return self.den is _UNIT and (
            not self.num or (len(self.num) == 1 and _ONE_MONO in self.num)
        )

    @property
    def rational_value(self) -> Number:
        if not self.is_rational:
            raise ExprError("expression is not a rational constant")
        return self.num.get(_ONE_MONO, 0)

    def atoms(self):
        for poly in (self.num, self.den):
            for m in poly:
                for a, _ in m:
                    yield a

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, e):
        return pow_(self, e)

    def __neg__(self):
        return mul(MINUS_ONE, self)

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key == other.key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key)
        return self._hash

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"Expr({to_string(self)})"

    def __reduce__(self):
        return _rebuild, (self.num, self.den)


def _rebuild(num: Poly, den: Poly) -> Expr:
    """The Expr num/den with a denominator of 1 as the shared `_UNIT`: what
    a copy or an unpickled Expr is built by (their den is a new dict)."""
    return Expr(num, _UNIT if _is_poly_one(den) else den)


ZERO = Expr({}, _UNIT)


def _make(num: Poly, den: Poly) -> Expr:
    """The canonical Expr num/den.

    A denominator that is `_UNIT` takes a short path that only folds the
    sin^2 + cos^2 pairs of num; it gives the full path's result, as each
    step of the full path shows for den {(): 1}.  The trig pass first folds
    den, which has no atom, so no pair; den is one monomial, the empty one,
    which holds no cos(u)^k to rewrite; so the pass leaves den as it is and
    folds num, as the short path does.  An empty num gives ZERO on both
    paths.  The cancel scan reads den first, and its only monomial shares
    no atom with anything, so the scan stops there with nothing to cancel.
    Then the denominator is 1, and the full path returns num over it."""
    if den is _UNIT:
        num = _fold_sin2_cos2(num)
        return Expr(num, _UNIT) if num else ZERO
    num, den = _trig(num, den)
    if not den:
        raise ExprError("division by symbolically zero expression")
    if not num:
        return ZERO

    # cancel atom powers common to every monomial of den and num; den goes
    # first, so a unit denominator ends the scan at its only monomial
    common = None
    for m in chain(den, num):
        exps = dict(m)
        common = exps if common is None else {
            a: min(e, exps[a]) for a, e in common.items() if a in exps}
        if not common:
            break
    if common:
        md = tuple(common.items())
        num, den = ({_poly_divides(md, m): c for m, c in p.items()} for p in (num, den))

    if _is_poly_one(den):
        return Expr(num, _UNIT)
    if len(den) == 1 and _ONE_MONO in den:
        return Expr(_poly_scale(num, _q(Fraction(1, den[_ONE_MONO]))), _UNIT)
    q = _poly_exact_div(num, den)
    if q is not None:
        return Expr(q, _UNIT)
    _, lc = _leading(den)
    if lc != 1:
        inv = _q(Fraction(1, lc))
        num = _poly_scale(num, inv)
        den = _poly_scale(den, inv)
    return Expr(num, den)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return rational(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def rational(c: Number) -> Expr:
    """The constant c; an int or a Fraction is kept as it is, anything else
    (a float, a Decimal) is converted to its exact Fraction."""
    return Expr(_poly_const(c if type(c) in (int, Fraction) else Fraction(c)), _UNIT)


def symbol(name: str) -> Expr:
    return Expr({((SymAtom(name), 1),): 1}, _UNIT)


ONE = rational(1)
MINUS_ONE = rational(-1)


def sum_(terms: Iterable[Expr]) -> Expr:
    """The sum of terms, each polynomial part normalized once.

    Terms with a unit denominator merge into one numerator and one `_make`.
    Quotients are then added in turn over a common denominator (see
    `_add_quotient`).  A sum of at most one nonzero term is that term.
    """
    polys, quotients = [], []
    for t in terms:
        if t.num:
            (polys if t.den is _UNIT else quotients).append(t)
    if len(polys) > 1:
        num: Poly = {}
        for t in polys:
            _poly_iadd(num, t.num)
        total = _make(num, _UNIT)
    else:
        total = polys[0] if polys else ZERO
    for q in quotients:
        total = _add_quotient(total, q)
    return total


def _add_quotient(a: Expr, b: Expr) -> Expr:
    """a + b for a quotient b: over the larger denominator when one divides
    the other, otherwise over the product of the two."""
    if a.is_zero_expr:
        return b
    if a.den is not _UNIT:  # over a unit denominator the product is b.den
        for x, y in ((a, b), (b, a)):
            k = _poly_exact_div(y.den, x.den)
            if k is not None:
                return _make(_poly_add(_poly_mul(x.num, k), y.num), y.den)
    num = _poly_add(_poly_mul(a.num, b.den), _poly_mul(b.num, a.den))
    return _make(num, _poly_mul(a.den, b.den))


def add(a: Expr, b: Expr) -> Expr:
    return sum_((a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, mul(MINUS_ONE, b))


def mul(a: Expr, b: Expr) -> Expr:
    """a*b.  A nonzero rational factor c scales the other operand's
    numerator and keeps its denominator, with no `_make`: every Expr is a
    fixed point of `_make`, and `_make(c*num, den)` is `_make(num, den)`
    with its numerator scaled by c.  Each of its steps commutes with the
    scaling: the trig folds pair monomials of equal coefficients, which c
    keeps equal, and the cos rewrite reads only den; the cancel scan reads
    monomials, not coefficients; `_poly_exact_div` takes the same steps with
    every coefficient scaled, so it fails on c*num exactly when on num; and
    the leading-coefficient rescale reads only den.  So the scaled operand
    gains no sin^2/cos^2 pair, no common atom and no exact divisor, and its
    denominator keeps leading coefficient 1.  The zero and `is_rational`
    tests are spelled out on the parts: mul is the kernel's busiest entry."""
    if not a.num or not b.num:
        return ZERO
    if a.den is _UNIT and len(a.num) == 1 and _ONE_MONO in a.num:
        a, b = b, a
    if b.den is _UNIT and len(b.num) == 1 and _ONE_MONO in b.num:
        c = b.num[_ONE_MONO]
        return a if c == 1 else Expr(_poly_scale(a.num, c), a.den)
    return _make(_poly_mul(a.num, b.num), _poly_mul(a.den, b.den))


def div(a: Expr, b: Expr) -> Expr:
    """a/b.  Two rational constants x and y divide as `Fraction(x, y)`,
    with no `_make`.  `_make` would get the numerator {(): x} (empty when x
    is 0) over {(): y}, both single constant monomials.  The trig rules
    find no atom, so they change nothing.  A zero numerator gives ZERO,
    which equals `rational(0)`.  The cancel scan meets only the empty
    monomial and finds no common atom.  Then y == 1 keeps {(): x} over a
    unit denominator, and any other y scales the numerator by
    `_q(Fraction(1, y))`, giving {(): _q(x * (1/y))}.  Both are the exact
    value x/y in `_q` form, an int when integral and a Fraction otherwise,
    which is what `rational(Fraction(x, y))` builds, since `_q` has one
    result for each rational value."""
    if b.is_zero_expr:
        raise ExprError("division by symbolically zero expression")
    if a.is_rational and b.is_rational:
        return rational(Fraction(a.rational_value, b.rational_value))
    return _make(_poly_mul(a.num, b.den), _poly_mul(a.den, b.num))


def _rat_root(c: Number, q: int) -> Optional[Fraction]:
    """Exact q-th root of a nonnegative rational, or None."""
    if c < 0:
        return None

    def iroot(n: int) -> Optional[int]:
        # exact integer arithmetic: floats overflow or round for large n
        if n < 2:
            return n
        if q >= n.bit_length():
            return None  # 1 < root < 2
        if q == 2:
            r = math.isqrt(n)
        else:
            # integer Newton from above converges down to floor(n^(1/q))
            r = 1 << -(-n.bit_length() // q)
            while True:
                s = ((q - 1) * r + n // r ** (q - 1)) // q
                if s >= r:
                    break
                r = s
        return r if r**q == n else None

    rn = iroot(c.numerator)
    rd = iroot(c.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _collapse_safe(inner: Number, outer: Fraction) -> bool:
    # (A^inner)^outer == A^(inner*outer) on the real domain we evaluate in:
    # always for integer outer; for fractional outer only when the inner
    # exponent does not erase the sign of A (odd integer) or already forces
    # A >= 0 (fractional inner).
    if outer.denominator == 1:
        return True
    if inner.denominator != 1:
        return True
    return inner.numerator % 2 == 1


def pow_(e: Expr, exponent) -> Expr:
    r = exponent if type(exponent) is int else Fraction(exponent)
    if r == 0:
        return ONE
    if r == 1:
        return e
    if e.is_rational:
        c = e.rational_value
        if r.denominator == 1:
            n = r.numerator
            if c == 0:
                if n < 0:
                    raise ExprError("zero raised to a negative power")
                return ZERO
            return rational(Fraction(c) ** n)
        if c == 0:
            if r < 0:
                raise ExprError("zero raised to a negative power")
            return ZERO
        root = _rat_root(c, r.denominator)
        if root is not None:
            return rational(root**r.numerator)
        # irrational (or complex) rational root: keep it atomic
    if r.denominator == 1:
        n = r.numerator
        if n > 0:
            return _make(_poly_pow(e.num, n), _poly_pow(e.den, n))
        return _make(_poly_pow(e.den, -n), _poly_pow(e.num, -n))
    # fractional exponent: split quotient, base must be den-free
    if e.den is not _UNIT:
        return div(pow_(Expr(e.num, _UNIT), r), pow_(Expr(e.den, _UNIT), r))
    num = e.num
    if len(num) == 1:
        (m, c), = num.items()
        if c > 0 and c != 1:
            croot = _rat_root(c, r.denominator)
            if croot is not None:
                return mul(rational(croot**r.numerator),
                           pow_(Expr({m: 1}, _UNIT), r))
        if c == 1 and len(m) == 1:
            (a, inner), = m
            if _collapse_safe(inner, r):
                return _atom_power(a, inner * r)
    # integer part out, fractional residue as an atom
    n = math.floor(r)
    frac = r - n
    atom = PowAtom(e)
    out = Expr({((atom, frac),): 1}, _UNIT)
    if n:
        out = mul(out, pow_(e, n))
    return out


def _atom_value(a: Atom) -> Expr:
    if isinstance(a, PowAtom):
        return a.base
    return Expr({((a, 1),): 1}, _UNIT)


def _atom_power(a: Atom, e: Number) -> Expr:
    if e == 0:
        return ONE
    if isinstance(a, PowAtom):
        return pow_(a.base, e)
    e = _q(e)
    if e > 0:
        return Expr({((a, e),): 1}, _UNIT)
    return _make(_UNIT, {((a, -e),): 1})  # 1/cos(u)^2 is 1 + tan(u)^2


_EXACT_FUNC = {
    ("sin", 0): 0,
    ("cos", 0): 1,
    ("tan", 0): 0,
    ("exp", 0): 1,
    ("ln", 1): 0,
}


def func(fname: str, arg: Expr) -> Expr:
    if fname not in FUNCTION_NAMES:
        raise ExprError(f"unknown function {fname!r}")
    if fname == "sqrt":
        return pow_(arg, Fraction(1, 2))
    if arg.is_rational:
        exact = _EXACT_FUNC.get((fname, arg.rational_value))
        if exact is not None:
            return rational(exact)
    a = FuncAtom(fname, arg)
    return Expr({((a, 1),): 1}, _UNIT)


# ---------------------------------------------------------------------------
# Differentiation / substitution


def _atom_diff(a: Atom, name: str) -> Expr:
    """The derivative of a function atom or a root; `_poly_diff` does symbols."""
    if isinstance(a, FuncAtom):
        d_arg = differentiate(a.arg, name)
        if d_arg.is_zero_expr:
            return ZERO
        f = a.fname
        if f == "sin":
            outer = func("cos", a.arg)
        elif f == "cos":
            outer = -func("sin", a.arg)
        elif f == "tan":
            outer = ONE + pow_(func("tan", a.arg), 2)
        elif f == "exp":
            outer = func("exp", a.arg)
        elif f == "ln":
            outer = div(ONE, a.arg)
        else:  # pragma: no cover - guarded by FUNCTION_NAMES
            raise ExprError(f"no derivative rule for {f}")
        return mul(outer, d_arg)
    return differentiate(a.base, name)


def _poly_diff(p: Poly, name: str) -> Expr:
    """The derivative of p, one term per atom that depends on `name`, summed
    in monomial and atom order (the trig fold takes the first pair first) as
    `sum_` sums them: the terms over a unit denominator go into one
    numerator and one `_make` (a lone term, canonical, is taken as it is),
    and then the quotients are added in turn."""
    num: Poly = {}
    units, quotients = 0, []
    for m, c in p.items():
        for i, (a, e) in enumerate(m):
            if isinstance(a, SymAtom):
                if a.name != name:
                    continue
                # the power rule, built in canonical form: c*e * m/a
                rest = m[:i] + ((a, _q(e - 1)),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                if e < 1:
                    quotients.append(Expr({rest: _q(c * e)}, {((a, _q(1 - e)),): 1}))
                else:
                    _poly_iadd(num, {rest: _q(c * e)})
                    units += 1
                continue
            da = _atom_diff(a, name)
            if da.is_zero_expr:
                continue
            term = Expr({m[:i] + m[i + 1:]: _q(c * e)}, _UNIT)
            t = mul(mul(term, _atom_power(a, e - 1)), da)
            if t.den is not _UNIT:
                quotients.append(t)
            elif t.num:
                _poly_iadd(num, t.num)
                units += 1
    total = _make(num, _UNIT) if units > 1 else Expr(num, _UNIT) if units else ZERO
    for q in quotients:
        total = _add_quotient(total, q)
    return total


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to the symbol `name`."""
    dn = _poly_diff(e.num, name)
    if e.den is _UNIT:
        return dn
    dd = _poly_diff(e.den, name)
    nex = Expr(e.num, _UNIT)
    dex = Expr(e.den, _UNIT)
    num = sub(mul(dn, dex), mul(nex, dd))
    return div(num, mul(dex, dex))


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace symbols by expressions, renormalizing.  Each distinct power
    of an atom in e's own terms is substituted once per call."""
    powers: dict = {}  # (atom, exponent) -> the substituted power

    def sub_atom(a: Atom) -> Expr:
        if isinstance(a, SymAtom):
            return mapping.get(a.name, _atom_value(a))
        if isinstance(a, FuncAtom):
            return func(a.fname, substitute(a.arg, mapping))
        return substitute(a.base, mapping)

    def sub_power(a: Atom, ex: Number) -> Expr:
        out = powers.get((a, ex))
        if out is None:
            out = powers[(a, ex)] = pow_(sub_atom(a), ex)
        return out

    def sub_term(m: Mono, c: Number) -> Expr:
        term = rational(c)
        for a, ex in m:
            term = mul(term, sub_power(a, ex))
        return term

    def sub_poly(p: Poly) -> Expr:
        return sum_(sub_term(m, c) for m, c in p.items())

    out = sub_poly(e.num)
    if e.den is not _UNIT:
        out = div(out, sub_poly(e.den))
    return out


def integrate_radially(e: Expr, names: Iterable[str]) -> Optional[Expr]:
    """The integral of e(t*x) over t from 0 to 1, x being the symbols
    `names`, when e is a polynomial in them: each numerator term of degree k
    in them is divided by k + 1.  Other atoms are constants.  None when a
    name has a fractional power or appears in a denominator, a function
    argument or a root."""
    names = set(names)
    if names & free_symbols(Expr(e.den, _UNIT)):
        return None
    num: Poly = {}
    for m, c in e.num.items():
        k = 0
        for a, ex in m:
            if isinstance(a, SymAtom):
                if a.name in names:
                    if ex.denominator != 1:
                        return None
                    k += ex
            elif names & free_symbols(_atom_value(a)):
                return None
        num[m] = _q(Fraction(c, k + 1))
    return _make(num, e.den)


def free_symbols(e: Expr) -> set:
    out = set()

    def walk(x: Expr):
        for a in x.atoms():
            if isinstance(a, SymAtom):
                out.add(a.name)
            elif isinstance(a, FuncAtom):
                walk(a.arg)
            else:
                walk(a.base)

    walk(e)
    return out


def at_parameter_values(e: Expr, space: PhaseSpace) -> Expr:
    """e with each parameter replaced by its declared value as the exact
    rational of its shortest decimal text, Fraction(repr(value)): 0.1 is 1/10."""
    params = space.parameters
    names = free_symbols(e) & params.keys()
    return substitute(e, {n: rational(Fraction(repr(float(params[n])))) for n in names}) \
        if names else e


def rational_content(e: Expr) -> Fraction:
    """Positive rational content of the numerator, signed by the leading term."""
    if e.is_zero_expr:
        return Fraction(1)
    g = Fraction(0)
    for c in e.num.values():
        g = Fraction(math.gcd(g.numerator, c.numerator),
                     math.lcm(g.denominator, c.denominator)) if g else abs(c)
    _, lc = _leading(e.num)
    return Fraction(g if lc > 0 else -g)


# ---------------------------------------------------------------------------
# Printing (deterministic, re-parseable)


def _digits_error() -> ExprError:
    # for the ValueError of str() on an int beyond sys.get_int_max_str_digits()
    return ExprError(f"a constant has more than {sys.get_int_max_str_digits()} digits")


def _frac_str(c: Number) -> str:
    try:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    except ValueError as exc:
        raise _digits_error() from exc


def _exp_str(e: Number) -> str:
    try:
        if e.denominator == 1:
            return f"^{e.numerator}"
        return f"^({e.numerator}/{e.denominator})"
    except ValueError as exc:
        raise _digits_error() from exc


def _factor_str(a: Atom, e: Number) -> str:
    if isinstance(a, SymAtom):
        base = a.name
    elif isinstance(a, FuncAtom):
        base = f"{a.fname}({to_string(a.arg)})"
    else:
        base = f"({to_string(a.base)})"
    if e.denominator == 2 and e.numerator == 1:
        inner = to_string(a.base) if isinstance(a, PowAtom) else base
        return f"sqrt({inner})"
    if e == 1:
        return base
    return base + _exp_str(e)


def _poly_str(p: Poly) -> str:
    if not p:
        return "0"
    terms = sorted(p.items(), key=lambda kv: _mono_order(kv[0]), reverse=True)
    pieces = []
    for i, (m, c) in enumerate(terms):
        factors = "*".join(_factor_str(a, e) for a, e in m)
        mag = abs(c)
        if not factors:
            body = _frac_str(mag)
        elif mag == 1:
            body = factors
        else:
            body = f"{_frac_str(mag)}*{factors}"
        if i == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)


def to_string(e: Expr) -> str:
    num = _poly_str(e.num)
    if e.den is _UNIT:
        return num
    den = _poly_str(e.den)
    if len(e.num) > 1 or num.startswith("-"):
        num = f"({num})"
    return f"{num}/({den})"


# ---------------------------------------------------------------------------
# Phase space


class PhaseSpace:
    """Darboux chart: 2n ordered coordinates plus named parameter values.

    `parameters` and `domain` are read-only views of the space's own copies,
    fixed when it is built: the probe points, the box center and the
    compiled runs cached on the space all rest on them."""

    __slots__ = ("n", "coords", "parameters", "domain", "_index", "_compiled", "_probes",
                 "_residues", "_center", "__weakref__")

    def __init__(
        self,
        n: int,
        coords: Sequence[str],
        parameters: Optional[Mapping[str, float]] = None,
        domain: Optional[Mapping[str, tuple]] = None,
    ):
        if n < 1:
            raise ExprError("degrees of freedom must be positive")
        coords = tuple(coords)
        if len(coords) != 2 * n:
            raise ExprError(f"expected {2*n} coordinates, got {len(coords)}")
        if len(set(coords)) != len(coords):
            raise ExprError("coordinate names must be distinct")
        parameters = dict(parameters or {})
        clash = set(coords) & set(parameters)
        if clash:
            raise ExprError(f"names used as both coordinate and parameter: {sorted(clash)}")
        self.n = n
        self.coords = coords
        self.parameters = MappingProxyType(parameters)
        self.domain = MappingProxyType(dict(domain or {}))
        for name, (lo, hi) in self.domain.items():
            if name not in coords:
                raise ProbeBoxError(f"domain {name!r} names no coordinate", name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ProbeBoxError(f"domain of {name!r} needs finite bounds with lo < hi, "
                                    f"got {lo!r} .. {hi!r}", name)
        self._index = {name: i for i, name in enumerate(coords)}
        self._compiled: dict = {}
        # the probe points drawn so far, per seed: see ProbeConfig.points;
        # and the residue points, per seed: see ProbeConfig.residues
        self._probes: dict = {}
        self._residues: dict = {}
        self._center: Optional[tuple] = None

    def coord_index(self, name: str) -> int:
        return self._index[name]

    def box(self, name: str) -> tuple:
        return self.domain.get(name, (-1.0, 1.0))

    def center(self) -> tuple:
        """The probe box's center, exactly: one Fraction per coordinate,
        built on first use."""
        if self._center is None:
            self._center = tuple((Fraction(lo) + Fraction(hi)) / 2
                                 for lo, hi in map(self.box, self.coords))
        return self._center

    def compile(self, exprs: Tuple[Expr, ...],
                source: Callable[[Sequence[str]], Sequence[str]]) -> Callable:
        """Cached compile_numeric: one function per source and tuple."""
        key = (source, exprs)
        fn = self._compiled.get(key)
        if fn is None:
            fn = self._compiled[key] = compile_numeric(exprs, self, source)
        return fn

    def __repr__(self):
        return f"PhaseSpace(n={self.n}, coords={self.coords})"


# ---------------------------------------------------------------------------
# Parser: precedence climbing over the documented grammar


# Every character but whitespace starts a match ("bad" takes those no token
# starts with), so each match begins where the last one ended and finditer
# leaves only trailing whitespace unmatched.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start())
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_PREC = 30  # binds tighter than * but looser than ^

# Deepest nesting the parser accepts: each parenthesis, function argument,
# sign and right-hand operand opens a level.  The bundled files reach 5; the
# limit keeps every recursive walk of the result far from Python's own limit.
MAX_NESTING = 64


class _Parser:
    def __init__(self, text: str, space: PhaseSpace):
        self.text = text
        self.space = space
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> Expr:
        e = self.expression(0)
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token {val!r}", pos)
        return e

    def expression(self, min_prec: int) -> Expr:
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels",
                             self.peek()[2])
        self.depth += 1
        lhs = self.atom()
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in _BIN_PREC or _BIN_PREC[val] < min_prec:
                self.depth -= 1
                return lhs
            prec = _BIN_PREC[val]
            self.next()
            if val == "^":
                rhs = self.expression(prec)  # right-associative
                lhs = self.power(lhs, rhs, pos)
            else:
                rhs = self.expression(prec + 1)
                if val == "+":
                    lhs = add(lhs, rhs)
                elif val == "-":
                    lhs = sub(lhs, rhs)
                elif val == "*":
                    lhs = mul(lhs, rhs)
                else:
                    if rhs.is_zero_expr or _zero_mod_p(rhs, self.space):
                        raise ParseError("division by zero", pos)
                    lhs = div(lhs, rhs)

    def power(self, base: Expr, exponent: Expr, pos: int) -> Expr:
        if not exponent.is_rational:
            raise ParseError("exponent must be an integer or rational constant", pos)
        if exponent.rational_value < 0 and _zero_mod_p(base, self.space):
            raise ParseError("division by zero", pos)
        try:
            return pow_(base, exponent.rational_value)
        except ExprError as exc:
            raise ParseError(str(exc), pos) from exc

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            # An all-digit literal no longer than the digit limit is an int
            # at once.  Any other (2.5, 1e-5) goes through Decimal, and so
            # does a longer all-digit one: int() would count its leading
            # zeros against the limit, while the check below does not.
            limit = sys.get_int_max_str_digits()
            if val.isdecimal() and not (limit and len(val) > limit):
                return rational(int(val))
            try:
                d = Decimal(val)
            except InvalidOperation as exc:  # pragma: no cover - regex-guarded
                raise ParseError(f"bad numeric literal {val!r}", pos) from exc
            # The value is D*10^exp, D an n-digit integer with no leading
            # zero.  Its numerator and denominator in lowest terms may have
            # at most `limit` digits, so that they can be printed; the digit
            # counts decide before the Fraction is built, which for
            # 1e10000000 would take seconds.  exp >= 0: the numerator has
            # n + exp digits.  exp < 0: the denominator is 10^-exp over a
            # divisor of D, so it exceeds 10^(-exp-n) and is at most
            # 10^-exp, and the numerator is at most D.  Only when neither
            # bound decides, and so -exp < limit + n, is the Fraction built.
            _, digits, exp = d.as_tuple()
            n = len(digits)
            if not limit or d.is_zero():
                too_long = False
            elif exp >= 0:
                too_long = n + exp > limit
            elif -exp - n >= limit:
                too_long = True
            elif -exp < limit and n <= limit:
                too_long = False
            else:
                f = Fraction(d)
                too_long = max(abs(f.numerator), f.denominator) >= 10**limit
            if too_long:
                raise ParseError(f"numeric literal has more than {limit} digits", pos)
            return rational(Fraction(d))
        if kind == "id":
            nk, nv, npos = self.peek()
            if nk == "op" and nv == "(":
                if val not in FUNCTION_NAMES:
                    raise UnknownIdentifierError(f"unknown function {val!r}", pos)
                self.next()
                arg = self.expression(0)
                k2, v2, p2 = self.peek()
                if k2 == "op" and v2 == ",":
                    raise ParseError(f"{val} takes exactly one argument", p2)
                self.expect(")")
                return func(val, arg)
            if val in self.space._index or val in self.space.parameters:
                return symbol(val)
            raise UnknownIdentifierError(
                f"unknown identifier {val!r} (not a coordinate or parameter)", pos
            )
        if kind == "op":
            if val == "(":
                e = self.expression(0)
                self.expect(")")
                return e
            if val == "-":
                return -self.expression(_UNARY_PREC)
            if val == "+":
                return self.expression(_UNARY_PREC)
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)


def parse(text: str, space: PhaseSpace) -> Expr:
    """Parse an infix expression over the space's coordinates and parameters."""
    return _Parser(text, space).parse()


# ---------------------------------------------------------------------------
# Numeric evaluation (guarded): compiled code and the canonical-form walk


# Each guard takes the Expr or atom it guards and prints its snippet only
# when it raises, so compiling prints nothing.


def _g_div(a: float, b: float, e: Expr) -> float:
    if b == 0.0:
        raise EvalDomainError("division by zero", _snippet(e))
    return a / b


TAN_POLE_THRESHOLD = 1e-12  # |cos| below this is a tangent pole, scalar and batch


def _g_tan(x: float, a: Atom) -> float:
    c = math.cos(x)
    if abs(c) < TAN_POLE_THRESHOLD:
        raise EvalDomainError("tangent pole", _snippet(_atom_value(a)))
    return math.sin(x) / c


def _g_ln(x: float, a: Atom) -> float:
    if x <= 0.0:
        raise EvalDomainError("logarithm of a nonpositive value", _snippet(_atom_value(a)))
    return math.log(x)


def _g_pow(base: float, p: int, q: int, a: Atom) -> float:
    # canonical monomial exponents are positive, so the base may be zero
    if base < 0.0:
        raise EvalDomainError("fractional power of a negative value", _snippet(_atom_value(a)))
    return base ** (p / q)


# `math` and the guards: the globals of compiled code, and the default
# namespace of `_Interpreter`, which also reads each parameter's value through
# _param (compiled code binds the value itself)
_SCALAR_NS = dict(math=math, _param=lambda value: value, _div=_g_div, _tan=_g_tan,
                  _ln=_g_ln, _pow=_g_pow)


def _float(c: Number, what: str = "a constant") -> float:
    try:
        return float(c)
    except OverflowError:
        raise ExprError(f"{what} exceeds the float range (about 1.8e308)") from None


def _g_fault(e: Union[Expr, Tuple[Expr, ...]], exc: Exception, x: Sequence[float],
             space_ref: weakref.ref) -> EvalDomainError:
    """The domain fault of e at x; for a tuple, that of its first component
    that faults at x on its own (walked, not compiled).  The space is held
    weakly (no cycle)."""
    space = space_ref()
    if space is not None and not isinstance(e, Expr):
        for c in e:
            try:
                interpret(c, space)(x)
            except EvalDomainError as fault:
                return fault
    what = "float overflow" if isinstance(exc, OverflowError) else "math domain error"
    return EvalDomainError(what, _snippet(e))


def _snippet(e: Union[Expr, Tuple[Expr, ...]], limit: int = 60) -> str:
    s = to_string(e) if isinstance(e, Expr) else ", ".join(map(to_string, e))
    return s if len(s) <= limit else s[: limit - 3] + "..."


def _terms(p: Poly):
    """The terms of p in evaluation order, largest monomial first, as
    (coefficient, monomial).  The coefficient is a float, or None where it
    is left out (1 times a nonempty monomial); a term's coefficient is
    converted, and may raise ExprError, just before the term is walked.
    Sums and products then run left to right.  Both numeric evaluators,
    `_Emitter` and `_Interpreter`, walk polynomials through this."""
    for m, c in sorted(p.items(), key=lambda kv: _mono_order(kv[0]), reverse=True):
        yield (None if c == 1 and m else _float(c)), m


def _common(a: list, b: list) -> int:
    """The length of the longest common prefix of a and b."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


class _Emitter:
    """Python code for expressions over one space.  Coordinate i reads as
    the local v{i}; a parameter reads as its value, bound in `ns` under a
    prefixed name so no parameter can shadow a local or a helper; and each
    guard's Expr or atom is bound in `ns` too, once per object.  Every other
    atom is evaluated at its first use and stored in a local `_a<k>`, which
    later uses read.  Python evaluates the code left to right, as it is
    emitted, so every later use runs after the store, and a fault in the
    atom is raised at its first use.  tan(u) is sin(u)/cos(u), both atoms
    (so it shares the cosine with a cos(u)), and calls its guard `_tan` only
    at the pole, to raise the fault.  Adjacent terms of one polynomial that
    begin with the same product of two factors or more (same coefficient,
    same (atom, exponent) factors) compute it once, into a local `_t<k>`:
    a product runs left to right, so that is the float each term computed.

    State-free work goes to `prelude`, lines run once per call before the
    code, each storing one distinct value in a local `_c<k>`: every `math`
    function the code calls, and every term's longest leading run of
    unguarded state-free factors (its coefficient, then parameters with
    integer exponents).  A term multiplies left to right, so `_c0*v1` is
    the float `-1.0*_p_k**2*v1` is; factors are never reordered, so a
    parameter that sorts after a coordinate stays in place.  Guarded
    factors (a parameter's fractional power, any other atom, a quotient)
    stay in the code: a guard raises its fault itself, and hoisted it could
    raise ahead of an earlier component's fault.  A prefix can only
    overflow, which `compile_numeric` names by replaying the components in
    order, as it would at the code's first evaluation."""

    def __init__(self, space: PhaseSpace):
        self.names = {name: f"v{i}" for i, name in enumerate(space.coords)}
        self.ns = dict(_SCALAR_NS)
        self._parameters = {SymAtom(name) for name in space.parameters}
        for name, value in space.parameters.items():
            self.names[name] = f"_p_{name}"
            self.ns[f"_p_{name}"] = value
        self._bound: dict = {}  # id of a guarded object -> its name in ns
        self._stored: dict = {}  # atom -> the local holding its value
        self._hoisted: dict = {}  # state-free code -> the prelude local holding its value
        self._products = count()  # numbers the locals _t<k> of shared products
        self.prelude: list = []

    def bind(self, obj) -> str:
        name = self._bound.get(id(obj))
        if name is None:
            name = self._bound[id(obj)] = f"_g{len(self._bound)}"
            self.ns[name] = obj
        return name

    def hoist(self, code: str) -> str:
        name = self._hoisted.get(code)
        if name is None:
            name = self._hoisted[code] = f"_c{len(self._hoisted)}"
            self.prelude.append(f"{name} = {code}")
        return name

    def expr(self, e: Expr) -> str:
        num = self.poly(e.num)
        if e.den is _UNIT:
            return num
        return f"_div({num}, {self.poly(e.den)}, {self.bind(e)})"

    def poly(self, p: Poly) -> str:
        if not p:
            return "0.0"
        terms = []  # per term, its factors' keys and codes, the lead as one factor
        for c, m in _terms(p):
            lead = [] if c is None else [repr(c)]  # the leading state-free run
            keys, codes = [], []
            for a, e in m:
                code = self.factor(a, e)
                if not codes and e.denominator == 1 and a in self._parameters:
                    lead.append(code)
                else:
                    keys.append((a, e))
                    codes.append(code)
            if len(lead) > (0 if c is None else 1):  # the run holds a parameter
                lead = [self.hoist("*".join(lead))]
            terms.append((lead + keys, lead + codes))
        out, i = [], 0
        while i < len(terms):
            (keys, codes), j = terms[i], i + 1
            k = _common(keys, terms[j][0]) if j < len(terms) else 0
            if k > 1:  # terms i to j - 1 share their first k factors
                while j < len(terms) and terms[j][0][:k] == keys[:k]:
                    j += 1
                name = f"_t{next(self._products)}"
                codes = [f"({name} := {'*'.join(codes[:k])})"] + codes[k:]
            out += ["*".join(codes)] + ["*".join([name, *c[k:]]) for _, c in terms[i + 1:j]]
            i = j
        return "(" + " + ".join(out) + ")"

    def factor(self, a: Atom, e: Number) -> str:
        base = self.atom(a)
        if e == 1:
            return base
        _float(e, "an exponent")  # raises for an exponent beyond the float range
        if e.denominator == 1:
            return f"{base}**{e.numerator}"
        return f"_pow({base}, {e.numerator}, {e.denominator}, {self.bind(a)})"

    def atom(self, a: Atom) -> str:
        if isinstance(a, SymAtom):
            code = self.names.get(a.name)
            if code is None:
                raise ExprError(f"symbol {a.name!r} is not bound in this phase space")
            return code
        local = self._stored.get(a)
        if local is not None:
            return local
        if isinstance(a, FuncAtom) and a.fname == "tan":
            cos, t = FuncAtom("cos", a.arg), repr(TAN_POLE_THRESHOLD)
            test = self.atom(cos)  # the test runs first, so the atoms it uses are stored there
            code = (f"_tan({self.expr(a.arg)}, {self.bind(a)}) if -{t} < {test} < {t} "
                    f"else {self.atom(FuncAtom('sin', a.arg))} / {self._stored[cos]}")
        elif isinstance(a, FuncAtom):
            arg = self.expr(a.arg)
            if a.fname == "ln":
                code = f"_ln({arg}, {self.bind(a)})"
            else:
                code = f"{self.hoist(f'math.{a.fname}')}({arg})"
        else:
            code = self.expr(a.base)
        local = self._stored[a] = f"_a{len(self._stored)}"
        return f"({local} := {code})"


def compile_numeric(exprs: Tuple[Expr, ...], space: PhaseSpace,
                    source: Callable[[Sequence[str]], Sequence[str]]) -> Callable:
    """Compile a tuple of Exprs into `_f(x, d, steps=0, out=None)`, whose
    body is the lines source(codes) returns, run under one domain-fault
    handler.

    codes are the components' code, reading coordinate i from the local
    v{i}; v0, v1, ... and x0, x1, ... start as the entries of x, and the body
    may set them again (an integrator stage does).  d, steps and out mean
    what the source makes of them: an integrator run takes steps steps of
    size d and stores its states in out; the quadrature integrand reads d as
    the segment's direction and leaves the rest.  Parameters are
    bound under prefixed names, so none can shadow a local or a helper.  A
    float overflow or a math domain error (sin of inf) is a domain fault,
    named after the first component that faults on its own at the current
    v0, v1, ...; too deep a nesting for Python's compiler is an ExprError.

    The codes' state-free, unguarded work (each `math` function lookup and
    each term's coefficient-and-parameter prefix) runs once per call, in
    the emitter's prelude ahead of the body (see `_Emitter`), so a run of
    any number of steps does it once.  A prelude overflow is a fault at x,
    named as above, where the body's first evaluation would raise it.
    The codes evaluate each atom, and each product that adjacent terms
    begin with, once per evaluation (see `_Emitter`).
    """
    rows = range(2 * space.n)
    point = ", ".join(f"v{i}" for i in rows)
    state = ", ".join(f"x{i}" for i in rows)
    em = _Emitter(space)
    try:
        codes = [em.expr(e) for e in exprs]
        body = "".join(f"        {line}\n" for line in em.prelude + list(source(codes)))
        code = compile("def _f(x, d, steps=0, out=None):\n"
                       f"    {point} = {state} = x\n    try:\n{body}"
                       "    except (OverflowError, ValueError) as exc:\n"
                       f"        raise _fault(_e, exc, ({point},), _space) from None\n",
                       f"<expr {len(exprs)} components>", "exec")
    except (SyntaxError, RecursionError) as exc:
        raise ExprError(f"expression too deeply nested to compile ({exc})") from None
    em.ns.update(_fault=_g_fault, _e=exprs, _space=weakref.ref(space))
    exec(code, em.ns)
    return em.ns["_f"]


def _batch_namespace() -> dict:
    """numpy in place of math, and parameters as numpy floats, so that
    every operation of the walk is numpy's.  Under `batch_values`' errstate a
    zero divisor, the logarithm of a nonpositive value, a fractional power
    of a negative value and an overflow, parameter products included, raise
    FloatingPointError.  Only the tangent keeps a guard: its pole test is
    `TAN_POLE_THRESHOLD`, not an IEEE exception.  numpy is imported here, so
    that importing this module does not load it."""
    import numpy as np

    def tan(x, a):
        c = np.cos(x)
        if np.any(np.abs(c) < TAN_POLE_THRESHOLD):
            raise FloatingPointError("tangent pole")
        return np.sin(x) / c

    return dict(math=np, _param=np.float64, _div=lambda a, b, e: a / b, _tan=tan,
                _ln=lambda x, a: np.log(x),
                _pow=lambda base, p, q, a: np.power(base, p / q))


def batch_values(e: Expr, space: PhaseSpace, states):
    """The values of one Expr at the rows of an (m, 2n) float array, as an
    (m,) float64 array, or None.

    `_Interpreter` walks e once over the state columns with the namespace of
    `_batch_namespace`, with numpy's overflow, invalid-operation and
    division-by-zero errors raised and underflow ignored.  No code is built.
    The result is None where the scalar path must decide: when a numpy
    floating-point error is raised, a tangent's cosine is below
    `TAN_POLE_THRESHOLD` on some row, a value is not finite, or e is nested
    too deeply to walk.  The caller then evaluates the rows one by one with
    interpret(e, space), which raises the first row's domain fault or returns
    the values, non-finite ones included.  Where both decide, they agree to
    within a few ulp (numpy's and the math module's functions may round differently).
    """
    import numpy as np

    try:
        value = _Interpreter(space, _batch_namespace()).expr(e)
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            v = value(states.T)
    except (ArithmeticError, ValueError, RecursionError):
        return None
    v = np.broadcast_to(v, len(states))  # a constant Expr gives one float
    return v if np.isfinite(v).all() else None


class _Interpreter:
    """Evaluators f(point) for expressions over one space, read off the
    canonical form with no code built.  Each does the operations of
    `_Emitter`'s code for the same Expr, in the same order, with the `math`,
    parameter values and guards of `ns` (an atom used twice is evaluated
    twice, to the same value).  With the default `_SCALAR_NS`, values and
    faults agree with the compiled code bit for bit; with
    `_batch_namespace()`, the point is the state columns of a trajectory and
    every operation is numpy's, on whole columns.  Building one walks the
    whole Expr first, so an unbound symbol or a constant or exponent beyond the float
    range raises ExprError before any point is evaluated, as compiling does.
    A coordinate to an integral power is no closure: the term loop reads it
    inline, as x[i] or x[i] ** n, the operation the compiled code does; every
    other factor is a closure f(x)."""

    def __init__(self, space: PhaseSpace, ns: Mapping = _SCALAR_NS):
        self.space = space
        self.math, self.param, self.div, self.pow = ns["math"], ns["_param"], ns["_div"], ns["_pow"]
        self.guards = {"tan": ns["_tan"], "ln": ns["_ln"]}

    def expr(self, e: Expr) -> Callable:
        num = self.poly(e.num)
        if e.den is _UNIT:
            return num
        den, div = self.poly(e.den), self.div
        return lambda x: div(num(x), den(x), e)

    def poly(self, p: Poly) -> Callable:
        if not p:
            return lambda x: 0.0
        terms = [(c, [self.factor(a, e) for a, e in m]) for c, m in _terms(p)]

        def value(x):
            total = None
            for c, factors in terms:
                t = c
                for f in factors:
                    if type(f) is tuple:
                        i, n = f
                        v = x[i] if n == 1 else x[i] ** n
                    else:
                        v = f(x)
                    t = v if t is None else t * v
                total = t if total is None else total + t
            return total
        return value

    def factor(self, a: Atom, e: Number) -> Union[Callable, tuple]:
        """f(x) for a^e; for coordinate i to an integral power n, the pair
        (i, n), which `poly` reads inline as x[i] or x[i] ** n."""
        i = self.space._index.get(a.name) if type(a) is SymAtom else None
        if i is not None and type(e) is int:  # an integral exponent is an int (see _q)
            if e != 1:
                _float(e, "an exponent")  # raises for an exponent beyond the float range
            return i, e
        base = self.atom(a)
        if e == 1:
            return base
        _float(e, "an exponent")
        p, q, pow_ = e.numerator, e.denominator, self.pow
        if q == 1:
            return lambda x: base(x) ** p
        return lambda x: pow_(base(x), p, q, a)

    def atom(self, a: Atom) -> Callable:
        if isinstance(a, SymAtom):
            i = self.space._index.get(a.name)
            if i is not None:
                return itemgetter(i)
            if a.name not in self.space.parameters:
                raise ExprError(f"symbol {a.name!r} is not bound in this phase space")
            value = self.param(self.space.parameters[a.name])
            return lambda x: value
        if isinstance(a, FuncAtom):
            arg = self.expr(a.arg)
            guard = self.guards.get(a.fname)
            if guard is not None:
                return lambda x: guard(arg(x), a)
            fn = getattr(self.math, a.fname)
            return lambda x: fn(arg(x))
        return self.expr(a.base)


def interpret(e: Expr, space: PhaseSpace) -> Callable:
    """f(point) -> float for one Expr, walked by `_Interpreter` with no code
    built: the value or the EvalDomainError that e's code compiled by
    compile_numeric gives at the point, bit for bit.  An Expr nested too
    deeply to walk is an ExprError; one that walks also evaluates, since
    evaluating nests fewer Python frames than walking."""
    try:
        value = _Interpreter(space).expr(e)
    except RecursionError:
        raise ExprError("expression too deeply nested to evaluate") from None

    def f(x):
        try:
            return value(x)
        except (OverflowError, ValueError) as exc:
            raise _g_fault(e, exc, x, weakref.ref(space)) from None
    return f


def eval_numeric(e: Expr, point: Sequence[float], space: PhaseSpace) -> float:
    """Evaluate at a phase-space point (IEEE double), with no code built."""
    if len(point) != 2 * space.n:
        raise ExprError(f"point must have {2*space.n} components")
    return interpret(e, space)(tuple(point))


# ---------------------------------------------------------------------------
# Probabilistic zero / constant testing


SYMBOLIC_ZERO = "symbolic-zero"
NUMERIC_ZERO = "numeric-zero"
NONZERO = "nonzero"


class ZeroVerdict:
    """The outcome of a zero test, with the evidence it rests on.  `modular`
    marks a verdict decided by a residue modulo P; `parameter_special`, a
    modular zero that holds only at the declared parameter values."""

    def __init__(self, kind: str, probes: int = 0, seed: int = 0, max_abs: float = 0.0,
                 witness_point: Optional[tuple] = None, witness_value: Optional[float] = None,
                 modular: bool = False, parameter_special: bool = False):
        self.kind = kind
        self.probes = probes
        self.seed = seed
        self.max_abs = max_abs
        self.witness_point = witness_point
        self.witness_value = witness_value
        self.modular = modular
        self.parameter_special = parameter_special

    @property
    def is_zero(self) -> bool:
        return self.kind != NONZERO

    @property
    def numeric(self) -> bool:
        """True when the verdict rests on probing rather than the normal form."""
        return self.kind == NUMERIC_ZERO

    def describe(self) -> str:
        if self.kind == SYMBOLIC_ZERO:
            return "symbolic zero (normal form vanishes)"
        if self.kind == NUMERIC_ZERO and self.modular:
            where = ", holds only at the declared parameter values" \
                if self.parameter_special else ""
            return f"numeric zero (probabilistic): residue 0 mod {P_TEXT}{where}, seed {self.seed}"
        if self.kind == NUMERIC_ZERO:
            return (f"numeric zero (probabilistic): {self.probes} probes, "
                    f"max |value| = {self.max_abs:.3e}, seed {self.seed}")
        how = f" (decided mod {P_TEXT})" if self.modular else ""
        return (f"nonzero{how}: witness value {self.witness_value:.6e} "
                f"at {self.witness_point}")


# The prime of the exact zero test.  It is 3 mod 4, so -1 is no square mod P
# and 1 + t^2, the denominator of sin and cos at a Weierstrass point t, never
# vanishes.
P = 2**61 - 1
P_TEXT = "2^61-1"


def _poly_residue(p: Poly, at: Mapping) -> Optional[int]:
    """p modulo P at the point `at` (atom -> residue), or None when p is
    outside the exact class: an atom `at` has no residue for, a fractional
    exponent, or a coefficient whose denominator P divides."""
    total = 0
    for m, c in p.items():
        d = c.denominator
        if d == 1:
            t = c % P
        elif d % P:
            t = c.numerator * pow(d, -1, P) % P
        else:
            return None
        for a, e in m:
            v = at.get(a)
            if v is None or type(e) is not int:
                return None
            t = t * (v if e == 1 else pow(v, e, P)) % P
        total += t
    return total % P


def _residue(e: Expr, at: Mapping) -> Optional[int]:
    """e modulo P at `at`, or None outside the exact class or where the
    denominator vanishes there."""
    n = _poly_residue(e.num, at)
    if n is None or e.den is _UNIT:
        return n
    d = _poly_residue(e.den, at)
    return n * pow(d, -1, P) % P if d else None


def _zero_mod_p(e: Expr, space: PhaseSpace) -> bool:
    """True when e has a function atom and its numerator is zero modulo P at
    the default seed's residue point: a divisor that the canonical form,
    exact on polynomials, leaves open."""
    return any(isinstance(a, FuncAtom) for m in e.num for a, _ in m) \
        and _poly_residue(e.num, ProbeConfig().residues(space)[0]) == 0


# Probe points drawn per requested valid probe, so that points outside an
# expression's domain can be skipped without running out.
PROBE_RESAMPLE_FACTOR = 8


class ProbeConfig:
    """Reproducible sampling plan for numeric zero-testing."""

    def __init__(self, count: int = 64, tolerance: float = 1e-9, seed: int = 42):
        if not (isinstance(count, int) and count >= 1):
            raise ExprError(f"probe count must be an integer >= 1, got {count!r}")
        if not (math.isfinite(tolerance) and tolerance >= 0):
            raise ExprError(f"probe tolerance must be finite and >= 0, got {tolerance!r}")
        self.count = count
        self.tolerance = tolerance
        self.seed = seed

    def points(self, space: PhaseSpace) -> Iterable[tuple]:
        """Up to count * PROBE_RESAMPLE_FACTOR seeded points in the domain box.

        The points are drawn once per phase space: the space keeps the
        sequence of `random.Random(f"probe:{seed}")`, keyed by seed (the
        boxes are fixed when the space is built, and the sequence does not
        depend on count), and extends it only when a caller reads past its
        end.  Every call yields the same points, in the same order, as a
        fresh draw would."""
        drawn = space._probes.get(self.seed)
        if drawn is None:
            drawn = space._probes[self.seed] = (random.Random(f"probe:{self.seed}"), [])
        rng, pts = drawn
        for i in range(self.count * PROBE_RESAMPLE_FACTOR):
            if i == len(pts):
                pts.append(tuple([rng.uniform(lo, hi)
                                  for lo, hi in map(space.box, space.coords)]))
            yield pts[i]

    def residues(self, space: PhaseSpace) -> Tuple[dict, dict]:
        """The residue point of the exact zero test, as two maps atom ->
        residue modulo P.  Each coordinate x_i gets a random residue, and so
        does exp(x_i); sin, cos and tan of x_i get 2t/(1+t^2), (1-t^2)/(1+t^2)
        and 2t/(1-t^2) at one random t = t_i other than +-1, so sin^2 + cos^2
        = 1 and tan*cos = sin hold there exactly.  A parameter gets its
        declared value as an exact decimal, as `at_parameter_values` reads
        it, in the first map, and a random residue in the second.  Drawn
        once per space and seed, from `random.Random(f"residue:{seed}")`,
        so the probe points stay as they are."""
        pts = space._residues.get(self.seed)
        if pts is None:
            rng, at = random.Random(f"residue:{self.seed}"), {}
            for name in space.coords:
                x, t = symbol(name), rng.randrange(2, P - 1)
                inv = pow(1 + t * t, -1, P)
                at[SymAtom(name)] = rng.randrange(P)
                at[FuncAtom("exp", x)] = rng.randrange(1, P)
                at[FuncAtom("sin", x)] = 2 * t * inv % P
                at[FuncAtom("cos", x)] = (1 - t * t) * inv % P
                at[FuncAtom("tan", x)] = 2 * t * pow(1 - t * t, -1, P) % P
            free = dict(at)
            for name, value in space.parameters.items():
                if math.isfinite(value):
                    v = Fraction(repr(float(value)))  # its denominator is 2^i*5^j
                    at[SymAtom(name)] = v.numerator * pow(v.denominator, -1, P) % P
                free[SymAtom(name)] = rng.randrange(P)
            pts = space._residues[self.seed] = (at, free)
        return pts


def is_zero(e: Expr, space: PhaseSpace, config: Optional[ProbeConfig] = None) -> ZeroVerdict:
    """Hybrid zero test: canonical form first, then the first valid probe,
    then one residue modulo P, or seeded probing outside the exact class.

    Every probe is evaluated by walking the canonical form (`interpret`),
    so no code is built.  The probe points are drawn once per phase space
    and shared by every test on it (see `ProbeConfig.points`).  A value
    above tolerance decides at once, and most nonzero verdicts end at the
    first valid probe.  At or below it, a numerator in the exact class (see
    `_poly_residue`) is read modulo P at the residue point (see
    `ProbeConfig.residues`): a nonzero residue proves e nonzero, with the
    probe as witness, and a zero one is a zero that errs with probability
    at most deg/P.  When the space has parameters, a zero is read once
    more with random parameter residues, and a residue nonzero there marks
    it as holding only at the declared values.  Outside the class a numeric
    zero takes config.count valid probes.
    """
    config = config or ProbeConfig()
    if e.is_zero_expr:
        return ZeroVerdict(SYMBOLIC_ZERO, seed=config.seed)
    if e.is_rational:
        return ZeroVerdict(NONZERO, seed=config.seed, witness_point=(0.0,) * len(space.coords),
                           witness_value=_float(e.rational_value))
    fn = interpret(e, space)
    valid = 0
    max_abs = 0.0
    for point in config.points(space):
        try:
            v = fn(point)
        except EvalDomainError:
            continue
        if not math.isfinite(v):
            continue
        valid += 1
        av = abs(v)
        if av > config.tolerance:
            return ZeroVerdict(NONZERO, probes=valid, seed=config.seed, max_abs=av,
                               witness_point=point, witness_value=v)
        if valid == 1:
            at, free = config.residues(space)
            r = _poly_residue(e.num, at)
            if r:
                return ZeroVerdict(NONZERO, probes=1, seed=config.seed, max_abs=av,
                                   witness_point=point, witness_value=v, modular=True)
            if r == 0:
                special = bool(space.parameters) and _poly_residue(e.num, free) != 0
                return ZeroVerdict(NUMERIC_ZERO, probes=1, seed=config.seed, max_abs=av,
                                   modular=True, parameter_special=special)
        max_abs = max(max_abs, av)
        if valid >= config.count:
            break
    if valid < config.count:
        raise NoValidProbesError(
            f"no valid probe points: only {valid}/{config.count} evaluations "
            f"succeeded for {_snippet(e)}"
        )
    return ZeroVerdict(NUMERIC_ZERO, probes=valid, seed=config.seed, max_abs=max_abs)


def aggregate_zero(exprs: Iterable[Expr], space: PhaseSpace,
                   config: Optional[ProbeConfig] = None) -> Tuple[ZeroVerdict, Optional[int]]:
    """Joint zero verdict over exprs, tested lazily in order.

    The first nonzero entry wins and its position is returned with it;
    otherwise the last numeric zero if any entry was probed, else a symbolic
    zero (position None).
    """
    config = config or ProbeConfig()
    numeric: Optional[ZeroVerdict] = None
    for i, e in enumerate(exprs):
        v = is_zero(e, space, config)
        if not v.is_zero:
            return v, i
        if v.numeric:
            numeric = v
    if numeric is not None:
        return numeric, None
    return ZeroVerdict(SYMBOLIC_ZERO, seed=config.seed), None


class ConstantVerdict:
    """The outcome of a constancy test."""

    def __init__(self, is_constant: bool, symbolic: bool = False, value: Optional[Expr] = None,
                 numeric_value: Optional[float] = None, witness_coord: Optional[str] = None):
        self.is_constant = is_constant
        self.symbolic = symbolic
        self.value = value
        self.numeric_value = numeric_value
        self.witness_coord = witness_coord

    def describe(self) -> str:
        if not self.is_constant:
            return f"not constant: d/d{self.witness_coord} is nonzero"
        val = to_string(self.value) if self.value is not None else repr(self.numeric_value)
        mode = "symbolic" if self.symbolic else "numeric (probabilistic)"
        return f"constant {val} [{mode}]"


def is_constant(e: Expr, space: PhaseSpace, config: Optional[ProbeConfig] = None) -> ConstantVerdict:
    """Check that every coordinate partial vanishes; report the constant value."""
    verdict, i = aggregate_zero((differentiate(e, name) for name in space.coords),
                                space, config)
    if i is not None:
        return ConstantVerdict(False, witness_coord=space.coords[i])
    coord_free = not (free_symbols(e) & set(space.coords))
    if coord_free:
        return ConstantVerdict(True, symbolic=not verdict.numeric, value=e)
    val = eval_numeric(e, tuple(map(float, space.center())), space)
    return ConstantVerdict(True, symbolic=False, numeric_value=val)
