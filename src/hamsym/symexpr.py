"""Symbolic scalar expressions over phase-space coordinates and named parameters.

Expressions are kept in a canonical rational form: a rational scale times a
quotient num/den of expanded polynomials with int coefficients, whose
indeterminates ("atoms") are coordinate or parameter symbols, applications
of sin/cos/tan/exp/ln, and irreducible fractional powers.  den is
primitive (the gcd of its coefficients is 1) or 1, a one-term polynomial
has coefficient 1, and the scale is a pair of ints in lowest terms (see
`Expr`).  Construction always canonicalizes, so normalization is
idempotent by design, and structurally equal expressions are equal.
Everything that reads an Expr (printing, the structural key, evaluation,
residues) reads its rational form, whose coefficients are num*scale/lc and
den/lc for lc den's leading coefficient: the form in which den leads with 1.

Simplification is deliberately restricted: rational constants fold, like
terms and like factors collect, and sums go over a common denominator with
expanded numerators.  Nothing else.  In particular sin, cos, tan and exp
applications are independent indeterminates of the canonical form, so
structural equality sees no trig identity (sin(q)^2 + cos(q)^2 is not 1,
and 1/cos(q)^2 is not 1 + tan(q)^2).  The residue modulo P decides every
such identity whose arguments are integer-linear in the coordinates, and
the float probes the rest (see `is_zero` and `_linear_residue`).
Every sum is built by `sum_`, which owns the one common-denominator rule: a
shared denominator, or one that divides the other, is kept; otherwise the
product of the two is used.  A denominator that divides its numerator
exactly cancels (`_poly_exact_div`, under a graded monomial order).  There
is no polynomial gcd, so a common factor that neither denominator exposes
this way stays in both parts.
Coefficient arithmetic is int arithmetic.  A product with a rational
constant, a sign flip and `sub` change only the scale and share the
polynomials.  Products and derivatives multiply ints.  A sum brings its
terms' scales to a common one with int multipliers (`_add_scaled`).
`_make` moves a one-term numerator's coefficient and a denominator's
content into the scale.  No Fraction is built on these paths.
The parser tokenizes with one regex call per expression and keeps no
token positions: an error works its position out from the token lengths.
It reads an all-digit literal as an int; only a literal with a
point or an exponent (2.5, 1e-5), or an all-digit one longer than
`sys.get_int_max_str_digits()`, goes through Decimal.  A symbol, and an
integer literal from 0 to 99, is one shared Expr.
Atoms are interned by key (`_ATOMS`, weak values), so equal atoms are one
object and compare and hash by identity.
A monomial has one of two forms, fixed by its factors (see `Mono`): over
symbols alone, with integral exponents below 2^15, it is packed into one
int, a 16-bit field per symbol with a guard bit on top, so a product of two
is one int addition and a derivative subtracts one unit from a field; any
other monomial (with a function atom, a root, a fractional exponent or one
of 2^15 or more) is a tuple of (atom, exponent) pairs sorted by atom key.
A symbol gets its field when it is first built and keeps it, and is kept,
for the life of the process; function atoms and roots stay weakly
interned.  Readers unpack through `_factors` to the sorted pairs, so
printing, keys, residues and evaluation see one order, and a pickle holds
the pairs, since fields belong to one process.
`Expr.key`, the structural key that equality and
hashing use, is built on first use: no kernel operation mutates a Poly once
an Expr holds it, so a key built late is the key the Expr was made with, and
operations may share a Poly between operand and result (a product with a
unit polynomial is the other operand itself).  The denominator 1 is one
shared Poly, `_UNIT`, which nothing mutates: every Expr over 1 holds it
(copies and unpickled Exprs too), so "is the denominator 1" is an identity
test.  Over `_UNIT`, `_make` returns the numerator over it, so sums and
products of polynomials skip the cancel scan.
Zero-testing is hybrid: the canonical form decides the symbolic cases, one
residue modulo the prime `P` decides the rest in the exact class before any
float, and seeded float probes give a nonzero its witness there and decide
what lies outside it (see `is_zero` and `_residue`).
Numeric evaluation walks the canonical form (`interpret`, and `batch_values`
on numpy columns), so no code is built to evaluate an Expr.  Building a walk
converts every coefficient and exponent to a float, so one beyond the float
range is an ExprError before any point is evaluated.  Only the hot
float loops are compiled: `compile_numeric` builds the integrators' runs
and a `NumericPotential`'s quadrature integrand, with each parameter a float
literal, so the compiler folds the constant part a term begins with into one
constant and the code needs no prelude.  Only there can
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
    "eliminate",
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
    """A coordinate or parameter symbol.  Each one gets the next exponent
    field of the packed monomials (see `Mono`) when it is first built, and
    `_SYMBOLS` holds it, so it and its field live as long as the process:
    a packed monomial names its symbols by field alone."""

    __slots__ = ("name", "shift")

    def __new__(cls, name: str):
        atom = _SYMBOL_NAMED.get(name)
        if atom is None:
            global _GUARD
            atom = _SYMBOL_NAMED[name] = _new_atom(cls, (0, name))
            atom.name = name
            atom.shift = _FIELD_BITS * len(_SYMBOLS)
            _SYMBOLS.append(atom)
            _GUARD |= _LIMIT << atom.shift
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


# A monomial maps atoms to positive rational exponents, and has one of two
# forms, fixed by its factors, so that each monomial has exactly one:
# - packed, one int, when every factor is a symbol with an integral exponent
#   below `_LIMIT`.  Each symbol owns a field of `_FIELD_BITS` bits at its
#   `shift`, so a product of packed monomials is one int addition; the top
#   bit of each field is its guard bit, clear in every packed monomial, so a
#   sum whose guard bit is set (`_GUARD`) overflowed its field.  The empty
#   monomial is 0.
# - otherwise a tuple of (atom, exponent) pairs sorted by atom key: a
#   monomial with a function atom, a root, a fractional exponent, or an
#   exponent of `_LIMIT` or more.
# `_factors` reads either form as the sorted pairs; every reader that orders,
# prints, keys or evaluates monomials reads them so.  An exponent is a plain
# int when it is integral and a Fraction only when its denominator exceeds 1
# (see `_q`).  A polynomial maps monomials to nonzero int coefficients.  The
# rational factor an Expr's polynomials stand for, its scale, is a pair of
# ints (numerator, denominator) in lowest terms with a positive denominator,
# so that scale arithmetic is int arithmetic: no Fraction is built in the
# kernel's hot paths.
Mono = Union[int, tuple]
Poly = dict

_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_LIMIT = 1 << (_FIELD_BITS - 1)
# Field index -> symbol, and name -> symbol: every symbol built so far,
# held for good.
_SYMBOLS: list = []
_SYMBOL_NAMED: dict = {}
# The guard bit of every field given out so far.
_GUARD = 0

_ONE_MONO: Mono = 0
# The polynomial 1, the one denominator of every Expr over 1; never mutated.
# `_make` and `_rebuild` put it back wherever a denominator of 1 is built anew.
_UNIT: Poly = {_ONE_MONO: 1}


def _q(x: Number) -> Number:
    """A rational exponent: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _reduced(n: int, d: int) -> tuple:
    """n/d, d nonzero, as a scale: in lowest terms with d > 0."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return (n, d) if g == 1 else (n // g, d // g)


def _times(an: int, ad: int, bn: int, bd: int) -> tuple:
    """The product of the scales an/ad and bn/bd.  Each is in lowest terms,
    so only an and bd, and bn and ad, can share a factor."""
    if ad == 1 and bd == 1:
        return an * bn, 1
    g, h = math.gcd(an, bd), math.gcd(bn, ad)
    return an // g * (bn // h), ad // h * (bd // g)


def _common_scale(sn: int, sd: int, tn: int, td: int) -> tuple:
    """A scale cn/cd and ints ks, kt with s = ks*c and t = kt*c, as
    (cn, cd, ks, kt): c is the gcd of the numerators over the lcm of the
    denominators (in lowest terms, since each scale is), signed as s, so
    that c is s itself, and ks is 1, when s divides t."""
    g, lcm = math.gcd(sn, tn), math.lcm(sd, td)
    if sn < 0:
        g = -g
    return g, lcm, sn * (lcm // sd) // g, tn * (lcm // td) // g


def _pack(m: tuple) -> Mono:
    """The monomial of the sorted (atom, exponent) pairs m, in its one form:
    packed when it can be, else m itself.  Symbols sort first, so a last
    atom that is no symbol ends the test at once."""
    if not m:
        return 0
    if type(m[-1][0]) is not SymAtom:
        return m
    packed = 0
    for a, e in m:
        if type(e) is not int or e >= _LIMIT:
            return m
        packed += e << a.shift
    return packed


def _mono(pairs: Iterable) -> Mono:
    """The monomial of (atom, exponent) pairs in any order."""
    return _pack(tuple(sorted(pairs, key=lambda ae: ae[0].key)))


def _by_name(ae: tuple) -> str:
    return ae[0].name


# The readings of recent packed monomials, by `_factors` and `_mono_order`.
# A pass over a system reads a few hundred distinct monomials thousands of
# times; each table is emptied when it reaches `_READ_MAX` entries.  They
# hold symbols only, which live for good anyway.
_READ_MAX = 1 << 12
_FACTORS: dict = {}
_ORDERS: dict = {}


def _factors(m: Mono) -> tuple:
    """The (atom, exponent) pairs of m, sorted by atom key: a tuple monomial
    is its own, and a packed one is read field by field, lowest set bit
    first, then sorted by name (a symbol's key is (0, name))."""
    if type(m) is not int:
        return m
    out = _FACTORS.get(m)
    if out is not None:
        return out
    if len(_FACTORS) >= _READ_MAX:
        _FACTORS.clear()
    out, left = [], m
    while left:
        shift = (left & -left).bit_length() - 1
        shift -= shift % _FIELD_BITS
        e = (left >> shift) & _FIELD_MASK
        left -= e << shift
        out.append((_SYMBOLS[shift // _FIELD_BITS], e))
    if len(out) > 1:
        out.sort(key=_by_name)
    out = _FACTORS[m] = tuple(out)
    return out


def _unpacked(p: Poly) -> Poly:
    """p with every monomial as its sorted pairs: the form that holds in any
    process, whatever fields its symbols have there."""
    return {_factors(m): c for m, c in p.items()}


def _atom_set(monos: Iterable[Mono]) -> set:
    """The atoms of the monomials: the symbols of the packed ones read off
    their bitwise or, whose fields are nonzero where any of theirs is."""
    out, packed = set(), 0
    for m in monos:
        if type(m) is int:
            packed |= m
        else:
            out.update([a for a, _ in m])
    while packed:
        shift = (packed & -packed).bit_length() - 1
        shift -= shift % _FIELD_BITS
        packed &= ~(_FIELD_MASK << shift)
        out.add(_SYMBOLS[shift // _FIELD_BITS])
    return out


def _mono_order(m: Mono):
    """The monomial order: total degree, then the (atom key, exponent) pairs.
    It orders terms for hashing, printing, `_leading` and evaluation."""
    if type(m) is not int:
        return (sum([e for _, e in m]),
                tuple([(a.key, (e.numerator, e.denominator)) for a, e in m]))
    order = _ORDERS.get(m)
    if order is None:
        if len(_ORDERS) >= _READ_MAX:
            _ORDERS.clear()
        f = _factors(m)
        order = _ORDERS[m] = (sum([e for _, e in f]), tuple([(a.key, (e, 1)) for a, e in f]))
    return order


def _poly_key(p: Poly, n: int = 1, d: int = 1):
    """The structural key of the rational polynomial p*n/d: its terms in
    monomial order, each coefficient as (numerator, denominator)."""
    items = sorted(((_mono_order(m), c) for m, c in p.items()), key=itemgetter(0))
    return tuple((order[1], _times(c, 1, n, d)) for order, c in items)


def _leading(p: Poly) -> tuple:
    m = max(p, key=_mono_order)
    return m, p[m]


def _is_poly_one(p: Poly) -> bool:
    return len(p) == 1 and p.get(_ONE_MONO) == 1


def _poly_iadd(out: Poly, q: Poly, k: int = 1) -> Poly:
    """Add k*q into out in place; return out."""
    for m, c in q.items() if k == 1 else ((m, c * k) for m, c in q.items()):
        old = out.get(m)
        if old is None:
            out[m] = c  # q's coefficients are nonzero
            continue
        nc = old + c
        if nc == 0:
            del out[m]
        else:
            out[m] = nc
    return out


def _poly_add(p: Poly, q: Poly) -> Poly:
    return _poly_iadd(dict(p), q)


def _poly_scale(p: Poly, k: int) -> Poly:
    """k*p for a nonzero int k, as a new Poly."""
    return {m: c * k for m, c in p.items()}


def _poly_add_over(p: Poly, pd: int, q: Poly, qd: int) -> tuple:
    """p/pd + q/qd as (poly, d), over the lcm d of the two denominators."""
    d = math.lcm(pd, qd)
    return _poly_iadd(_poly_scale(p, d // pd), q, d // qd), d


def _merge_mono(m1: Mono, m2: Mono):
    """Multiply two monomials.

    Returns (mono, extras) where extras lists (base Expr, positive int
    exponent) factors spliced out because a fractional-power atom reached an
    integer exponent and must be multiplied back in expanded form.  Two
    packed operands add, unless a field overflows its guard bit, when the
    product is a tuple monomial.  An empty operand gives the other monomial
    itself.  An atom of one operand only keeps its exponent as it is: that
    is in `_q` form already and, for a root, below 1.  The result keeps m1's
    key order unless m2 brings an atom m1 lacks, and only then is it sorted.
    """
    if type(m1) is int and type(m2) is int:
        m = m1 + m2
        if not m & _GUARD:
            return m, ()
    if not m1:
        return m2, ()
    if not m2:
        return m1, ()
    exps = dict(_factors(m1))
    extras = []
    grown = False
    for a, e in _factors(m2):
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
    return (_mono(exps.items()) if grown else _pack(tuple(exps.items()))), extras


_INT_ONLY = {int}


def _poly_mul(p: Poly, q: Poly) -> tuple:
    """Expanded product of two den-free polynomials, as (poly, d) with
    p*q = poly/d.  d is 1 unless a root meets itself and multiplies back a
    base whose scale is a fraction.  A unit operand gives the other operand
    itself, shared: no Poly is mutated once built.  When every monomial of
    both is packed, each term's monomial is one int addition, and a sum
    whose guard bit is set is rebuilt as a tuple monomial."""
    if p is _UNIT:
        return q, 1
    if q is _UNIT:
        return p, 1
    if _is_poly_one(p):
        return q, 1
    if _is_poly_one(q):
        return p, 1
    out: Poly = {}
    if {*map(type, p), *map(type, q)} == _INT_ONLY:
        guard = _GUARD
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = m1 + m2
                if m & guard:
                    m = _merge_mono(_factors(m1), _factors(m2))[0]
                c = c1 * c2
                old = out.get(m)
                if old is None:
                    out[m] = c
                    continue
                c += old
                if c:
                    out[m] = c
                else:
                    del out[m]
        return out, 1
    pending, pd = {}, 1
    for m1, c1 in p.items():
        unit = c1 == 1
        for m2, c2 in q.items():
            m, extras = _merge_mono(m1, m2)
            c = c2 if unit else c1 if c2 == 1 else c1 * c2
            if not extras:
                old = out.get(m)
                if old is None:
                    out[m] = c
                    continue
                nc = old + c
                if nc == 0:
                    del out[m]
                else:
                    out[m] = nc
            else:
                term, td = {m: c}, 1
                for base, n in extras:  # PowAtom bases are den-free by construction
                    for _ in range(n):
                        term, d = _poly_mul(term, base.num)
                        td *= d
                    if base.sn ** n != 1:
                        term = _poly_scale(term, base.sn ** n)
                    td *= base.sd ** n
                pending, pd = _poly_add_over(pending, pd, term, td)
    if pending:
        return _poly_add_over(out, 1, pending, pd)
    return out, 1


def _poly_pow(p: Poly, n: int) -> tuple:
    """p**n for n >= 1, as (poly, d) like `_poly_mul`."""
    out, d = _UNIT, 1
    base, bd = p, 1
    k = n
    while k:
        if k & 1:
            out, od = _poly_mul(out, base)
            d *= od * bd
        if k > 1:
            base, sd = _poly_mul(base, base)
            bd *= bd * sd
        k >>= 1
    return out, d


def _poly_divides(md: Mono, mn: Mono):
    """Return mn/md as a monomial if md divides mn, else None.  Two packed
    monomials subtract with every guard bit set in mn: a field of md larger
    than mn's borrows its guard bit."""
    if type(md) is int and type(mn) is int:
        left = (mn | _GUARD) - md
        return left ^ _GUARD if left & _GUARD == _GUARD else None
    dexp = dict(_factors(md))
    out = []
    for a, e in _factors(mn):
        left = e - dexp.pop(a, 0)
        if left < 0:
            return None
        if left > 0:
            out.append((a, _q(left)))
    if dexp:
        return None
    return _pack(tuple(out))


def _all_integral(p: Poly) -> bool:
    for m in p:
        if type(m) is int:
            continue
        for a, e in m:
            if e.denominator != 1 or isinstance(a, PowAtom):
                return False
    return True


def _poly_exact_div(num: Poly, den: Poly):
    """Exact multivariate division num/den for a primitive den, or None.

    Only attempted for integer-exponent, root-free polynomials.  Leading
    terms are taken in the graded lex order over the atoms in key order, a
    monomial order (unlike `_mono_order`), so the leading term of a multiple
    of den is always divisible by den's: every exact divisor divides, and
    each step takes one term of the quotient.  By Gauss's lemma an exact
    quotient of an int num by a primitive den has int coefficients, so a
    step whose coefficient is not an int proves that den does not divide num.
    """
    if not _all_integral(num) or not _all_integral(den):
        return None
    atoms = sorted(_atom_set(chain(num, den)), key=lambda a: a.key)
    fields = [(a.shift, _FIELD_MASK) if type(a) is SymAtom else (0, 0) for a in atoms]

    def grlex(m: Mono):
        if type(m) is int:
            vec = tuple([(m >> shift) & mask for shift, mask in fields])
        else:
            exps = dict(m)
            vec = tuple([exps.get(a, 0) for a in atoms])
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
        if qm is None or lr_c % ld_c:
            return None
        qc = lr_c // ld_c
        quot = _poly_add(quot, {qm: qc})
        rem = _poly_add(rem, _poly_scale(_poly_mul({qm: qc}, den)[0], -1))
    return None


def _primitive(p: Poly) -> tuple:
    """(p/g, g) for g the content of a nonempty p: the gcd of its
    coefficients, or for one term its coefficient, so that term reads 1."""
    if len(p) == 1:
        (m, c), = p.items()
        return (p, 1) if c == 1 else ({m: 1}, c)
    g = math.gcd(*p.values())
    return (p, 1) if g == 1 else ({m: c // g for m, c in p.items()}, g)


# ---------------------------------------------------------------------------
# Expr


class Expr:
    """Immutable symbolic expression in canonical form: a rational scale
    sn/sd times num/den, num and den polynomials with int coefficients.

    den is primitive (its coefficients have gcd 1) or the shared `_UNIT`,
    and a one-term polynomial has coefficient 1, so a rational constant is
    its scale over the polynomial 1.  num may keep a content: taking it
    after every sum costs more than it saves.  The scale is in
    lowest terms with sd > 0; `scale` reads it as an int or a Fraction.  The
    rational form that printing, the structural key, evaluation and the
    residue read has the coefficients num*scale/lc and den/lc, lc being
    den's leading coefficient (1 over `_UNIT`), so that its denominator
    leads with 1 (see `_read_scales`).
    The structural key, and the hash built from it, are computed on first
    use; that is sound because no Poly is mutated once an Expr holds it.
    A denominator of 1 is the shared `_UNIT`; copies and unpickled Exprs
    hold it too (`__reduce__` rebuilds through `_rebuild`).  The
    constructor takes parts that are canonical already, `_UNIT` included;
    build Exprs with `parse`, `rational`, `symbol` and the operators.
    """

    __slots__ = ("num", "den", "sn", "sd", "_key", "_hash")

    def __init__(self, num: Poly, den: Poly, sn: int = 1, sd: int = 1):
        self.num = num
        self.den = den
        self.sn = sn
        self.sd = sd
        self._key = None
        self._hash = None

    @property
    def scale(self) -> Number:
        return self.sn if self.sd == 1 else Fraction(self.sn, self.sd)

    @property
    def key(self) -> tuple:
        if self._key is None:
            (nn, nd), (dn, dd) = _read_scales(self)
            self._key = (_poly_key(self.num, nn, nd), _poly_key(self.den, dn, dd))
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
        return self.scale  # the constant polynomial is 1 (and ZERO's scale is 0)

    def atoms(self) -> set:
        return _atom_set(chain(self.num, self.den))

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
        return Expr(self.num, self.den, -self.sn, self.sd) if self.num else self

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
        return _rebuild, (_unpacked(self.num), _unpacked(self.den), self.sn, self.sd)


def _rebuild(num: Poly, den: Poly, sn: int, sd: int) -> Expr:
    """The Expr (sn/sd)*num/den from polynomials whose monomials are sorted
    pairs (see `_unpacked`), packed here with this process's fields, and a
    denominator of 1 as the shared `_UNIT`: what a copy or an unpickled Expr
    is built by."""
    num, den = ({_pack(m): c for m, c in p.items()} for p in (num, den))
    return Expr(num, _UNIT if _is_poly_one(den) else den, sn, sd)


def _read_scales(e: Expr) -> tuple:
    """The scales ((nn, nd), (dn, dd)) that turn e's int coefficients into
    those of its rational form: a numerator coefficient c reads as c*nn/nd
    and a denominator one as c*dn/dd, so that the denominator leads with 1."""
    if e.den is _UNIT:
        return (e.sn, e.sd), (1, 1)
    lc = _leading(e.den)[1]
    if lc == 1:
        return (e.sn, e.sd), (1, 1)
    return _reduced(e.sn, e.sd * lc), _reduced(1, lc)


ZERO = Expr({}, _UNIT, 0)


def _make(num: Poly, den: Poly, sn: int = 1, sd: int = 1) -> Expr:
    """The canonical Expr (sn/sd)*num/den, for int polynomials num and den
    and a nonzero scale in lowest terms.

    Every step reads only monomials and contents, so each commutes with
    scaling num or den by a constant: the rational form of the result
    depends on num and den only up to such factors.  The content of den, a
    constant den and the coefficient of a one-term num move to the scale;
    the exact quotient by a primitive den has int coefficients.

    No trig rule runs: sin, cos, tan and exp applications are independent
    atoms here, and the residue decides their identities (see `is_zero`).
    Over `_UNIT` the result is num over 1, as every step below leaves it."""
    if den is _UNIT:
        if len(num) > 1:
            return Expr(num, _UNIT, sn, sd)
        return _over(num, _UNIT, sn, sd) if num else ZERO
    if not num:
        return ZERO

    # cancel atom powers common to every monomial of den and num; den goes
    # first, so a constant denominator ends the scan at its only monomial
    common = None
    for m in chain(den, num):
        exps = dict(_factors(m))
        common = exps if common is None else {
            a: min(e, exps[a]) for a, e in common.items() if a in exps}
        if not common:
            break
    if common:
        md = _pack(tuple(common.items()))
        num, den = ({_poly_divides(md, m): c for m, c in p.items()} for p in (num, den))

    den, g = _primitive(den)
    if g != 1:
        sn, sd = _reduced(sn, sd * g)
    if _is_poly_one(den):
        den = _UNIT
    else:
        q = _poly_exact_div(num, den)
        if q is not None:
            num, den = q, _UNIT
    return _over(num, den, sn, sd)


def _over(num: Poly, den: Poly, sn: int, sd: int) -> Expr:
    """The Expr (sn/sd)*num/den for canonical parts, but for the coefficient
    of a one-term num, which moves to the scale."""
    if len(num) == 1:
        (m, c), = num.items()
        if c != 1:
            return Expr({m: 1}, den, *((sn * c, 1) if sd == 1 else _times(sn, sd, c, 1)))
    return Expr(num, den, sn, sd)


def _scale(e: Expr, n: int, d: int) -> Expr:
    """e times the scale n/d: the scale changes and the polynomials are
    shared, since c*num/den is canonical when num/den is."""
    if d == 1 and e.sd == 1:
        return e if n == 1 or not e.num else Expr(e.num, e.den, e.sn * n)
    return Expr(e.num, e.den, *_times(e.sn, e.sd, n, d)) if e.num else e


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return rational(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def rational(c: Number) -> Expr:
    """The constant c; an int or a Fraction is kept as it is, anything else
    (a float, a Decimal) is converted to its exact Fraction."""
    if type(c) is not int:
        c = c if type(c) is Fraction else Fraction(c)
        return Expr(_UNIT, _UNIT, c.numerator, c.denominator) if c else ZERO
    return Expr(_UNIT, _UNIT, c) if c else ZERO


# One Expr per symbol, built on first use and held for good, as its atom
# is (see `SymAtom`); and one per integer literal "0" to "99", by its text,
# for the parser.  Sharing them is sound because no Poly is mutated once an
# Expr holds it.
_SYMBOL_LEAVES: dict = {}


def symbol(name: str) -> Expr:
    e = _SYMBOL_LEAVES.get(name)
    if e is None:
        e = _SYMBOL_LEAVES[name] = Expr({1 << SymAtom(name).shift: 1}, _UNIT)
    return e


ONE = rational(1)
MINUS_ONE = rational(-1)
_INT_LEAVES = {str(k): rational(k) for k in range(100)}


def _add_scaled(num: Poly, sn: int, sd: int, p: Poly, tn: int, td: int) -> tuple:
    """num*(sn/sd) + p*(tn/td) as (int Poly, cn, cd), adding into num in
    place.  Where the scales differ and num is not empty, num is first
    rescaled by its int share of their common scale (`_common_scale`);
    rescaling by a nonzero int keeps its terms, their order and its zeros."""
    if (sn == tn and sd == td) or not num:
        return _poly_iadd(num, p), tn, td
    cn, cd, ks, kt = _common_scale(sn, sd, tn, td)
    if ks != 1:
        num = _poly_scale(num, ks)
    return _poly_iadd(num, p, kt), cn, cd


def sum_(terms: Iterable[Expr]) -> Expr:
    """The sum of terms, each polynomial part normalized once.

    Terms with a unit denominator merge into one numerator over their
    common scale (`_add_scaled`) and one `_make`.  Quotients are then added
    in turn over a common denominator (see `_add_quotient`).  A sum of at
    most one nonzero term is that term.
    """
    polys, quotients = [], []
    for t in terms:
        if t.num:
            (polys if t.den is _UNIT else quotients).append(t)
    if len(polys) > 1:
        t = polys[0]
        num, sn, sd = dict(t.num), t.sn, t.sd
        for t in polys[1:]:
            if t.sn == sn and t.sd == sd:
                _poly_iadd(num, t.num)
            else:
                num, sn, sd = _add_scaled(num, sn, sd, t.num, t.sn, t.sd)
        total = _make(num, _UNIT, sn, sd)
    else:
        total = polys[0] if polys else ZERO
    for q in quotients:
        total = _add_quotient(total, q)
    return total


def _add_quotient(a: Expr, b: Expr) -> Expr:
    """a + b for a quotient b: over the larger denominator when one divides
    the other, otherwise over the product of the two.  The quotient of two
    primitive denominators is an int polynomial with no root in it."""
    if not a.num:
        return b
    if a.den is not _UNIT:  # over a unit denominator the product is b.den
        for x, y in ((a, b), (b, a)):
            k = _poly_exact_div(y.den, x.den)
            if k is not None:
                kn = _poly_mul(x.num, k)[0]
                num, sn, sd = _add_scaled(dict(kn) if kn is x.num else kn, x.sn, x.sd,
                                          y.num, y.sn, y.sd)
                return _make(num, y.den, sn, sd)
    p1, d1 = _poly_mul(a.num, b.den)
    p2, d2 = _poly_mul(b.num, a.den)
    den, d3 = _poly_mul(a.den, b.den)
    num, sn, sd = _add_scaled(dict(p1), *_times(a.sn, a.sd, 1, d1), p2, *_times(b.sn, b.sd, 1, d2))
    return _make(num, den, *_times(sn, sd, d3, 1))


def add(a: Expr, b: Expr) -> Expr:
    return sum_((a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, -b)


def mul(a: Expr, b: Expr) -> Expr:
    """a*b.  A rational factor changes only the other operand's scale.
    Otherwise the int polynomials multiply, and `_make` takes the product
    of the scales.  The zero and `is_rational` tests are spelled out on the
    parts: mul is the kernel's busiest entry."""
    if not a.num or not b.num:
        return ZERO
    if a.den is _UNIT and len(a.num) == 1 and _ONE_MONO in a.num:
        a, b = b, a
    if b.den is _UNIT and len(b.num) == 1 and _ONE_MONO in b.num:
        n, d = b.sn, b.sd
        if d == 1 and a.sd == 1:
            return a if n == 1 else Expr(a.num, a.den, a.sn * n)
        return Expr(a.num, a.den, *_times(a.sn, a.sd, n, d))
    num, dn = _poly_mul(a.num, b.num)
    den, dd = _poly_mul(a.den, b.den)
    sn, sd = (a.sn * b.sn, 1) if a.sd == 1 and b.sd == 1 else _times(a.sn, a.sd, b.sn, b.sd)
    if dn != dd:
        sn, sd = _reduced(sn * dd, sd * dn)
    return _make(num, den, sn, sd)


def div(a: Expr, b: Expr) -> Expr:
    """a/b, the product of a and 1/b's parts."""
    if not b.num:
        raise ExprError("division by symbolically zero expression")
    if a.is_rational and b.is_rational:
        return Expr(_UNIT, _UNIT, *_reduced(a.sn * b.sd, a.sd * b.sn)) if a.num else ZERO
    num, dn = _poly_mul(a.num, b.den)
    den, dd = _poly_mul(a.den, b.num)
    return _make(num, den, *_reduced(a.sn * b.sd * dd, a.sd * b.sn * dn))


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


# The most bits `pow_` lets the numerator or denominator of a constant's
# power have: about 301,000 digits, far beyond what printing accepts, so
# that 10^5000/10^4999 still reads 10, while 10^(10^9) is an ExprError at
# once instead of a product that runs for hours.
MAX_POWER_BITS = 10**6


def _int_power(b: int, k: int) -> int:
    """b**k for k >= 0, or an ExprError, before any multiplication, when
    its least possible size, k*(bits(b) - 1) + 1 bits, exceeds
    MAX_POWER_BITS."""
    if k * (abs(b).bit_length() - 1) >= MAX_POWER_BITS:
        raise ExprError(f"a power of a constant has more than {MAX_POWER_BITS} bits")
    return b ** k


def _rat_power(c: Number, n: int) -> Fraction:
    """c**n for a nonzero rational c, its parts bounded by `_int_power`."""
    c, k = Fraction(c), abs(n)
    num, den = _int_power(c.numerator, k), _int_power(c.denominator, k)
    return Fraction(num, den) if n >= 0 else Fraction(den, num)


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
            return rational(_rat_power(c, n))
        if c == 0:
            if r < 0:
                raise ExprError("zero raised to a negative power")
            return ZERO
        root = _rat_root(c, r.denominator)
        if root is not None:
            return rational(_rat_power(root, r.numerator))
        # irrational (or complex) rational root: keep it atomic
    if r.denominator == 1:
        n = r.numerator
        k = abs(n)
        # a monomial's power is one term; a sum's this high would not finish
        # expanding
        if k >= _LIMIT and (len(e.num) > 1 or len(e.den) > 1):
            raise ExprError(f"a power of a sum has an exponent of 2^{_FIELD_BITS - 1} or more")
        sn, sd = _int_power(e.sn, k), _int_power(e.sd, k)
        num, dn = _poly_pow(e.num, k)
        den, dd = _poly_pow(e.den, k)
        if n > 0:
            return _make(num, den, *_reduced(sn * dd, sd * dn))
        return _make(den, num, *_reduced(sd * dn, sn * dd))
    # fractional exponent: split quotient, base must be den-free
    if e.den is not _UNIT:
        sn, sd = _read_scales(e)
        return div(pow_(Expr(e.num, _UNIT, *sn), r), pow_(Expr(e.den, _UNIT, *sd), r))
    num = e.num
    if len(num) == 1:
        (m, _), = num.items()
        c = e.scale  # the one term's coefficient is 1
        if c > 0 and c != 1:
            croot = _rat_root(c, r.denominator)
            if croot is not None:
                return mul(rational(_rat_power(croot, r.numerator)),
                           pow_(Expr({m: 1}, _UNIT), r))
        factors = _factors(m)
        if c == 1 and len(factors) == 1:
            (a, inner), = factors
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
    return Expr({_pack(((a, 1),)): 1}, _UNIT)


def _atom_power(a: Atom, e: Number) -> Expr:
    if e == 0:
        return ONE
    if isinstance(a, PowAtom):
        return pow_(a.base, e)
    e = _q(e)
    if e > 0:
        return Expr({_pack(((a, e),)): 1}, _UNIT)
    return _make(_UNIT, {_pack(((a, -e),)): 1})


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
        if not d_arg.num:
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


def _poly_diff(p: Poly, name: str, pn: int = 1, pd: int = 1) -> Expr:
    """The derivative of the polynomial p*pn/pd, one term per atom that
    depends on `name`, summed in monomial and atom order as `sum_` sums
    them: the terms over a unit denominator go into one numerator over
    their common scale, which is canonical but for a lone term's
    coefficient (`_over`), and then the quotients are added in turn.  A
    packed monomial depends on `name` through its symbol's field alone: the
    power rule reads the field and subtracts one unit from it."""
    num: Poly = {}
    sn, sd, quotients = pn, pd, []  # num*sn/sd: the terms over 1 so far
    sym = _SYMBOL_NAMED.get(name)
    shift = sym.shift if sym is not None else None
    for m, c in p.items():
        if type(m) is int:
            if shift is None:
                continue
            e = (m >> shift) & _FIELD_MASK
            if not e:
                continue
            rest, c = m - (1 << shift), c * e
            if sn != pn or sd != pd:
                num, sn, sd = _add_scaled(num, sn, sd, {rest: c}, pn, pd)
            else:
                old = num.get(rest)
                if old is None:
                    num[rest] = c
                elif old + c:
                    num[rest] = old + c
                else:
                    del num[rest]
            continue
        for i, (a, e) in enumerate(m):
            if isinstance(a, SymAtom):
                if a.name != name:
                    continue
                # the power rule, built in canonical form: c*e * m/a
                rest = _pack(m[:i] + ((a, _q(e - 1)),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:])
                if e < 1:
                    quotients.append(Expr({rest: 1}, {((a, _q(1 - e)),): 1}, *_times(
                        pn, pd, *_reduced(c * e.numerator, e.denominator))))
                elif type(e) is int and sn == pn and sd == pd:
                    _poly_iadd(num, {rest: c * e})
                else:
                    num, sn, sd = _add_scaled(num, sn, sd, {rest: c * e.numerator},
                                              *_times(pn, pd, 1, e.denominator))
                continue
            da = _atom_diff(a, name)
            if not da.num:
                continue
            ce = (c * e, 1) if type(e) is int else _reduced(c * e.numerator, e.denominator)
            term = Expr({_pack(m[:i] + m[i + 1:]): 1}, _UNIT, *_times(pn, pd, *ce))
            t = mul(mul(term, _atom_power(a, e - 1)), da)
            if t.den is not _UNIT:
                quotients.append(t)
            elif t.num:
                num, sn, sd = _add_scaled(num, sn, sd, t.num, t.sn, t.sd)
    total = _over(num, _UNIT, sn, sd) if num else ZERO
    for q in quotients:
        total = _add_quotient(total, q)
    return total


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to the symbol `name`.  The
    scale factors out of a quotient: every kernel operation commutes with
    scaling."""
    if e.den is _UNIT:
        return _poly_diff(e.num, name, e.sn, e.sd)
    dn = _poly_diff(e.num, name)
    dd = _poly_diff(e.den, name)
    nex = Expr(e.num, _UNIT)
    dex = Expr(e.den, _UNIT)
    num = sub(mul(dn, dex), mul(nex, dd))
    return _scale(div(num, mul(dex, dex)), e.sn, e.sd)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace symbols by expressions, renormalizing.  Each distinct power
    of an atom in e's own terms is substituted once per call; e's scale
    multiplies the result once."""
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

    def sub_term(m: Mono, c: int) -> Expr:
        term = rational(c)
        for a, ex in _factors(m):
            term = mul(term, sub_power(a, ex))
        return term

    def sub_poly(p: Poly) -> Expr:
        return sum_(sub_term(m, c) for m, c in p.items())

    out = sub_poly(e.num)
    if e.den is not _UNIT:
        out = div(out, sub_poly(e.den))
    return _scale(out, e.sn, e.sd)


def integrate_radially(e: Expr, names: Iterable[str]) -> Optional[Expr]:
    """The integral of e(t*x) over t from 0 to 1, x being the symbols
    `names`, when e is a polynomial in them: each numerator term of degree k
    in them is divided by k + 1, as an int multiple of 1/lcm(k + 1).  Other
    atoms are constants.  None when a name has a fractional power or
    appears in a denominator, a function argument or a root."""
    names = set(names)
    if names & free_symbols(Expr(e.den, _UNIT)):
        return None
    degrees = []
    for m in e.num:
        k = 0
        for a, ex in _factors(m):
            if isinstance(a, SymAtom):
                if a.name in names:
                    if ex.denominator != 1:
                        return None
                    k += ex
            elif names & free_symbols(_atom_value(a)):
                return None
        degrees.append(k + 1)
    lcm = math.lcm(*degrees)
    num = {m: c * (lcm // k) for (m, c), k in zip(e.num.items(), degrees)}
    return _make(num, e.den, *_times(e.sn, e.sd, 1, lcm))


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
    """Positive rational content of the numerator, signed by the leading
    term: the gcd of num's int coefficients times the scale that reads them
    (see `_read_scales`)."""
    if not e.num:
        return Fraction(1)
    n, d = _read_scales(e)[0]
    n *= math.gcd(*e.num.values())
    return Fraction(n if _leading(e.num)[1] > 0 else -n, d)


# ---------------------------------------------------------------------------
# Printing (deterministic, re-parseable)


def _digits_error() -> ExprError:
    # for the ValueError of str() on an int beyond sys.get_int_max_str_digits()
    return ExprError(f"a constant has more than {sys.get_int_max_str_digits()} digits")


def _frac_str(n: int, d: int) -> str:
    """The rational n/d, in lowest terms with d > 0, as text."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
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


def _poly_str(p: Poly, sn: int = 1, sd: int = 1) -> str:
    """The rational polynomial p*sn/sd as text, largest monomial first."""
    if not p:
        return "0"
    terms = sorted(p.items(), key=lambda kv: _mono_order(kv[0]), reverse=True)
    pieces = []
    for i, (m, c) in enumerate(terms):
        factors = "*".join(_factor_str(a, e) for a, e in _factors(m))
        n, d = _times(c, 1, sn, sd)
        mag = abs(n)
        if not factors:
            body = _frac_str(mag, d)
        elif mag == 1 and d == 1:
            body = factors
        else:
            body = f"{_frac_str(mag, d)}*{factors}"
        if i == 0:
            pieces.append(body if n > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if n > 0 else f" - {body}")
    return "".join(pieces)


def to_string(e: Expr) -> str:
    sn, sd = _read_scales(e)
    num = _poly_str(e.num, *sn)
    if e.den is _UNIT:
        return num
    den = _poly_str(e.den, *sd)
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
        for name, value in parameters.items():
            if not math.isfinite(_float(value, f"parameter {name!r}")):
                raise ExprError(f"parameter {name!r} needs a finite value, got {value!r}")
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


# One match per token: its leading whitespace, then the token in the group
# of its kind (number, identifier, operator), or "bad" for any other
# character.  Every character but whitespace starts a token, so each match
# begins where the last one ended and findall leaves only trailing
# whitespace unmatched.
_TOKEN_RE = re.compile(
    r"(\s*)(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z0-9_]*)"
    r"|([-+*/^(),])|(\S))"
)
# The end of input: every group empty.
_END = ("", "", "", "", "")
_bad = itemgetter(4)


def _tokenize(text: str) -> list:
    """The tokens of text, from one findall call: per token the tuple
    (whitespace, number, identifier, operator, bad) of its match, one of
    the last four nonempty, then `_END`.  The kind of a token is the group
    it fills.  No position is kept: `_start` works one out from the
    lengths.  A bad character raises here, before any parsing, at the
    position where the whitespace before it begins."""
    tokens = _TOKEN_RE.findall(text)
    if any(map(_bad, tokens)):
        j = next(j for j, t in enumerate(tokens) if t[4])
        raise ParseError(f"unexpected character {tokens[j][4]!r}", _start(tokens, j))
    tokens.append(_END)
    return tokens


def _start(tokens: list, j: int) -> int:
    """Where the match of token j begins: at the whitespace before it."""
    return sum(map(len, chain.from_iterable(tokens[:j])))


def _token_text(t: tuple) -> str:
    return t[1] or t[2] or t[3]


# The binding power of each binary operator.  The other operators, and the
# empty operator group of any other token, bind at -1: below every min_prec,
# so they end an expression.
_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40,
             "(": -1, ")": -1, ",": -1, "": -1}
_UNARY_PREC = 30  # binds tighter than * but looser than ^

# Deepest nesting the parser accepts: each parenthesis, function argument,
# sign and right-hand operand opens a level.  The bundled files reach 5; the
# limit keeps every recursive walk of the result far from Python's own limit.
MAX_NESTING = 64


class _Parser:
    """Precedence climbing over the token list of `_tokenize`, walked by
    index (`i`, the next token).  A token's position in the text is worked
    out only for an error (`error`): valid input never needs one.  Each
    operator, sign and function makes its kernel call (`add`, `sub`, `mul`,
    `div`, `pow_`, `func`) as soon as its operands are built, and each
    divisor and base of a negative power gets its `_zero_mod_p` test.
    Symbols and the literals "0" to "99" are shared Exprs (see `symbol`)."""

    __slots__ = ("text", "space", "tokens", "i")

    def __init__(self, text: str, space: PhaseSpace):
        self.text = text
        self.space = space
        self.tokens = _tokenize(text)
        self.i = 0

    def error(self, message: str, j: int, cls=ParseError) -> ParseError:
        """A cls error at token j: where its text begins, after the
        whitespace before it; the end of input is at the text's end."""
        tokens = self.tokens
        if j == len(tokens) - 1:
            return cls(message, len(self.text))
        return cls(message, _start(tokens, j) + len(tokens[j][0]))

    def parse(self) -> Expr:
        e = self.expression(0, 0)
        i = self.i
        if i != len(self.tokens) - 1:
            raise self.error(f"unexpected trailing token {_token_text(self.tokens[i])!r}", i)
        return e

    def expression(self, min_prec: int, depth: int) -> Expr:
        """The expression at the current token whose binary operators bind
        at least as tightly as min_prec, depth levels down."""
        if depth > MAX_NESTING:
            raise self.error(f"expression nests deeper than {MAX_NESTING} levels", self.i)
        depth += 1
        lhs = self.atom(depth)
        tokens = self.tokens
        while True:
            at = self.i
            op = tokens[at][3]
            prec = _BIN_PREC[op]
            if prec < min_prec:
                return lhs
            self.i = at + 1
            if op == "^":
                rhs = self.expression(prec, depth)  # right-associative
                lhs = self.power(lhs, rhs, at)
            else:
                rhs = self.expression(prec + 1, depth)
                if op == "+":
                    lhs = add(lhs, rhs)
                elif op == "-":
                    lhs = sub(lhs, rhs)
                elif op == "*":
                    lhs = mul(lhs, rhs)
                else:
                    if not rhs.num or _zero_mod_p(rhs, self.space):
                        raise self.error("division by zero", at)
                    lhs = div(lhs, rhs)

    def power(self, base: Expr, exponent: Expr, at: int) -> Expr:
        if not exponent.is_rational:
            raise self.error("exponent must be an integer or rational constant", at)
        if exponent.rational_value < 0 and _zero_mod_p(base, self.space):
            raise self.error("division by zero", at)
        try:
            return pow_(base, exponent.rational_value)
        except ExprError as exc:
            raise self.error(str(exc), at) from exc

    def atom(self, depth: int) -> Expr:
        at = self.i
        self.i = at + 1
        tokens = self.tokens
        _, literal, name, op, _ = tokens[at]
        if literal:
            e = _INT_LEAVES.get(literal)
            if e is not None:
                return e
            return self.number(literal, at)
        if name:
            if tokens[at + 1][3] == "(":
                if name not in FUNCTION_NAMES:
                    raise self.error(f"unknown function {name!r}", at, UnknownIdentifierError)
                self.i = at + 2
                arg = self.expression(0, depth)
                close = self.i
                op = tokens[close][3]
                if op == ",":
                    raise self.error(f"{name} takes exactly one argument", close)
                if op != ")":
                    raise self.error(
                        f"expected ')', found {_token_text(tokens[close]) or 'end of input'!r}",
                        close)
                self.i = close + 1
                return func(name, arg)
            space = self.space
            if name in space._index or name in space.parameters:
                return symbol(name)
            raise self.error(f"unknown identifier {name!r} (not a coordinate or parameter)",
                             at, UnknownIdentifierError)
        if op == "(":
            e = self.expression(0, depth)
            close = self.i
            if tokens[close][3] != ")":
                raise self.error(
                    f"expected ')', found {_token_text(tokens[close]) or 'end of input'!r}",
                    close)
            self.i = close + 1
            return e
        if op == "-":
            return -self.expression(_UNARY_PREC, depth)
        if op == "+":
            return self.expression(_UNARY_PREC, depth)
        raise self.error(f"unexpected token {op or 'end of input'!r}", at)

    def number(self, literal: str, at: int) -> Expr:
        """The Expr of a numeric literal (token at) that `_INT_LEAVES` lacks."""
        # An all-digit literal no longer than the digit limit is an int
        # at once.  Any other (2.5, 1e-5) goes through Decimal, and so
        # does a longer all-digit one: int() would count its leading
        # zeros against the limit, while the check below does not.
        limit = sys.get_int_max_str_digits()
        if literal.isdecimal() and not (limit and len(literal) > limit):
            return rational(int(literal))
        try:
            d = Decimal(literal)
        except InvalidOperation as exc:  # pragma: no cover - regex-guarded
            raise self.error(f"bad numeric literal {literal!r}", at) from exc
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
            raise self.error(f"numeric literal has more than {limit} digits", at)
        return rational(Fraction(d))


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


# `math`'s functions and the guards: the globals of compiled code, and the
# default namespace of `_Interpreter`, which also reads each parameter's value
# through _param, as the float that compiled code writes as a literal
_SCALAR_NS = dict(_sin=math.sin, _cos=math.cos, _exp=math.exp, _param=float, _div=_g_div,
                  _tan=_g_tan, _ln=_g_ln, _pow=_g_pow)


def _float(c: Number, what: str = "a constant", d: int = 1) -> float:
    """The rational c/d as the nearest float: int true division rounds
    correctly, as float() of a Fraction (which divides the same way) does."""
    try:
        return float(c) if d == 1 else c / d
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


def _snippet(e: Union[Expr, Tuple[Expr, ...]]) -> str:
    """e's text, cut to 60 characters."""
    s = to_string(e) if isinstance(e, Expr) else ", ".join(map(to_string, e))
    return s if len(s) <= 60 else s[:57] + "..."


def _terms(p: Poly, sn: int = 1, sd: int = 1):
    """The terms of the rational polynomial p*sn/sd in evaluation order, largest
    monomial first, as (coefficient, monomial).  The coefficient is a float,
    or None where it is left out (1 times a nonempty monomial); a term's
    coefficient is converted, and may raise ExprError, just before the term
    is walked.  Sums and products then run left to right.  Both numeric
    evaluators, `_Emitter` and `_Interpreter`, walk polynomials through this."""
    for m, c in sorted(p.items(), key=lambda kv: _mono_order(kv[0]), reverse=True):
        n, d = _times(c, 1, sn, sd)
        yield (None if n == 1 and d == 1 and m else _float(n, d=d)), _factors(m)


def _common(a: list, b: list) -> int:
    """The length of the longest common prefix of a and b."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


class _Emitter:
    """Python code for expressions over one space.  Coordinate i reads as
    the local v{i}, and a parameter as its value, a parenthesised float
    literal such as `(1.3)` or `(-2.0)` (repr round-trips every finite
    float).  Each guard's Expr or atom is bound in `ns`, once per object.
    Every other atom is evaluated at its first use and stored in a local
    `_a<k>`, which later uses read.  Python evaluates the code left to
    right, as it is emitted, so every later use runs after the store, and a
    fault in the atom is raised at its first use.  tan(u) is sin(u)/cos(u),
    both atoms (so it shares the cosine with a cos(u)), and calls its guard
    `_tan` only at the pole, to raise the fault.  sin, cos and exp are the
    globals `_sin`, `_cos` and `_exp`.  Adjacent terms of one polynomial
    that begin with the same product of two factors or more (same
    coefficient, same (atom, exponent) factors) compute it once, into a
    local `_t<k>`: a product runs left to right, so that is the float each
    term computed.  A shared product of literals alone (the coefficient and
    integral powers of parameters) is not stored: the compiler folds each
    copy to the same constant.

    The code has no prelude: Python's compiler folds the constant part a
    term begins with, its coefficient and leading parameter powers, into
    one constant, with the float operations an evaluation would do, in the
    same order (`-1.0*(1.3)**2*v1` compiles to `-1.6900000000000002*v1`).
    Factors are never reordered, so a parameter that sorts after a
    coordinate stays in place.  A power that overflows is left unfolded and
    raises at the code's first evaluation."""

    def __init__(self, space: PhaseSpace):
        self.names = {name: f"v{i}" for i, name in enumerate(space.coords)}
        self.names.update((name, f"({float(value)!r})")
                          for name, value in space.parameters.items())
        self.parameters = space.parameters
        self.ns = dict(_SCALAR_NS)
        self._bound: dict = {}  # id of a guarded object -> its name in ns
        self._stored: dict = {}  # atom -> the local holding its value
        self._products = count()  # numbers the locals _t<k> of shared products

    def bind(self, obj) -> str:
        name = self._bound.get(id(obj))
        if name is None:
            name = self._bound[id(obj)] = f"_g{len(self._bound)}"
            self.ns[name] = obj
        return name

    def expr(self, e: Expr) -> str:
        sn, sd = _read_scales(e)
        num = self.poly(e.num, sn)
        if e.den is _UNIT:
            return num
        return f"_div({num}, {self.poly(e.den, sd)}, {self.bind(e)})"

    def poly(self, p: Poly, scale: tuple) -> str:
        if not p:
            return "0.0"
        terms = []  # per term, its factors' keys and codes, the coefficient first
        for c, m in _terms(p, *scale):
            lead = [] if c is None else [repr(c)]
            terms.append((lead + list(m), lead + [self.factor(a, e) for a, e in m]))
        out, i = [], 0
        while i < len(terms):
            (keys, codes), j = terms[i], i + 1
            k = _common(keys, terms[j][0]) if j < len(terms) else 0
            # terms i to j - 1 share their first k factors, not all of them literals
            if k > 1 and not all(map(self.folds, keys[:k])):
                while j < len(terms) and terms[j][0][:k] == keys[:k]:
                    j += 1
                name = f"_t{next(self._products)}"
                codes = [f"({name} := {'*'.join(codes[:k])})"] + codes[k:]
            out += ["*".join(codes)] + ["*".join([name, *c[k:]]) for _, c in terms[i + 1:j]]
            i = j
        return "(" + " + ".join(out) + ")"

    def folds(self, key) -> bool:
        """Whether a term's factor key is a literal the compiler folds: the
        coefficient (a str) or a parameter to an integral power."""
        if type(key) is str:
            return True
        a, e = key
        return type(a) is SymAtom and a.name in self.parameters and e.denominator == 1

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
                code = f"_{a.fname}({arg})"
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
    the segment's direction and leaves the rest.  Parameters are float
    literals, which the compiler folds with each term's coefficient (see
    `_Emitter`), so no step of a run recomputes a term's leading constants
    and the code has no prelude.  A float overflow or a math domain error
    (sin of inf) is a domain fault, named after the first component that
    faults on its own at the current v0, v1, ...; too deep a nesting for
    Python's compiler is an ExprError.  The codes evaluate each atom, and
    each product that adjacent terms begin with, once per evaluation (see
    `_Emitter`).
    """
    rows = range(2 * space.n)
    point = ", ".join(f"v{i}" for i in rows)
    state = ", ".join(f"x{i}" for i in rows)
    em = _Emitter(space)
    try:
        codes = [em.expr(e) for e in exprs]
        body = "".join(f"        {line}\n" for line in source(codes))
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

    return dict(_sin=np.sin, _cos=np.cos, _exp=np.exp, _param=np.float64,
                _div=lambda a, b, e: a / b, _tan=tan, _ln=lambda x, a: np.log(x),
                _pow=lambda base, p, q, a: np.power(base, p / q))


def batch_values(e: Expr, space: PhaseSpace, states):
    """The values of one Expr at the rows of an (m, 2n) float array, as an
    (m,) float64 array, or None.

    `_Interpreter` walks e once over the state columns with the namespace of
    `_batch_namespace`, with numpy's overflow, invalid-operation and
    division-by-zero errors raised and underflow ignored, parameter powers
    included.  No code is built.
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
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            v = _Interpreter(space, _batch_namespace()).expr(e)(states.T)
    except (ArithmeticError, ValueError, RecursionError):
        return None
    v = np.broadcast_to(v, len(states))  # a constant Expr gives one float
    return v if np.isfinite(v).all() else None


class _Interpreter:
    """Evaluators f(point) for expressions over one space, read off the
    canonical form with no code built.  Each does the operations of
    `_Emitter`'s code for the same Expr, in the same order, with the
    functions, parameter values and guards of `ns` (an atom used twice is
    evaluated twice, to the same value).  With the default `_SCALAR_NS`,
    values and faults agree with the compiled code bit for bit: a parameter
    is the float its literal is, and the powers and products the compiler
    folds are taken at each evaluation, with the same float operations.
    With `_batch_namespace()`, the point is the state columns of a
    trajectory and every operation is numpy's, on whole columns.  Building
    one walks the whole Expr first, so an unbound symbol or a constant or
    exponent beyond the float range raises ExprError before any point is
    evaluated, as compiling does.  A coordinate to an integral power is no
    closure: the term loop reads it inline, as x[i] or x[i] ** n, the
    operation the compiled code does.  Every other factor is a closure
    f(x)."""

    def __init__(self, space: PhaseSpace, ns: Mapping = _SCALAR_NS):
        self.space, self.ns = space, ns
        self.param, self.div, self.pow = ns["_param"], ns["_div"], ns["_pow"]

    def expr(self, e: Expr) -> Callable:
        sn, sd = _read_scales(e)
        num = self.poly(e.num, sn)
        if e.den is _UNIT:
            return num
        den, div = self.poly(e.den, sd), self.div
        return lambda x: div(num(x), den(x), e)

    def poly(self, p: Poly, scale: tuple) -> Callable:
        if not p:
            return lambda x: 0.0
        terms = [(c, [self.factor(a, e) for a, e in m]) for c, m in _terms(p, *scale)]

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
            fn = self.ns[f"_{a.fname}"]
            if a.fname in ("tan", "ln"):  # a guard: it takes the atom, to name a fault
                return lambda x: fn(arg(x), a)
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


# The prime of the exact zero test.  It is 3 mod 4, so -1 is no square mod P:
# 1 + t^2, the denominator of sin and cos at a Weierstrass point t, never
# vanishes, and F_P[i] is a field.
P = 2**61 - 1
P_TEXT = "2^61-1"


def _linear_residue(a: Atom, at: dict) -> Optional[int]:
    """The residue of sin, cos, tan or exp of u = sum k_i*x_i, for integers
    |k_i| < 2^15 over coordinates and no constant term, read off the
    coordinates' own residues in `at` and stored there; None for any other
    atom.  e^(iu) is the product of (cos x_i + i*sin x_i)^k_i in F_P[i], a
    field since P is 3 mod 4; each factor has norm 1, so a negative k_i
    takes its conjugate.  cos u and sin u are the two parts of e^(iu), and
    tan u is their quotient (none where cos u is 0).  exp u is the product
    of exp(x_i)^k_i.  x, e^x and e^(ix) are algebraically independent (Ax
    1971), so the map stays a homomorphism, and a sin(k.x) term has degree
    |k| in the error bound."""
    if type(a) is not FuncAtom or a.fname == "ln" or a.arg.den is not _UNIT:
        return None
    fname, u = a.fname, a.arg
    cu, su, ev = 1, 0, 1  # e^(iu) = cu + i*su, and exp u
    for m, c in u.num.items():
        f = _factors(m)
        k, r = divmod(c * u.sn, u.sd)
        if r or type(m) is not int or len(f) != 1 or f[0][1] != 1 or abs(k) >= _LIMIT:
            return None
        x = Expr({m: 1}, _UNIT)
        if fname == "exp":
            v = at.get(FuncAtom("exp", x))
            if v is None:
                return None
            ev = ev * pow(v, k, P) % P
            continue
        cx, sx = at.get(FuncAtom("cos", x)), at.get(FuncAtom("sin", x))
        if cx is None:
            return None
        if k < 0:
            sx, k = -sx, -k
        while k:  # times (cx + i*sx)^k, by squaring
            if k & 1:
                cu, su = (cu * cx - su * sx) % P, (cu * sx + su * cx) % P
            cx, sx, k = (cx * cx - sx * sx) % P, 2 * cx * sx % P, k >> 1
    if fname == "tan":
        if not cu:
            return None
        v = su * pow(cu, -1, P) % P
    else:
        v = ev if fname == "exp" else su if fname == "sin" else cu
    at[a] = v
    return v


def _poly_residue(p: Poly, at: dict, sn: int = 1, sd: int = 1) -> Optional[int]:
    """The rational polynomial p*sn/sd modulo P at the point `at` (atom ->
    residue), or None when it is outside the exact class: an atom that
    neither `at` nor `_linear_residue` gives a residue for, a fractional
    exponent, an exponent of `_LIMIT` or more, or a coefficient whose
    denominator P divides.  Only when P divides sd can a coefficient keep
    that factor, so only then is each one reduced.  A residue reads x^e as
    x^(e mod (P - 1)), which is no homomorphism of polynomials whose degree
    reaches P - 1: q^P and q have the same residue everywhere.  Only a tuple
    monomial can hold an exponent that is not an int below `_LIMIT`."""
    reduce = sd % P == 0
    total = 0
    for m, c in p.items():
        if reduce:
            n, d = _times(c, 1, sn, sd)
            if d % P == 0:
                return None
            t = n * pow(d, -1, P) % P
        else:
            t = c % P
        if type(m) is not int and any(type(e) is not int or e >= _LIMIT for _, e in m):
            return None
        for a, e in _factors(m):
            v = at.get(a)
            if v is None:
                v = _linear_residue(a, at)
                if v is None:
                    return None
            t = t * (v if e == 1 else pow(v, e, P)) % P
        total += t
    if reduce:
        return total % P
    return total * sn % P if sd == 1 else total * sn * pow(sd, -1, P) % P


def _residue(e: Expr, at: dict) -> Optional[int]:
    """e modulo P at `at`, or None outside the exact class or where the
    denominator vanishes there."""
    sn, sd = _read_scales(e)
    n = _poly_residue(e.num, at, *sn)
    if n is None or e.den is _UNIT:
        return n
    d = _poly_residue(e.den, at, *sd)
    return n * pow(d, -1, P) % P if d else None


def _zero_mod_p(e: Expr, space: PhaseSpace) -> bool:
    """True when e has a function atom or a parameter, and its numerator is
    zero modulo P at the default seed's residue point, parameters at their
    declared values: a divisor that the canonical form, exact on polynomials
    over symbols, leaves open."""
    params = space.parameters
    return any(isinstance(a, FuncAtom) or (type(a) is SymAtom and a.name in params)
               for a in _atom_set(e.num)) \
        and _poly_residue(e.num, ProbeConfig().residues(space)[0], *_read_scales(e)[0]) == 0


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
        so the probe points stay as they are.  sin, cos, tan and exp of an
        integer-linear form are read off the coordinates' values and added
        to a map when first met (see `_linear_residue`)."""
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
                v = Fraction(repr(float(value)))  # its denominator is 2^i*5^j
                at[SymAtom(name)] = v.numerator * pow(v.denominator, -1, P) % P
                free[SymAtom(name)] = rng.randrange(P)
            pts = space._residues[self.seed] = (at, free)
        return pts


def is_zero(e: Expr, space: PhaseSpace, config: Optional[ProbeConfig] = None) -> ZeroVerdict:
    """Hybrid zero test: canonical form first, then one residue modulo P,
    then seeded float probes, which give a nonzero its witness in the exact
    class and decide outside it.

    A numerator in the exact class (see `_poly_residue`) is read modulo P
    at the residue point (see `ProbeConfig.residues`) before any float:
    float cancellation can leave roundoff far above the tolerance on an
    expression that is zero.  A zero residue is a zero that errs with
    probability at most deg/P, decided with no walk and no probe (`probes`
    0); when the space has parameters, it is read once more with random
    parameter residues, and a nonzero residue there marks it as holding
    only at the declared values.  A nonzero residue proves e nonzero, with
    the first valid probe as witness, marked modular when that probe is at
    or below tolerance.  Outside the class a value above tolerance decides
    at once, and a numeric zero takes config.count valid probes.  Probes
    are evaluated by walking the canonical form (`interpret`), so no code
    is built, at points drawn once per space (see `ProbeConfig.points`).
    """
    config = config or ProbeConfig()
    if not e.num:
        return ZeroVerdict(SYMBOLIC_ZERO, seed=config.seed)
    if e.is_rational:
        return ZeroVerdict(NONZERO, seed=config.seed, witness_point=(0.0,) * len(space.coords),
                           witness_value=_float(e.rational_value))
    at, free = config.residues(space)
    sn = _read_scales(e)[0]
    r = _poly_residue(e.num, at, *sn)
    if r == 0:
        special = bool(space.parameters) and _poly_residue(e.num, free, *sn) != 0
        return ZeroVerdict(NUMERIC_ZERO, seed=config.seed, modular=True,
                           parameter_special=special)
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
        if r or av > config.tolerance:
            return ZeroVerdict(NONZERO, probes=valid, seed=config.seed, max_abs=av,
                               witness_point=point, witness_value=v,
                               modular=av <= config.tolerance)
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


def eliminate(rows: list, k: int, space: PhaseSpace, config: ProbeConfig) -> Optional[int]:
    """Exact Gauss-Jordan elimination of Expr rows, in place, over their
    first k columns: column j's pivot, the first entry from row j on that
    `is_zero` calls nonzero, is swapped into row j, scaled to 1 and cleared
    from every other row.  The first column with no pivot, or None; a zero
    test's NoValidProbesError propagates."""
    for col in range(k):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col].num
                      and not is_zero(rows[i][col], space, config).is_zero), None)
        if pivot is None:
            return col
        rows[col], rows[pivot] = rows[pivot], rows[col]
        if rows[col][col] != ONE:
            inv = div(ONE, rows[col][col])
            rows[col] = [e * inv for e in rows[col]]
        for i in range(len(rows)):
            factor = rows[i][col]
            if i != col and factor.num:
                rows[i] = [e - factor * p for e, p in zip(rows[i], rows[col])]
    return None


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
