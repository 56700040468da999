"""Symbolic scalar expressions over phase-space coordinates and named parameters.

Expressions are kept in a canonical rational form: a quotient num/den of
expanded polynomials whose indeterminates ("atoms") are coordinate or
parameter symbols, applications of sin/cos/tan/exp/ln, and irreducible
fractional powers.  Construction always canonicalizes, so normalization is
idempotent by design and structural equality decides symbolic equality.

Simplification is deliberately restricted: rational constants fold, like
terms and like factors collect, sums go over a common denominator with
expanded numerators, sin(u)^2 + cos(u)^2 folds to 1 when the coefficients
match exactly, and 1/cos(u)^2 rewrites to 1 + tan(u)^2.  Nothing else.
Every sum is built by `sum_`, which owns the one common-denominator rule: a
shared denominator, or one that divides the other, is kept; otherwise the
product of the two is used.  There is no polynomial gcd, so a common factor
that neither denominator exposes this way stays in both parts.
Zero-testing is hybrid: the canonical form decides the symbolic cases and
seeded random probing decides the rest (see `is_zero`).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
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
    "parse",
    "rational",
    "sum_",
    "differentiate",
    "substitute",
    "integrate_unit_interval",
    "eval_numeric",
    "compile_numeric",
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


# ---------------------------------------------------------------------------
# Atoms


class Atom:
    """A canonical indeterminate: symbol, function application, or root."""

    __slots__ = ("key", "_hash")

    def __init__(self, key):
        self.key = key
        self._hash = hash(key)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Atom) and self.key == other.key

    def __lt__(self, other):
        return self.key < other.key


class SymAtom(Atom):
    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__((0, name))
        self.name = name


class FuncAtom(Atom):
    __slots__ = ("fname", "arg")

    def __init__(self, fname: str, arg: "Expr"):
        super().__init__((1, fname, arg.key))
        self.fname = fname
        self.arg = arg


class PowAtom(Atom):
    """An irreducible fractional power of a polynomial base (base is den-free)."""

    __slots__ = ("base",)

    def __init__(self, base: "Expr"):
        super().__init__((2, base.key))
        self.base = base


# A monomial maps atoms to positive Fraction exponents; stored as a tuple of
# (atom, exponent) pairs sorted by atom key.  A polynomial maps monomials to
# nonzero Fraction coefficients.
Mono = tuple
Poly = dict

_ONE_MONO: Mono = ()


def _mono_key(m: Mono):
    return tuple((a.key, (e.numerator, e.denominator)) for a, e in m)


def _mono_degree(m: Mono) -> Fraction:
    return sum((e for _, e in m), Fraction(0))


def _mono_order(m: Mono):
    return (_mono_degree(m), _mono_key(m))


def _poly_key(p: Poly):
    items = sorted(p.items(), key=lambda kv: _mono_order(kv[0]))
    return tuple((_mono_key(m), (c.numerator, c.denominator)) for m, c in items)


def _leading(p: Poly) -> tuple:
    m = max(p, key=_mono_order)
    return m, p[m]


def _poly_const(c: Fraction) -> Poly:
    return {} if c == 0 else {_ONE_MONO: c}


def _is_poly_one(p: Poly) -> bool:
    return len(p) == 1 and _ONE_MONO in p and p[_ONE_MONO] == 1


def _poly_iadd(out: Poly, q: Poly) -> Poly:
    """Add q into out in place; return out."""
    for m, c in q.items():
        nc = out.get(m, Fraction(0)) + c
        if nc == 0:
            out.pop(m, None)
        else:
            out[m] = nc
    return out


def _poly_add(p: Poly, q: Poly) -> Poly:
    return _poly_iadd(dict(p), q)


def _poly_scale(p: Poly, c: Fraction) -> Poly:
    if c == 0:
        return {}
    return {m: cc * c for m, cc in p.items()}


def _merge_mono(m1: Mono, m2: Mono):
    """Multiply two monomials.

    Returns (mono, extras) where extras lists (base Expr, positive int
    exponent) factors spliced out because a fractional-power atom reached an
    integer exponent and must be multiplied back in expanded form.
    """
    exps = {}
    for a, e in m1:
        exps[a] = exps.get(a, Fraction(0)) + e
    for a, e in m2:
        exps[a] = exps.get(a, Fraction(0)) + e
    extras = []
    kept = []
    for a, e in exps.items():
        if e == 0:
            continue
        if isinstance(a, PowAtom):
            n = math.floor(e)
            frac = e - n
            if n > 0:
                extras.append((a.base, n))
            if frac != 0:
                kept.append((a, frac))
        else:
            kept.append((a, e))
    kept.sort(key=lambda ae: ae[0].key)
    return tuple(kept), extras


def _poly_mul(p: Poly, q: Poly) -> Poly:
    """Expanded product of two den-free polynomials."""
    out: Poly = {}
    pending: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m, extras = _merge_mono(m1, m2)
            c = c1 * c2
            if not extras:
                nc = out.get(m, Fraction(0)) + c
                if nc == 0:
                    out.pop(m, None)
                else:
                    out[m] = nc
            else:
                term: Poly = {m: c}
                for base, n in extras:
                    bp = base.num  # PowAtom bases are den-free by construction
                    for _ in range(n):
                        term = _poly_mul(term, bp)
                pending = _poly_add(pending, term)
    if pending:
        out = _poly_add(out, pending)
    return out


def _poly_pow(p: Poly, n: int) -> Poly:
    out = _poly_const(Fraction(1))
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
        d = dexp.pop(a, Fraction(0))
        left = e - d
        if left < 0:
            return None
        if left > 0:
            out.append((a, left))
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

    Only attempted for integer-exponent, root-free polynomials; enough to
    collapse quotients like (c*D)/D that arise from rational vector fields.
    """
    if not _all_integral(num) or not _all_integral(den):
        return None
    quot: Poly = {}
    rem = dict(num)
    ld_m, ld_c = _leading(den)
    for _ in range(512):
        if not rem:
            return quot
        lr_m, lr_c = _leading(rem)
        qm = _poly_divides(ld_m, lr_m)
        if qm is None:
            return None
        qc = lr_c / ld_c
        quot = _poly_add(quot, {qm: qc})
        rem = _poly_add(rem, _poly_scale(_poly_mul({qm: qc}, den), Fraction(-1)))
    return None


def _fold_trig_pairs(p: Poly) -> Poly:
    """Fold c*R*sin(u)^2 + c*R*cos(u)^2 -> c*R, repeatedly."""
    changed = True
    while changed:
        changed = False
        for m, c in list(p.items()):
            if m not in p:
                continue
            for a, e in m:
                if not (isinstance(a, FuncAtom) and a.fname == "sin" and e >= 2):
                    continue
                rest = [(x, xe) for x, xe in m if x is not a]
                if e > 2:
                    rest.append((a, e - 2))
                cos_atom = FuncAtom("cos", a.arg)
                partner_exps = dict(rest)
                partner_exps[cos_atom] = partner_exps.get(cos_atom, Fraction(0)) + 2
                partner = tuple(sorted(partner_exps.items(), key=lambda ae: ae[0].key))
                if p.get(partner) == c:
                    del p[m]
                    del p[partner]
                    folded = tuple(sorted(rest, key=lambda ae: ae[0].key))
                    nc = p.get(folded, Fraction(0)) + c
                    if nc == 0:
                        p.pop(folded, None)
                    else:
                        p[folded] = nc
                    changed = True
                    break
            if changed:
                break
    return p


def _rewrite_recip_cos2(num: Poly, den: Poly):
    """Apply 1/cos(u)^2 -> 1 + tan(u)^2 when the denominator is one monomial."""
    if len(den) != 1:
        return num, den
    (m, c), = den.items()
    new_factors = []
    mult: Optional[Poly] = None
    for a, e in m:
        if isinstance(a, FuncAtom) and a.fname == "cos" and e >= 2:
            k = int(e // 2)
            left = e - 2 * k
            tan2 = _poly_add(
                _poly_const(Fraction(1)),
                {((FuncAtom("tan", a.arg), Fraction(2)),): Fraction(1)},
            )
            step = _poly_pow(tan2, k)
            mult = step if mult is None else _poly_mul(mult, step)
            if left > 0:
                new_factors.append((a, left))
        else:
            new_factors.append((a, e))
    if mult is None:
        return num, den
    num = _poly_mul(num, mult)
    den = {tuple(sorted(new_factors, key=lambda ae: ae[0].key)): c}
    return num, den


# ---------------------------------------------------------------------------
# Expr


class Expr:
    """Immutable symbolic expression in canonical rational form."""

    __slots__ = ("num", "den", "key", "_hash")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den
        self.key = (_poly_key(num), _poly_key(den))
        self._hash = hash(self.key)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero_expr(self) -> bool:
        return not self.num

    @property
    def is_rational(self) -> bool:
        return _is_poly_one(self.den) and (
            not self.num or (len(self.num) == 1 and _ONE_MONO in self.num)
        )

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ExprError("expression is not a rational constant")
        return self.num.get(_ONE_MONO, Fraction(0))

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
        return self._hash

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"Expr({to_string(self)})"


ZERO = Expr({}, _poly_const(Fraction(1)))


def _make(num: Poly, den: Poly) -> Expr:
    if not den:
        raise ExprError("division by symbolically zero expression")
    if not num:
        return ZERO
    num = _fold_trig_pairs(dict(num))
    den = _fold_trig_pairs(dict(den))
    if not num:
        return ZERO
    num, den = _rewrite_recip_cos2(num, den)

    # cancel atom powers common to every monomial of num and den
    common: dict = {}
    first = True
    for poly in (num, den):
        for m in poly:
            exps = dict(m)
            if first:
                common = exps
                first = False
            else:
                common = {
                    a: min(e, exps[a]) for a, e in common.items() if a in exps
                }
            if not common:
                break
    if common:
        def strip(poly: Poly) -> Poly:
            out = {}
            for m, c in poly.items():
                kept = []
                for a, e in m:
                    e2 = e - common.get(a, Fraction(0))
                    if e2 > 0:
                        kept.append((a, e2))
                out[tuple(kept)] = c
            return out

        num, den = strip(num), strip(den)

    if _is_poly_one(den):
        return Expr(num, den)
    if len(den) == 1 and _ONE_MONO in den:
        return Expr(_poly_scale(num, 1 / den[_ONE_MONO]), _poly_const(Fraction(1)))
    q = _poly_exact_div(num, den)
    if q is not None:
        return Expr(q, _poly_const(Fraction(1)))
    _, lc = _leading(den)
    if lc != 1:
        num = _poly_scale(num, 1 / lc)
        den = _poly_scale(den, 1 / lc)
    return Expr(num, den)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return rational(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def rational(c: Number) -> Expr:
    return _make(_poly_const(Fraction(c)), _poly_const(Fraction(1)))


def symbol(name: str) -> Expr:
    return Expr({((SymAtom(name), Fraction(1)),): Fraction(1)}, _poly_const(Fraction(1)))


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
            (polys if _is_poly_one(t.den) else quotients).append(t)
    if len(polys) > 1:
        num: Poly = {}
        for t in polys:
            _poly_iadd(num, t.num)
        total = _make(num, _poly_const(Fraction(1)))
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
    if not _is_poly_one(a.den):  # over a unit denominator the product is b.den
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
    if a.is_zero_expr or b.is_zero_expr:
        return ZERO
    return _make(_poly_mul(a.num, b.num), _poly_mul(a.den, b.den))


def div(a: Expr, b: Expr) -> Expr:
    if b.is_zero_expr:
        raise ExprError("division by symbolically zero expression")
    return _make(_poly_mul(a.num, b.den), _poly_mul(a.den, b.num))


def _rat_root(c: Fraction, q: int) -> Optional[Fraction]:
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


def _collapse_safe(inner: Fraction, outer: Fraction) -> bool:
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
    r = Fraction(exponent)
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
            return rational(c**n)
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
    if not _is_poly_one(e.den):
        return div(pow_(Expr(e.num, _poly_const(Fraction(1))), r),
                   pow_(Expr(e.den, _poly_const(Fraction(1))), r))
    num = e.num
    if len(num) == 1:
        (m, c), = num.items()
        if c > 0 and c != 1:
            croot = _rat_root(c, r.denominator)
            if croot is not None:
                return mul(rational(croot**r.numerator),
                           pow_(Expr({m: Fraction(1)}, _poly_const(Fraction(1))), r))
        if c == 1 and len(m) == 1:
            (a, inner), = m
            if _collapse_safe(inner, r):
                return _atom_power(a, inner * r)
    # integer part out, fractional residue as an atom
    n = math.floor(r)
    frac = r - n
    atom = PowAtom(e)
    out = Expr({((atom, frac),): Fraction(1)}, _poly_const(Fraction(1)))
    if n:
        out = mul(out, pow_(e, n))
    return out


def _atom_value(a: Atom) -> Expr:
    if isinstance(a, PowAtom):
        return a.base
    return Expr({((a, Fraction(1)),): Fraction(1)}, _poly_const(Fraction(1)))


def _atom_power(a: Atom, e: Fraction) -> Expr:
    if e == 0:
        return ONE
    if isinstance(a, PowAtom):
        return pow_(a.base, e)
    if e > 0:
        return Expr({((a, e),): Fraction(1)}, _poly_const(Fraction(1)))
    return Expr(_poly_const(Fraction(1)), {((a, -e),): Fraction(1)})


_EXACT_FUNC = {
    ("sin", Fraction(0)): Fraction(0),
    ("cos", Fraction(0)): Fraction(1),
    ("tan", Fraction(0)): Fraction(0),
    ("exp", Fraction(0)): Fraction(1),
    ("ln", Fraction(1)): Fraction(0),
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
    return Expr({((a, Fraction(1)),): Fraction(1)}, _poly_const(Fraction(1)))


# ---------------------------------------------------------------------------
# Differentiation / substitution


def _atom_diff(a: Atom, name: str) -> Expr:
    if isinstance(a, SymAtom):
        return ONE if a.name == name else ZERO
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
    terms = []
    for m, c in p.items():
        for a, e in m:
            da = _atom_diff(a, name)
            if da.is_zero_expr:
                continue
            rest = tuple(x for x in m if x[0] is not a)
            term = Expr({rest: c * e}, _poly_const(Fraction(1)))
            terms.append(mul(mul(term, _atom_power(a, e - 1)), da))
    return sum_(terms)


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to the symbol `name`."""
    dn = _poly_diff(e.num, name)
    if _is_poly_one(e.den):
        return dn
    dd = _poly_diff(e.den, name)
    nex = Expr(e.num, _poly_const(Fraction(1)))
    dex = Expr(e.den, _poly_const(Fraction(1)))
    num = sub(mul(dn, dex), mul(nex, dd))
    return div(num, mul(dex, dex))


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace symbols by expressions, renormalizing."""

    def sub_atom(a: Atom) -> Expr:
        if isinstance(a, SymAtom):
            return mapping.get(a.name, _atom_value(a))
        if isinstance(a, FuncAtom):
            return func(a.fname, substitute(a.arg, mapping))
        return substitute(a.base, mapping)

    def sub_term(m: Mono, c: Fraction) -> Expr:
        term = rational(c)
        for a, ex in m:
            term = mul(term, pow_(sub_atom(a), ex))
        return term

    def sub_poly(p: Poly) -> Expr:
        return sum_(sub_term(m, c) for m, c in p.items())

    out = sub_poly(e.num)
    if not _is_poly_one(e.den):
        out = div(out, sub_poly(e.den))
    return out


def integrate_unit_interval(e: Expr, name: str) -> Optional[Expr]:
    """The integral of e over the symbol `name` from 0 to 1, when e is a
    polynomial in it: integer powers only, and `name` appears in no
    denominator, function argument or root.  None otherwise."""
    if name in free_symbols(Expr(e.den, _poly_const(Fraction(1)))):
        return None
    num: Poly = {}
    for m, c in e.num.items():
        k = Fraction(0)
        rest = []
        for a, ex in m:
            if isinstance(a, SymAtom) and a.name == name:
                k = ex
            elif name in free_symbols(_atom_value(a)):
                return None
            else:
                rest.append((a, ex))
        if k.denominator != 1:
            return None
        _poly_iadd(num, {tuple(rest): c / (k + 1)})
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


def rational_content(e: Expr) -> Fraction:
    """Positive rational content of the numerator, signed by the leading term."""
    if e.is_zero_expr:
        return Fraction(1)
    g = Fraction(0)
    for c in e.num.values():
        g = Fraction(math.gcd(g.numerator, c.numerator),
                     math.lcm(g.denominator, c.denominator)) if g else abs(c)
    _, lc = _leading(e.num)
    return g if lc > 0 else -g


# ---------------------------------------------------------------------------
# Printing (deterministic, re-parseable)


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _exp_str(e: Fraction) -> str:
    if e.denominator == 1:
        return f"^{e.numerator}"
    return f"^({e.numerator}/{e.denominator})"


def _factor_str(a: Atom, e: Fraction) -> str:
    if isinstance(a, SymAtom):
        base = a.name
    elif isinstance(a, FuncAtom):
        base = f"{a.fname}({to_string(a.arg)})"
    else:
        base = f"({to_string(a.base)})"
    if e == Fraction(1, 2):
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
    if _is_poly_one(e.den):
        return num
    den = _poly_str(e.den)
    if len(e.num) > 1 or num.startswith("-"):
        num = f"({num})"
    return f"{num}/({den})"


# ---------------------------------------------------------------------------
# Phase space


class PhaseSpace:
    """Darboux chart: 2n ordered coordinates plus named parameter values."""

    __slots__ = ("n", "coords", "parameters", "domain", "_index", "_compiled")

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
        self.parameters = parameters
        self.domain = dict(domain or {})
        self._index = {name: i for i, name in enumerate(coords)}
        self._compiled: dict = {}

    @property
    def momenta(self):
        return self.coords[self.n :]

    def coord_index(self, name: str) -> int:
        return self._index[name]

    def box(self, name: str) -> tuple:
        return self.domain.get(name, (-1.0, 1.0))

    def compile(self, e: Union[Expr, Tuple[Expr, ...]]) -> Callable:
        """Cached compile_numeric: f(point) for one Expr or a tuple of them."""
        fn = self._compiled.get(e)
        if fn is None:
            fn = compile_numeric(e, self)
            self._compiled[e] = fn
        return fn

    def __repr__(self):
        return f"PhaseSpace(n={self.n}, coords={self.coords})"


# ---------------------------------------------------------------------------
# Parser: precedence climbing over the documented grammar


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
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
                    if rhs.is_zero_expr:
                        raise ParseError("division by zero", pos)
                    lhs = div(lhs, rhs)

    def power(self, base: Expr, exponent: Expr, pos: int) -> Expr:
        if not exponent.is_rational:
            raise ParseError("exponent must be an integer or rational constant", pos)
        try:
            return pow_(base, exponent.rational_value)
        except ExprError as exc:
            raise ParseError(str(exc), pos) from exc

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            try:
                return rational(Fraction(Decimal(val)))
            except InvalidOperation as exc:  # pragma: no cover - regex-guarded
                raise ParseError(f"bad numeric literal {val!r}", pos) from exc
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
# Numeric evaluation (compiled, guarded)


def _g_div(a: float, b: float, snip: str) -> float:
    if b == 0.0:
        raise EvalDomainError("division by zero", snip)
    return a / b


def _g_tan(x: float, snip: str) -> float:
    c = math.cos(x)
    if abs(c) < 1e-12:
        raise EvalDomainError("tangent pole", snip)
    return math.sin(x) / c


def _g_ln(x: float, snip: str) -> float:
    if x <= 0.0:
        raise EvalDomainError("logarithm of a nonpositive value", snip)
    return math.log(x)


def _g_pow(base: float, p: int, q: int, snip: str) -> float:
    if base < 0.0:
        raise EvalDomainError("fractional power of a negative value", snip)
    if base == 0.0 and p < 0:
        raise EvalDomainError("zero raised to a negative power", snip)
    return base ** (p / q)


def _float(c: Fraction, what: str = "a constant") -> float:
    try:
        return float(c)
    except OverflowError:
        raise ExprError(f"{what} exceeds the float range (about 1.8e308)") from None


def _g_fault(e: Union[Expr, Tuple[Expr, ...]], exc: Exception) -> EvalDomainError:
    what = "float overflow" if isinstance(exc, OverflowError) else "math domain error"
    return EvalDomainError(what, _snippet(e))


def _emit(e: Expr, space: PhaseSpace) -> str:
    num = _emit_poly(e.num, space)
    if _is_poly_one(e.den):
        return num
    den = _emit_poly(e.den, space)
    snip = _snippet(e)
    return f"_div({num}, {den}, {snip!r})"


def _snippet(e: Union[Expr, Tuple[Expr, ...]], limit: int = 60) -> str:
    s = to_string(e) if isinstance(e, Expr) else ", ".join(map(to_string, e))
    return s if len(s) <= limit else s[: limit - 3] + "..."


def _emit_poly(p: Poly, space: PhaseSpace) -> str:
    if not p:
        return "0.0"
    terms = []
    for m, c in sorted(p.items(), key=lambda kv: _mono_order(kv[0]), reverse=True):
        parts = [repr(_float(c))] if c != 1 or not m else []
        for a, e in m:
            parts.append(_emit_factor(a, e, space))
        terms.append("*".join(parts) if parts else repr(_float(c)))
    return "(" + " + ".join(terms) + ")"


def _emit_factor(a: Atom, e: Fraction, space: PhaseSpace) -> str:
    base = _emit_atom(a, space)
    if e == 1:
        return base
    _float(e, "an exponent")  # raises for an exponent beyond the float range
    if e.denominator == 1:
        return f"{base}**{e.numerator}"
    snip = _snippet(_atom_value(a))
    return f"_pow({base}, {e.numerator}, {e.denominator}, {snip!r})"


def _emit_atom(a: Atom, space: PhaseSpace) -> str:
    if isinstance(a, SymAtom):
        if a.name in space._index:
            return f"x[{space._index[a.name]}]"
        if a.name in space.parameters:
            return f"_p_{a.name}"
        raise ExprError(f"symbol {a.name!r} is not bound in this phase space")
    if isinstance(a, FuncAtom):
        arg = _emit(a.arg, space)
        if a.fname == "tan":
            return f"_tan({arg}, {_snippet(_atom_value(a))!r})"
        if a.fname == "ln":
            return f"_ln({arg}, {_snippet(_atom_value(a))!r})"
        return f"math.{a.fname}({arg})"
    return "(" + _emit(a.base, space) + ")"


def compile_numeric(e: Union[Expr, Tuple[Expr, ...]], space: PhaseSpace) -> Callable:
    """Compile one Expr to f(point) -> float, or a tuple of Exprs to a single
    f(point) -> list of the components in order, with domain guards.

    Parameter values are bound at compile time under prefixed names, so no
    parameter can shadow the point or a helper.  Components are evaluated in
    order, so the first domain fault is the one raised; a float overflow
    (exp of a large value, a large power) and a math domain error (sin of an
    infinite value) are domain faults too.  An expression nested too deeply
    for Python's compiler is an ExprError.
    """
    try:
        if isinstance(e, Expr):
            body, label = _emit(e, space), _snippet(e, 40)
        else:
            body, label = "[" + ", ".join(_emit(c, space) for c in e) + "]", f"{len(e)} components"
        code = compile(f"def _f(x):\n    try:\n        return {body}\n"
                       "    except (OverflowError, ValueError) as exc:\n"
                       "        raise _fault(_e, exc) from None\n", f"<expr {label}>", "exec")
    except (SyntaxError, RecursionError) as exc:
        raise ExprError(f"expression too deeply nested to compile ({exc})") from None
    ns = {f"_p_{name}": value for name, value in space.parameters.items()}
    ns.update(math=math, _div=_g_div, _tan=_g_tan, _ln=_g_ln, _pow=_g_pow,
              _fault=_g_fault, _e=e)
    exec(code, ns)
    return ns["_f"]


def eval_numeric(e: Expr, point: Sequence[float], space: PhaseSpace) -> float:
    """Evaluate at a phase-space point (IEEE double)."""
    if len(point) != 2 * space.n:
        raise ExprError(f"point must have {2*space.n} components")
    return space.compile(e)(tuple(point))


# ---------------------------------------------------------------------------
# Probabilistic zero / constant testing


SYMBOLIC_ZERO = "symbolic-zero"
NUMERIC_ZERO = "numeric-zero"
NONZERO = "nonzero"


@dataclass(frozen=True)
class ZeroVerdict:
    kind: str
    tolerance: float = 0.0
    probes: int = 0
    seed: int = 0
    max_abs: float = 0.0
    witness_point: Optional[tuple] = None
    witness_value: Optional[float] = None

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
        if self.kind == NUMERIC_ZERO:
            return (f"numeric zero (probabilistic): {self.probes} probes, "
                    f"max |value| = {self.max_abs:.3e}, seed {self.seed}")
        return (f"nonzero: witness value {self.witness_value:.6e} "
                f"at {self.witness_point}")


# Probe points drawn per requested valid probe, so that points outside an
# expression's domain can be skipped without running out.
PROBE_RESAMPLE_FACTOR = 8


@dataclass(frozen=True)
class ProbeConfig:
    """Reproducible sampling plan for numeric zero-testing."""

    count: int = 64
    tolerance: float = 1e-9
    seed: int = 42

    def points(self, space: PhaseSpace) -> Iterable[tuple]:
        """Up to count * PROBE_RESAMPLE_FACTOR seeded points in the domain box."""
        rng = random.Random(f"probe:{self.seed}")
        boxes = [space.box(name) for name in space.coords]
        for _ in range(self.count * PROBE_RESAMPLE_FACTOR):
            yield tuple(rng.uniform(lo, hi) for lo, hi in boxes)


def is_zero(e: Expr, space: PhaseSpace, config: Optional[ProbeConfig] = None) -> ZeroVerdict:
    """Hybrid zero test: canonical form first, seeded probing otherwise."""
    config = config or ProbeConfig()
    if e.is_zero_expr:
        return ZeroVerdict(SYMBOLIC_ZERO, tolerance=config.tolerance, seed=config.seed)
    if e.is_rational:
        v = _float(e.rational_value)
        center = tuple(0.0 for _ in space.coords)
        return ZeroVerdict(NONZERO, tolerance=config.tolerance, seed=config.seed,
                           witness_point=center, witness_value=v)
    fn = space.compile(e)
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
            return ZeroVerdict(NONZERO, tolerance=config.tolerance, probes=valid,
                               seed=config.seed, max_abs=av,
                               witness_point=point, witness_value=v)
        max_abs = max(max_abs, av)
        if valid >= config.count:
            break
    if valid < config.count:
        raise NoValidProbesError(
            f"no valid probe points: only {valid}/{config.count} evaluations "
            f"succeeded for {_snippet(e)}"
        )
    return ZeroVerdict(NUMERIC_ZERO, tolerance=config.tolerance, probes=valid,
                       seed=config.seed, max_abs=max_abs)


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
    return ZeroVerdict(SYMBOLIC_ZERO, tolerance=config.tolerance, seed=config.seed), None


@dataclass(frozen=True)
class ConstantVerdict:
    is_constant: bool
    symbolic: bool = False
    value: Optional[Expr] = None
    numeric_value: Optional[float] = None
    witness_coord: Optional[str] = None
    witness: Optional[ZeroVerdict] = None

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
        return ConstantVerdict(False, witness_coord=space.coords[i], witness=verdict)
    coord_free = not (free_symbols(e) & set(space.coords))
    if coord_free:
        return ConstantVerdict(True, symbolic=not verdict.numeric, value=e)
    center = tuple(
        (space.box(c)[0] + space.box(c)[1]) / 2.0 for c in space.coords
    )
    val = eval_numeric(e, center, space)
    return ConstantVerdict(True, symbolic=False, numeric_value=val)
