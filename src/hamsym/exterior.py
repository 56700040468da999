"""Exterior calculus in Darboux coordinates.

Vector fields carry 2n expression components ordered like the coordinate
list; k-forms store sparse coefficients on strictly increasing index tuples
over the coordinate basis covectors.  The Lie derivative of forms is always
computed by Cartan's formula i(X)d + d i(X), never by a flow limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .symexpr import (
    Expr,
    ExprError,
    PhaseSpace,
    ProbeConfig,
    ZeroVerdict,
    aggregate_zero,
    differentiate,
)
from . import symexpr

__all__ = [
    "VectorField",
    "KForm",
    "SpaceMismatchError",
    "wedge",
    "exterior_derivative",
    "interior_product",
    "lie_derivative_form",
    "lie_scalar",
    "lie_bracket",
    "form_is_zero",
    "scalar_form",
    "form_to_string",
]


class SpaceMismatchError(ExprError):
    pass


def _check_same_space(a, b):
    if a.space is not b.space:
        raise SpaceMismatchError("operands live on different phase spaces")


@dataclass(frozen=True)
class VectorField:
    space: PhaseSpace
    components: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != 2 * self.space.n:
            raise ExprError(
                f"vector field needs {2*self.space.n} components, "
                f"got {len(self.components)}"
            )

    @property
    def is_zero_field(self) -> bool:
        return all(c.is_zero_expr for c in self.components)

    def __sub__(self, other: "VectorField") -> "VectorField":
        _check_same_space(self, other)
        return VectorField(
            self.space,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __str__(self):
        parts = []
        for name, comp in zip(self.space.coords, self.components):
            if comp.is_zero_expr:
                continue
            parts.append(f"({comp}) d/d{name}")
        return " + ".join(parts) if parts else "0"


class KForm:
    """Sparse degree-k form; absent index tuples mean zero coefficients."""

    __slots__ = ("space", "degree", "coeffs")

    def __init__(self, space: PhaseSpace, degree: int,
                 coeffs: Mapping[Tuple[int, ...], Expr]):
        dim = 2 * space.n
        if not 0 <= degree <= dim:
            raise ExprError(f"form degree must lie in [0, {dim}]")
        clean: Dict[Tuple[int, ...], Expr] = {}
        for idx, e in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ExprError(f"index tuple {idx} does not match degree {degree}")
            if any(not 0 <= i < dim for i in idx):
                raise ExprError(f"index out of range in {idx}")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ExprError(f"index tuple {idx} is not strictly increasing")
            if not e.is_zero_expr:
                clean[idx] = e
        self.space = space
        self.degree = degree
        self.coeffs = clean

    @property
    def is_zero_form(self) -> bool:
        return not self.coeffs

    @classmethod
    def from_terms(cls, space: PhaseSpace, degree: int,
                   terms: Iterable[Tuple[Tuple[int, ...], Expr]]) -> "KForm":
        """The form sum of (index tuple, coefficient) terms; the terms on one
        index tuple are added by a single sum_."""
        groups: Dict[Tuple[int, ...], list] = {}
        for idx, e in terms:
            groups.setdefault(idx, []).append(e)
        return cls(space, degree, {idx: symexpr.sum_(es) for idx, es in groups.items()})

    def coeff(self, idx: Tuple[int, ...]) -> Expr:
        return self.coeffs.get(tuple(idx), symexpr.ZERO)

    def __add__(self, other: "KForm") -> "KForm":
        _check_same_space(self, other)
        if self.degree != other.degree:
            raise ExprError("cannot add forms of different degree")
        return KForm.from_terms(self.space, self.degree,
                                itertools.chain(self.coeffs.items(), other.coeffs.items()))

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scale(symexpr.MINUS_ONE)

    def scale(self, factor: Expr) -> "KForm":
        return KForm(self.space, self.degree,
                     {idx: factor * e for idx, e in self.coeffs.items()})

    def eval_at(self, point: Sequence[float]) -> Dict[Tuple[int, ...], float]:
        values = self.space.compile(tuple(self.coeffs.values()))(tuple(point))
        return dict(zip(self.coeffs, values))

    def __eq__(self, other):
        return (isinstance(other, KForm) and self.space is other.space
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.coeffs.items(),
                                               key=lambda kv: kv[0]))))

    def __str__(self):
        return form_to_string(self)


def scalar_form(space: PhaseSpace, e: Expr) -> KForm:
    return KForm(space, 0, {(): e})


def _merge_sign(a: Tuple[int, ...], b: Tuple[int, ...]):
    """Merge two increasing tuples; return (merged, sign) or (None, 0)."""
    merged = list(a) + list(b)
    sign = 1
    # insertion sort, counting transpositions; repeated index kills the term
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and merged[j - 1] == merged[j]:
            return None, 0
    return tuple(merged), sign


def wedge(a: KForm, b: KForm) -> KForm:
    _check_same_space(a, b)
    degree = a.degree + b.degree
    dim = 2 * a.space.n
    if degree > dim:
        return KForm(a.space, dim, {})
    terms = []
    for ia, ea in a.coeffs.items():
        for ib, eb in b.coeffs.items():
            merged, sign = _merge_sign(ia, ib)
            if merged is None:
                continue
            term = ea * eb
            terms.append((merged, term if sign > 0 else -term))
    return KForm.from_terms(a.space, degree, terms)


def exterior_derivative(a: KForm) -> KForm:
    dim = 2 * a.space.n
    if a.degree >= dim:
        return KForm(a.space, dim, {})
    terms = []
    names = a.space.coords
    for idx, e in a.coeffs.items():
        for m in range(dim):
            if m in idx:
                continue
            de = differentiate(e, names[m])
            if de.is_zero_expr:
                continue
            pos = sum(1 for i in idx if i < m)
            terms.append((tuple(sorted(idx + (m,))), de if pos % 2 == 0 else -de))
    return KForm.from_terms(a.space, a.degree + 1, terms)


def interior_product(x: VectorField, a: KForm) -> KForm:
    _check_same_space(x, a)
    if a.degree == 0:
        raise ExprError("interior product needs a form of degree >= 1")
    terms = []
    for idx, e in a.coeffs.items():
        for r, i in enumerate(idx):
            comp = x.components[i]
            if comp.is_zero_expr:
                continue
            term = comp * e
            terms.append((idx[:r] + idx[r + 1:], term if r % 2 == 0 else -term))
    return KForm.from_terms(a.space, a.degree - 1, terms)


def lie_derivative_form(x: VectorField, a: KForm) -> KForm:
    """Cartan's formula i(X)da + d i(X)a; directional derivative for degree 0."""
    _check_same_space(x, a)
    if a.degree == 0:
        return scalar_form(a.space, lie_scalar(x, a.coeff(())))
    part2 = exterior_derivative(interior_product(x, a))
    if a.degree >= 2 * a.space.n:
        return part2  # da vanishes identically at top degree
    part1 = interior_product(x, exterior_derivative(a))
    return part1 + part2


def lie_scalar(x: VectorField, f: Expr) -> Expr:
    """Directional derivative X(f)."""
    return symexpr.sum_(comp * differentiate(f, name)
                        for name, comp in zip(x.space.coords, x.components)
                        if not comp.is_zero_expr)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    _check_same_space(x, y)
    comps = tuple(lie_scalar(x, yc) - lie_scalar(y, xc)
                  for xc, yc in zip(x.components, y.components))
    return VectorField(x.space, comps)


def form_is_zero(a: KForm, config: Optional[ProbeConfig] = None) -> ZeroVerdict:
    """Aggregate zero verdict over all coefficients.

    Symbolic only if every coefficient is symbolically zero; the first
    nonzero coefficient wins as witness.
    """
    return aggregate_zero((a.coeffs[idx] for idx in sorted(a.coeffs)),
                          a.space, config)[0]


def form_to_string(a: KForm) -> str:
    """Render like "2*dq1^dp2 + dq2^dp1" (caret marks the wedge)."""
    if a.degree == 0:
        return str(a.coeff(()))
    if not a.coeffs:
        return "0"
    names = a.space.coords
    parts = []
    for idx in sorted(a.coeffs):
        basis = "^".join(f"d{names[i]}" for i in idx)
        c = a.coeffs[idx]
        s = str(c)
        if s == "1":
            parts.append(basis)
        elif s == "-1":
            parts.append(f"-{basis}")
        elif ("+" in s or (" - " in s) or s.startswith("-") or "/" in s):
            parts.append(f"({s})*{basis}")
        else:
            parts.append(f"{s}*{basis}")
    return " + ".join(parts)
