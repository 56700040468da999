"""Hamiltonian systems: symplectic validation, the dynamical vector field,
Hamilton equations, cotangent lifts, and potentials of closed 1-forms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from . import symexpr
from .symexpr import (
    Expr,
    ExprError,
    PhaseSpace,
    ProbeConfig,
    ZeroVerdict,
    differentiate,
    free_symbols,
    is_zero,
    substitute,
)
from .exterior import (
    KForm,
    VectorField,
    exterior_derivative,
    form_is_zero,
    interior_product,
    lie_scalar,
)

__all__ = [
    "SymplecticForm",
    "HamiltonianSystem",
    "NumericPotential",
    "SymplecticError",
    "NotClosedError",
    "DegenerateError",
    "make_symplectic",
    "make_system",
    "hamilton_equations",
    "cotangent_lift",
    "poincare_potential",
    "is_bihamiltonian_pair",
    "BihamiltonianCheck",
    "liouville_form",
    "hamiltonian_field_for",
]


class SymplecticError(ExprError):
    pass


class NotClosedError(SymplecticError):
    def __init__(self, message: str, witness: ZeroVerdict):
        super().__init__(message)
        self.witness = witness


class DegenerateError(SymplecticError):
    pass


@dataclass(frozen=True)
class SymplecticForm:
    """A validated closed, nondegenerate 2-form with its Poisson matrix.

    The coefficient of dx^k in i(X)omega is sum_i omega_ik X^i, so the field
    X_f with i(X_f)omega = df is P df, where P (``poisson``) is the inverse of
    the transposed coefficient matrix.
    """

    form: KForm
    poisson: Tuple[Tuple[Expr, ...], ...]  # 2n x 2n

    @property
    def space(self) -> PhaseSpace:
        return self.form.space

    def field_of(self, coeffs: Sequence[Expr]) -> VectorField:
        """The vector field X with i(X)omega = sum_k coeffs[k] dx^k."""
        return VectorField(self.space, tuple(
            symexpr.sum_(p * c for p, c in zip(row, coeffs)) for row in self.poisson))


def make_symplectic(space: PhaseSpace, spec, probes: Optional[ProbeConfig] = None) -> SymplecticForm:
    """Build and validate a symplectic form from "canonical" or explicit terms.

    Explicit terms are (coeff Expr, i, j) with i < j indexing the coordinate
    list; "canonical" stands for the terms (1, q_i, p_i).  d(omega) must test
    zero; then Gauss-Jordan elimination with probe-tested pivots inverts the
    transposed coefficient matrix into the Poisson matrix, and a column
    without a nonzero pivot means omega is degenerate.
    """
    probes = probes or ProbeConfig()
    if spec == "canonical":
        spec = [(symexpr.ONE, i, space.n + i) for i in range(space.n)]
    for _, i, j in spec:
        if not 0 <= i < j < 2 * space.n:
            raise SymplecticError(f"bad index pair ({i}, {j}) in symplectic term")
    form = KForm.from_terms(space, 2, (((i, j), coeff) for coeff, i, j in spec))
    closed = form_is_zero(exterior_derivative(form), probes)
    if not closed.is_zero:
        raise NotClosedError("symplectic form is not closed", closed)
    # row k: the transposed coefficient matrix (omega_ik at column i), then
    # row k of the identity, which the elimination turns into row k of P
    dim = 2 * space.n
    m = [[symexpr.ZERO] * (2 * dim) for _ in range(dim)]
    for (i, j), e in form.coeffs.items():
        m[j][i], m[i][j] = e, -e
    for k in range(dim):
        m[k][dim + k] = symexpr.ONE
    for col in range(dim):
        pivot = next((row for row in range(col, dim) if not m[row][col].is_zero_expr
                      and not is_zero(m[row][col], space, probes).is_zero), None)
        if pivot is None:
            raise DegenerateError(
                f"symplectic form is degenerate: no nonzero pivot in column {col} "
                f"({space.coords[col]}) of its coefficient matrix"
            )
        m[col], m[pivot] = m[pivot], m[col]
        if m[col][col] != symexpr.ONE:
            inv = symexpr.div(symexpr.ONE, m[col][col])
            m[col] = [e * inv for e in m[col]]
        for row in range(dim):
            factor = m[row][col]
            if row != col and not factor.is_zero_expr:
                m[row] = [e - factor * p for e, p in zip(m[row], m[col])]
    return SymplecticForm(form, tuple(tuple(row[dim:]) for row in m))


@dataclass(frozen=True)
class HamiltonianSystem:
    """Phase space, symplectic form, Hamiltonian, and the derived dynamics."""

    space: PhaseSpace
    omega: SymplecticForm
    h: Expr
    x_h: VectorField
    field_certificate: ZeroVerdict  # i(X_h)omega - dh
    energy_certificate: ZeroVerdict  # L(X_h)h

    @property
    def omega_form(self) -> KForm:
        return self.omega.form

    def gradient(self, f: Expr) -> List[Expr]:
        return [differentiate(f, name) for name in self.space.coords]


def make_system(space: PhaseSpace, omega_spec, h: Expr,
                probes: Optional[ProbeConfig] = None) -> HamiltonianSystem:
    """Validate the triad and derive the dynamical vector field."""
    probes = probes or ProbeConfig()
    omega = omega_spec if isinstance(omega_spec, SymplecticForm) else \
        make_symplectic(space, omega_spec, probes)
    grad = [differentiate(h, name) for name in space.coords]
    x_h = omega.field_of(grad)
    dh = KForm(space, 1, {(i,): grad[i] for i in range(2 * space.n)})
    residual = interior_product(x_h, omega.form) - dh
    field_cert = form_is_zero(residual, probes)
    if not field_cert.is_zero:
        raise SymplecticError(
            f"derived field fails i(X)omega = dh: {field_cert.describe()}"
        )
    energy_cert = is_zero(lie_scalar(x_h, h), space, probes)
    if not energy_cert.is_zero:
        raise SymplecticError(
            f"energy is not conserved by the derived field: {energy_cert.describe()}"
        )
    return HamiltonianSystem(space, omega, h, x_h, field_cert, energy_cert)


def hamilton_equations(sys: HamiltonianSystem) -> List[Tuple[str, Expr]]:
    """Right-hand sides d(coord)/dt, ordered like the coordinate list."""
    return list(zip(sys.space.coords, sys.x_h.components))


def cotangent_lift(space: PhaseSpace, base_components: Sequence[Expr]) -> VectorField:
    """Lift a configuration-space field Z^i(q) d/dq^i to the phase space.

    The lift is Z^i d/dq^i - p_j (dZ^j/dq^i) d/dp_i; it leaves the canonical
    1-form invariant, which is how the tests pin the formula down.
    """
    n = space.n
    if len(base_components) != n:
        raise ExprError(f"base field needs {n} components")
    momenta = set(space.momenta)
    for z in base_components:
        used = free_symbols(z)
        if used & momenta:
            raise ExprError(
                f"base field must not depend on momenta (found {sorted(used & momenta)})"
            )
    lifted = list(base_components)
    for q in space.coords[:n]:
        lifted.append(-symexpr.sum_(symexpr.symbol(p) * differentiate(z, q)
                                    for p, z in zip(space.momenta, base_components)))
    return VectorField(space, tuple(lifted))


def liouville_form(space: PhaseSpace) -> KForm:
    """The 1-form sum p_i dq^i (note: d of it is minus the canonical form)."""
    n = space.n
    return KForm(space, 1, {(i,): symexpr.symbol(space.coords[n + i]) for i in range(n)})


# ---------------------------------------------------------------------------
# Potentials of closed 1-forms


class NumericPotential:
    """Line-integral potential of a closed 1-form, evaluated by quadrature.

    Produced when the homotopy integrand is not polynomial in the path
    parameter; usable by the numeric verifier but has no closed form.
    """

    def __init__(self, space: PhaseSpace, alpha: KForm, base: Tuple[float, ...],
                 abs_tol: float = 1e-10):
        self.space = space
        self.alpha = alpha
        self.base = tuple(float(b) for b in base)
        self.abs_tol = abs_tol
        coeffs = space.compile(tuple(alpha.coeff((i,)) for i in range(2 * space.n)))

        def integrand_at(x: Tuple[float, ...]) -> Callable[[float], float]:
            deltas = [xi - bi for xi, bi in zip(x, self.base)]

            def g(t: float) -> float:
                pt = tuple(bi + t * di for bi, di in zip(self.base, deltas))
                return sum(c * d for c, d in zip(coeffs(pt), deltas))

            return g

        self._integrand_at = integrand_at

    def evaluate(self, point: Sequence[float]) -> float:
        g = self._integrand_at(tuple(float(v) for v in point))
        return _adaptive_simpson(g, 0.0, 1.0, self.abs_tol)

    def describe(self) -> str:
        return "numeric line-integral potential (no closed form)"

    def __str__(self):
        return self.describe()


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                      tol: float, depth: int = 48) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
                + recurse(m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1))

    return recurse(a, fa, b, fb, m, fm, whole, tol, depth)


_PATH_PARAM = "__path_t"


def _default_base(space: PhaseSpace) -> Tuple[Fraction, ...]:
    out = []
    for name in space.coords:
        lo, hi = space.box(name)
        out.append((Fraction(lo) + Fraction(hi)) / 2)
    return tuple(out)


def poincare_potential(alpha: KForm, probes: Optional[ProbeConfig] = None,
                       base: Optional[Sequence[Union[Fraction, float]]] = None
                       ) -> Union[Expr, NumericPotential]:
    """Potential f with df = alpha, for a closed 1-form alpha.

    Uses the star-shaped homotopy f(x) = integral_0^1 sum_i
    alpha_i(b + t(x-b)) (x_i - b_i) dt around the base point b (the probe-box
    center by default).  The t-integral is done symbolically when the
    integrand is polynomial in t, which pins f(b) = 0 exactly; otherwise a
    quadrature-backed NumericPotential is returned.
    """
    if alpha.degree != 1:
        raise ExprError("potential construction needs a 1-form")
    probes = probes or ProbeConfig()
    space = alpha.space
    closed = form_is_zero(exterior_derivative(alpha), probes)
    if not closed.is_zero:
        raise NotClosedError("form is not closed, no potential exists", closed)
    base_fracs = tuple(Fraction(b) for b in base) if base is not None \
        else _default_base(space)
    t = symexpr.symbol(_PATH_PARAM)
    offsets = [symexpr.symbol(name) - symexpr.rational(b)
               for name, b in zip(space.coords, base_fracs)]
    mapping = {name: symexpr.rational(b) + t * d
               for name, b, d in zip(space.coords, base_fracs, offsets)}
    integrand = symexpr.sum_(substitute(a, mapping) * offsets[i]
                             for (i,), a in sorted(alpha.coeffs.items()))
    potential = symexpr.integrate_unit_interval(integrand, _PATH_PARAM)
    if potential is None:
        return NumericPotential(space, alpha, tuple(float(b) for b in base_fracs))
    return potential


@dataclass(frozen=True)
class BihamiltonianCheck:
    is_pair: bool
    omega2_closed: ZeroVerdict
    alpha2_closed: ZeroVerdict
    omega2_distinct: bool
    alpha2_distinct: bool
    equation: ZeroVerdict

    def describe(self) -> str:
        if self.is_pair:
            return "valid second Hamiltonian pair (closed, distinct, i(X)w~ = a~)"
        reasons = []
        if not self.omega2_closed.is_zero:
            reasons.append("second 2-form not closed")
        if not self.alpha2_closed.is_zero:
            reasons.append("second 1-form not closed")
        if not self.omega2_distinct:
            reasons.append("second 2-form equals omega")
        if not self.alpha2_distinct:
            reasons.append("second 1-form equals dh")
        if not self.equation.is_zero:
            reasons.append("i(X_h) of the second 2-form misses the second 1-form")
        return "not a pair: " + "; ".join(reasons)


def is_bihamiltonian_pair(sys: HamiltonianSystem, omega2: KForm, alpha2: KForm,
                          probes: Optional[ProbeConfig] = None) -> BihamiltonianCheck:
    """Check (omega2, alpha2) as a second Hamiltonian pair for the same field."""
    probes = probes or ProbeConfig()
    if omega2.degree != 2 or alpha2.degree != 1:
        raise ExprError("pair must be a 2-form and a 1-form")
    c1 = form_is_zero(exterior_derivative(omega2), probes)
    c2 = form_is_zero(exterior_derivative(alpha2), probes)
    dh = KForm(sys.space, 1, {(i,): g for i, g in enumerate(sys.gradient(sys.h))})
    distinct_omega = not form_is_zero(omega2 - sys.omega_form, probes).is_zero
    distinct_alpha = not form_is_zero(alpha2 - dh, probes).is_zero
    eq = form_is_zero(interior_product(sys.x_h, omega2) - alpha2, probes)
    ok = (c1.is_zero and c2.is_zero and distinct_omega and distinct_alpha
          and eq.is_zero)
    return BihamiltonianCheck(ok, c1, c2, distinct_omega, distinct_alpha, eq)


def hamiltonian_field_for(sys: HamiltonianSystem, f: Expr,
                          probes: Optional[ProbeConfig] = None) -> VectorField:
    """The vector field Y with i(Y)omega = df, the product P df.

    probes is unused: make_symplectic already computed the Poisson matrix P.
    The parameter stays so that callers passing it keep working.
    """
    return sys.omega.field_of(sys.gradient(f))
