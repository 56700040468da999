"""Hamiltonian systems: symplectic validation, the dynamical vector field,
and potentials of closed 1-forms."""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Callable, List, Optional, Sequence, Tuple, Union

from . import symexpr
from .symexpr import (
    Expr,
    ExprError,
    PhaseSpace,
    ProbeConfig,
    ZeroVerdict,
    differentiate,
    is_zero,
    substitute,
)
from .exterior import (
    KForm,
    VectorField,
    directional,
    exterior_derivative,
    form_is_zero,
    interior_product,
    wedge,
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
    "poincare_potential",
    "is_bihamiltonian_pair",
    "BihamiltonianCheck",
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


class SymplecticForm:
    """A validated closed, nondegenerate 2-form with its Poisson matrix.

    The coefficient of dx^k in i(X)omega is sum_i omega_ik X^i, so the field
    X_f with i(X_f)omega = df is P df, where P (``poisson``) is the inverse of
    the transposed coefficient matrix.
    """

    def __init__(self, form: KForm, poisson: Tuple[Tuple[Expr, ...], ...]):
        self.form = form
        self.poisson = poisson  # 2n x 2n

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
    zero; then `symexpr.eliminate` inverts the transposed coefficient
    matrix into the Poisson matrix, and a column without a nonzero pivot
    means omega is degenerate.  So does omega^n, whose coefficient +-n!*Pf
    is nonconstant, continuous on the box (no denominator, in the exact
    class, no tan) and of both signs at probe points: by the intermediate
    value theorem it vanishes in the box.  No pivot is tested so: for n >= 2
    one is a ratio of leading minors, which can vanish where omega does not.
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
    col = symexpr.eliminate(m, dim, space, probes)
    if col is not None:
        raise DegenerateError(
            f"symplectic form is degenerate: no nonzero pivot in column {col} "
            f"({space.coords[col]}) of its coefficient matrix"
        )
    pf = reduce(wedge, [form] * space.n).coeffs.get(tuple(range(dim)), symexpr.ZERO)
    if not pf.is_rational and pf.den is symexpr._UNIT \
            and symexpr._residue(pf, probes.residues(space)[0]) is not None \
            and all(getattr(a, "fname", None) != "tan" for a in symexpr._atom_set(pf.num)):
        fn, values = symexpr.interpret(pf, space), []
        for point in probes.points(space):
            try:
                values.append(fn(point))
            except symexpr.EvalDomainError:
                pass
        if any(v < 0 for v in values) and any(v > 0 for v in values):  # nan is neither
            raise DegenerateError(
                f"symplectic form is degenerate: omega^{space.n} takes both signs "
                f"at probe points, so it vanishes inside the box")
    return SymplecticForm(form, tuple(tuple(row[dim:]) for row in m))


class HamiltonianSystem:
    """Phase space, symplectic form, Hamiltonian, and the derived dynamics,
    with the derivative tables the classifier reads: the gradient of h,
    which make_system computes anyway, and the Jacobian of X_h, built on
    first use."""

    def __init__(self, space: PhaseSpace, omega: SymplecticForm, h: Expr,
                 grad_h: Tuple[Expr, ...], x_h: VectorField,
                 field_certificate: ZeroVerdict, energy_certificate: ZeroVerdict):
        self.space = space
        self.omega = omega
        self.h = h
        self.grad_h = grad_h  # dh/dx^j, ordered like the coordinates
        self.x_h = x_h
        self.field_certificate = field_certificate  # i(X_h)omega - dh
        self.energy_certificate = energy_certificate  # L(X_h)h

    @property
    def omega_form(self) -> KForm:
        return self.omega.form

    @cached_property
    def jacobian(self) -> Tuple[Tuple[Expr, ...], ...]:
        """dX_h^i/dx^j at [i][j]: each entry differentiated once per system."""
        return tuple(tuple(differentiate(c, name) for name in self.space.coords)
                     for c in self.x_h.components)

    def gradient(self, f: Expr) -> List[Expr]:
        return [differentiate(f, name) for name in self.space.coords]


def make_system(space: PhaseSpace, omega_spec, h: Expr,
                probes: Optional[ProbeConfig] = None) -> HamiltonianSystem:
    """Validate the triad and derive the dynamical vector field.  h and
    each component of X_h are walked once by `symexpr.interpret`, which
    converts every coefficient and exponent to a float, so one beyond the
    float range is an ExprError here, before any command evaluates them."""
    probes = probes or ProbeConfig()
    omega = omega_spec if isinstance(omega_spec, SymplecticForm) else \
        make_symplectic(space, omega_spec, probes)
    grad = tuple(differentiate(h, name) for name in space.coords)
    x_h = omega.field_of(grad)
    for e in (h, *x_h.components):
        symexpr.interpret(e, space)
    dh = KForm(space, 1, {(i,): g for i, g in enumerate(grad)})
    residual = interior_product(x_h, omega.form) - dh
    field_cert = form_is_zero(residual, probes)
    if not field_cert.is_zero:
        raise SymplecticError(
            f"derived field fails i(X)omega = dh: {field_cert.describe()}"
        )
    energy_cert = is_zero(directional(x_h, grad.__getitem__), space, probes)
    if not energy_cert.is_zero:
        raise SymplecticError(
            f"energy is not conserved by the derived field: {energy_cert.describe()}"
        )
    return HamiltonianSystem(space, omega, h, grad, x_h, field_cert, energy_cert)


# ---------------------------------------------------------------------------
# Potentials of closed 1-forms


# absolute error bound of the adaptive Simpson quadrature in NumericPotential
_QUADRATURE_ABS_TOL = 1e-10


def _integrand_source(codes) -> list:
    # alpha at the point, dotted with the direction d, summed as sum() does:
    # from the int 0 (so a -0.0 product adds up to 0.0), left to right
    return ["return 0 + " + " + ".join(f"({code})*d[{i}]" for i, code in enumerate(codes))]


class NumericPotential:
    """Line-integral potential of a closed 1-form, evaluated by quadrature
    along the segment from the base point (its integrand compiled once per
    space, by `PhaseSpace.compile`).

    Produced when a coefficient is not polynomial in the coordinates; usable
    by the numeric verifier but has no closed form.
    """

    def __init__(self, space: PhaseSpace, alpha: KForm, base: Tuple[float, ...]):
        self.space = space
        self.alpha = alpha
        self.base = tuple(float(b) for b in base)

    def evaluate(self, point: Sequence[float]) -> float:
        if len(point) != len(self.space.coords):
            raise ExprError(f"point needs {len(self.space.coords)} entries, got {len(point)}")
        coeffs = tuple(self.alpha.coeff((i,)) for i in range(2 * self.space.n))
        base, integrand = self.base, self.space.compile(coeffs, _integrand_source)
        deltas = [float(v) - bi for v, bi in zip(point, base)]

        def g(t: float) -> float:
            return integrand([bi + t * di for bi, di in zip(base, deltas)], deltas)

        return _adaptive_simpson(g, 0.0, 1.0, _QUADRATURE_ABS_TOL)

    def describe(self) -> str:
        return "numeric line-integral potential (no closed form)"

    def __str__(self):
        return self.describe()


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
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

    return recurse(a, fa, b, fb, m, fm, whole, tol, 48)  # at most 48 halvings deep


def poincare_potential(alpha: KForm, probes: Optional[ProbeConfig] = None
                       ) -> Union[Expr, NumericPotential]:
    """The potential f with df = alpha and f(b) = 0 of a closed 1-form
    alpha, where b is the probe-box center, exact.

    Checks that alpha is a 1-form and that d(alpha), read off the form if
    already taken (see `exterior_derivative`), tests zero with probes
    (NotClosedError otherwise).  When every coefficient alpha_i is a
    polynomial in the coordinates (parameters and coordinate-free atoms
    such as sin(k) are constants), f is exact: the radial homotopy
    f0(x) = sum_i x_i integral_0^1 alpha_i(t x) dt, taken term by term,
    minus f0(b).  Otherwise f is a NumericPotential, the line integral
    from b by quadrature.
    """
    if alpha.degree != 1:
        raise ExprError("potential construction needs a 1-form")
    closed = form_is_zero(exterior_derivative(alpha), probes)
    if not closed.is_zero:
        raise NotClosedError("form is not closed, no potential exists", closed)
    space, base = alpha.space, alpha.space.center()
    f0 = []
    for (i,), a in sorted(alpha.coeffs.items()):
        radial = symexpr.integrate_radially(a, space.coords)
        if radial is None:
            return NumericPotential(space, alpha, base)
        f0.append(symexpr.symbol(space.coords[i]) * radial)
    f0 = symexpr.sum_(f0)
    return f0 - substitute(f0, {name: symexpr.rational(b)
                                for name, b in zip(space.coords, base)})


class BihamiltonianCheck:
    """The five conditions on a second Hamiltonian pair."""

    def __init__(self, is_pair: bool, omega2_closed: ZeroVerdict, alpha2_closed: ZeroVerdict,
                 omega2_distinct: bool, alpha2_distinct: bool, equation: ZeroVerdict):
        self.is_pair = is_pair
        self.omega2_closed = omega2_closed
        self.alpha2_closed = alpha2_closed
        self.omega2_distinct = omega2_distinct
        self.alpha2_distinct = alpha2_distinct
        self.equation = equation

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
    dh = KForm(sys.space, 1, {(i,): g for i, g in enumerate(sys.grad_h)})
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
