"""Decision tree for symmetry candidates of a Hamiltonian system.

Given a vector field commuting with the dynamics, walk the tower of iterated
Lie derivatives of the symplectic form, decide which symmetry class the
candidate falls in, and derive the conserved quantity that class guarantees.
Every branch decision records whether it rests on the symbolic normal form
or on seeded numeric probing, and every emitted symbolic quantity is
re-checked against the dynamics before it leaves the classifier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import symexpr
from .symexpr import (
    Expr,
    ExprError,
    ProbeConfig,
    ZeroVerdict,
    aggregate_zero,
    is_constant,
    is_zero,
    rational_content,
)
from .exterior import (
    KForm,
    VectorField,
    exterior_derivative,
    form_is_zero,
    form_to_string,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    lie_scalar,
)
from .hamiltonian import (
    HamiltonianSystem,
    NumericPotential,
    hamiltonian_field_for,
    is_bihamiltonian_pair,
    poincare_potential,
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
    "theta_form",
    "detect_dependence",
    "DependenceResult",
    "classify",
    "conserved_via_potential",
    "generate_from_conserved",
    "new_conserved_via_action",
    "symmetry_bracket",
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


@dataclass(frozen=True)
class SymmetryCandidate:
    name: str
    field: VectorField


@dataclass(frozen=True)
class Label:
    kind: str
    # kind-specific data, stringified for reporting where expressions appear
    order: Optional[int] = None
    constant: Optional[str] = None
    coefficients: Optional[Tuple[str, ...]] = None
    reason: Optional[str] = None

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


@dataclass
class ConservedQuantity:
    expr: Union[Expr, NumericPotential]
    rule: str
    trivial: bool = False
    certificate: Optional[ZeroVerdict] = None
    derivation: List[Tuple[str, str]] = field(default_factory=list)
    raw: Optional[Expr] = None

    @property
    def printable(self) -> str:
        if isinstance(self.expr, Expr):
            return str(self.expr)
        return self.expr.describe()

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.expr, Expr)


@dataclass
class ClassificationReport:
    candidate: str
    label: Label
    bracket: ZeroVerdict
    conserved: List[ConservedQuantity] = field(default_factory=list)
    bihamiltonian: Optional[BihamiltonianCheck] = None
    bihamiltonian_pair: Optional[Tuple[KForm, KForm]] = None
    theta_forms: List[str] = field(default_factory=list)
    branch_certificates: List[Tuple[str, str]] = field(default_factory=list)
    numeric_branch: bool = False  # some branch rested on probing
    seed: int = 0

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


@dataclass(frozen=True)
class ClassifyConfig:
    max_order: int = 6
    probes: ProbeConfig = field(default_factory=ProbeConfig)


# Largest denominator a fitted dependence coefficient may snap to.
FIT_MAX_DENOMINATOR = 10**6


# ---------------------------------------------------------------------------
# Predicates and building blocks


def is_infinitesimal_symmetry(y: VectorField, sys: HamiltonianSystem,
                              probes: Optional[ProbeConfig] = None) -> ZeroVerdict:
    """Zero verdict on the commutator [Y, X_h], aggregated over components."""
    bracket = lie_bracket(y, sys.x_h)
    return aggregate_zero(bracket.components, sys.space, probes)[0]


class _ThetaTower:
    """Memoized theta_(j) = L^j(Y) i(Y) omega, d theta_(j), and L^j(Y) h.

    The omega tower is read off the differentials: lomega(0) is omega and
    lomega(j) = L^j(Y) omega = d theta_(j-1) for j >= 1.  That identity
    holds because L(Y) commutes with d and L(Y) omega = d i(Y) omega, which
    rests on d omega = 0 as validated by make_symplectic.  Cartan's formula
    gives theta_(j) = i(Y) d theta_(j-1) + d i(Y) theta_(j-1); the second
    term is dropped because L(Y) also commutes with i(Y), so
    i(Y) theta_(j-1) = i(Y) i(Y) L^(j-1)(Y) omega = 0.  Hence
    theta_(j) = i(Y) lomega(j).
    """

    def __init__(self, y: VectorField, sys: HamiltonianSystem):
        self.y = y
        self.sys = sys
        self._theta: Dict[int, KForm] = {}
        self._dtheta: Dict[int, KForm] = {}
        self._lh: Dict[int, Expr] = {0: sys.h}

    def theta(self, j: int) -> KForm:
        if j not in self._theta:
            self._theta[j] = interior_product(self.y, self.lomega(j))
        return self._theta[j]

    def dtheta(self, j: int) -> KForm:
        if j not in self._dtheta:
            self._dtheta[j] = exterior_derivative(self.theta(j))
        return self._dtheta[j]

    def lomega(self, j: int) -> KForm:
        return self.dtheta(j - 1) if j else self.sys.omega_form

    def lh(self, j: int) -> Expr:
        if j not in self._lh:
            self._lh[j] = lie_scalar(self.y, self.lh(j - 1))
        return self._lh[j]


def theta_form(y: VectorField, sys: HamiltonianSystem, j: int) -> KForm:
    """theta_(j) = L^j(Y) i(Y) omega."""
    if j < 0:
        raise ExprError("theta index must be nonnegative")
    tower = _ThetaTower(y, sys)
    return tower.theta(j)


# ---------------------------------------------------------------------------
# Dependence detection over a stack of 2-forms


@dataclass
class DependenceResult:
    status: str  # "dependent" | "independent" | "inconclusive"
    coefficients: Optional[List[Expr]] = None
    all_constant: bool = False
    constants: Optional[List[Fraction]] = None
    certificate: Optional[ZeroVerdict] = None
    reason: Optional[str] = None


def _snap_rational(value: float, tol: float) -> Optional[Fraction]:
    frac = Fraction(value).limit_denominator(FIT_MAX_DENOMINATOR)
    if abs(float(frac) - value) <= tol * (1.0 + abs(value)):
        return frac
    return None


def _coefficient_library(sys: HamiltonianSystem, tower: Optional[_ThetaTower],
                         max_order: int) -> Iterator[Expr]:
    """Candidate coefficient functions, each built only when reached.

    In order: h, the chain L^j(Y)h for j <= max_order up to its first zero
    (none without a tower), the coordinates, then their pairwise products;
    duplicates and zeros are dropped.
    """
    coords = [symexpr.symbol(c) for c in sys.space.coords]
    h_chain = () if tower is None else itertools.takewhile(
        lambda e: not e.is_zero_expr, map(tower.lh, range(1, max_order + 1)))
    products = (x * y for i, x in enumerate(coords) for y in coords[i:])
    seen = set()
    for e in itertools.chain([sys.h], h_chain, coords, products):
        if e.key not in seen and not e.is_zero_expr:
            seen.add(e.key)
            yield e


def detect_dependence(forms: Sequence[KForm], target: KForm,
                      sys: HamiltonianSystem, config: ClassifyConfig,
                      tower: Optional[_ThetaTower] = None) -> DependenceResult:
    """Express target as sum_j f_j * forms[j], or report independence.

    Probes the stacked coefficient systems pointwise, solves least squares at
    each probe, then fits the sampled coefficient functions against a small
    library and verifies the candidate identity with the zero test.  An
    identity is never reported without passing that verification.
    """
    probes = config.probes
    space = sys.space
    keys = sorted(set().union(*[set(f.coeffs) for f in forms], set(target.coeffs)))
    if not keys:
        return DependenceResult("dependent", coefficients=[symexpr.ZERO] * len(forms),
                                all_constant=True, constants=[Fraction(0)] * len(forms))
    samples: List[Tuple[Tuple[float, ...], np.ndarray]] = []
    needed = max(16, 2 * len(forms))
    rank_deficient = 0
    for point in probes.points(space):
        try:
            cols = []
            for f in forms:
                vals = f.eval_at(point)
                cols.append([vals.get(k, 0.0) for k in keys])
            tv = target.eval_at(point)
            b = np.array([tv.get(k, 0.0) for k in keys])
            a = np.array(cols).T
        except symexpr.EvalDomainError:
            continue
        sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < len(forms):
            rank_deficient += 1
            continue
        residual = np.max(np.abs(a @ sol - b)) if keys else 0.0
        scale = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0
        if residual > math.sqrt(probes.tolerance) * scale:
            return DependenceResult("independent")
        samples.append((point, sol))
        if len(samples) >= needed:
            break
    if not samples:
        return DependenceResult(
            "inconclusive",
            reason="rank-deficient probe systems at all points"
            if rank_deficient else "no valid probe points",
        )

    fit_tol = math.sqrt(probes.tolerance)
    coeff_exprs: List[Expr] = []
    all_constant = True
    constants: List[Fraction] = []
    for j in range(len(forms)):
        vals = np.array([sol[j] for _, sol in samples])
        mean = float(np.mean(vals))
        if float(np.max(np.abs(vals - mean))) <= fit_tol * (1.0 + abs(mean)):
            snapped = _snap_rational(mean, fit_tol)
            if snapped is None:
                return DependenceResult(
                    "inconclusive",
                    reason=f"constant coefficient {mean!r} does not snap to a rational",
                )
            coeff_exprs.append(symexpr.rational(snapped))
            constants.append(snapped)
            continue
        all_constant = False
        fitted = None
        for cand in _coefficient_library(sys, tower, config.max_order):
            try:
                fn = space.compile(cand)
                gv = np.array([fn(pt) for pt, _ in samples])
            except symexpr.EvalDomainError:
                continue
            denom = float(gv @ gv)
            if denom < 1e-30:
                continue
            a_fit = float(gv @ vals) / denom
            if float(np.max(np.abs(a_fit * gv - vals))) > fit_tol * (1.0 + float(np.max(np.abs(vals)))):
                continue
            snapped = _snap_rational(a_fit, fit_tol)
            if snapped is None:
                continue
            fitted = symexpr.rational(snapped) * cand
            break
        if fitted is None:
            return DependenceResult(
                "inconclusive",
                reason=f"coefficient {j} is not constant and matches no library function",
            )
        coeff_exprs.append(fitted)
        constants.append(Fraction(0))

    residual_form = target
    for cexpr, f in zip(coeff_exprs, forms):
        residual_form = residual_form - f.scale(cexpr)
    cert = form_is_zero(residual_form, probes)
    if not cert.is_zero:
        return DependenceResult(
            "inconclusive",
            reason="fitted dependence failed verification: " + cert.describe(),
        )
    return DependenceResult("dependent", coefficients=coeff_exprs,
                            all_constant=all_constant,
                            constants=constants if all_constant else None,
                            certificate=cert)


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
    """
    config = config or ClassifyConfig()
    probes = config.probes
    y = candidate.field
    bracket = is_infinitesimal_symmetry(y, sys, probes)
    report = ClassificationReport(candidate=candidate.name,
                                  label=Label(INCONCLUSIVE),
                                  bracket=bracket, seed=probes.seed)
    report.note("commutator", bracket.describe(), bracket.numeric)
    if not bracket.is_zero:
        report.label = Label(NOT_A_SYMMETRY)
        return report

    tower = _ThetaTower(y, sys)
    for j in range(0, min(config.max_order, 4)):
        report.theta_forms.append(f"theta_({j}) = {form_to_string(tower.theta(j))}")

    v_lh = is_zero(tower.lh(1), sys.space, probes)
    report.note("L(Y)h", v_lh.describe(), v_lh.numeric)

    for order in itertools.count(1):
        closed = form_is_zero(tower.lomega(order), probes)
        report.note("L(Y)omega" if order == 1 else f"L^{order}(Y)omega",
                    closed.describe(), closed.numeric)
        if closed.is_zero:
            if order == 1 and v_lh.is_zero:
                _finish_noether(report, y, sys, tower, probes)
            elif order == 1:
                _finish_geometric_nonhamiltonian(report, tower.lh(1), sys, probes)
            elif v_lh.is_zero:
                _finish_higher_order_noether(report, order, y, sys, tower, probes)
            else:
                _finish_bihamiltonian(report, sys, tower, config, closure_order=order)
            return report
        if order > config.max_order:
            break
        prior = [tower.lomega(j) for j in range(order)]
        dep = detect_dependence(prior, tower.lomega(order), sys, config, tower)
        if dep.status == "inconclusive":
            report.label = Label(INCONCLUSIVE, order=order, reason=dep.reason)
            report.note("dependence", f"order {order}: {dep.reason}")
            return report
        if dep.status == "dependent":
            report.note("dependence",
                        f"L^{order}(Y)omega = " + " + ".join(
                            f"({c})*L^{j}(Y)omega" for j, c in enumerate(dep.coefficients)),
                        dep.certificate is not None and dep.certificate.numeric)
            if dep.all_constant:
                _finish_constant_dependence(report, dep, order, sys, tower,
                                            v_lh, config)
            else:
                _finish_function_dependence(report, dep, order, sys,
                                            v_lh, probes)
            return report

    if not v_lh.is_zero:
        _finish_bihamiltonian(report, sys, tower, config, closure_order=None)
    else:
        report.label = Label(
            INCONCLUSIVE, order=config.max_order,
            reason=f"no closure or dependence within max order {config.max_order}",
        )
    return report


def _finish_noether(report, y, sys, tower, probes):
    report.label = Label(NOETHER)
    theta0 = tower.theta(0)
    pot = poincare_potential(theta0, probes)
    q = ConservedQuantity(
        expr=pot, rule="noether-potential",
        derivation=[
            ("interior-product", f"i(Y)omega = {form_to_string(theta0)}"),
            ("closedness", "d i(Y)omega = L(Y)omega = 0"),
            ("potential", "f solves df = i(Y)omega, pinned to 0 at the base point"),
        ],
    )
    _emit(report, q, sys, probes)
    if q.is_symbolic:
        inv = is_zero(lie_scalar(y, pot), sys.space, probes)
        q.derivation.append(("invariance", f"L(Y)f: {inv.describe()}"))


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
            ("identity", f"f = L(Y)h = ({c})*h + k with k = {k_str}"),
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
    """Emit the iterated quantities L^j(Y)h while they stay nonzero."""
    probes = config.probes
    for j in range(1, max_j + 1):
        e = tower.lh(j)
        v = is_zero(e, sys.space, probes)
        if v.is_zero:
            report.note(f"L^{j}(Y)h", v.describe(), v.numeric)
            break
        cv = is_constant(e, sys.space, probes)
        _emit(report, _normalize(ConservedQuantity(
            expr=e, rule=rule, trivial=cv.is_constant,
            derivation=[("iterated-action", f"f_{j} = L^{j}(Y)h")],
        )), sys, probes)


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


def _finish_higher_order_noether(report, n: int, y, sys, tower, probes):
    report.label = Label(HIGHER_ORDER_NOETHER, order=n)
    theta = tower.theta(n - 1)
    pot = poincare_potential(theta, probes)
    q = ConservedQuantity(
        expr=pot, rule="higher-order-noether-potential",
        derivation=[
            ("tower-closure", f"L^{n}(Y)omega = 0, lower orders nonzero"),
            ("closedness", f"d theta_({n-1}) = L^{n}(Y)omega = 0"),
            ("potential", f"f solves df = theta_({n-1}) = L^{n-1}(Y)i(Y)omega"),
        ],
    )
    _emit(report, q, sys, probes)
    if q.is_symbolic:
        q.trivial = is_constant(pot, sys.space, probes).is_constant
        inv = is_zero(lie_scalar(y, pot), sys.space, probes)
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
        _emit(report, ConservedQuantity(
            expr=poincare_potential(gamma, probes),
            rule="constant-coefficients-potential",
            derivation=[
                ("combination",
                 "gamma = theta_(N-1) - sum_j C_j theta_(j-1) is closed"),
                ("potential", "f solves df = gamma"),
            ],
        ), sys, probes)
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


# ---------------------------------------------------------------------------
# Derived operations


def conserved_via_potential(y: VectorField, sys: HamiltonianSystem,
                            theta: KForm,
                            probes: Optional[ProbeConfig] = None) -> Expr:
    """Alternate route f = xi - i(Y)theta for a primitive theta of omega.

    Requires d(theta) = omega and a geometric candidate (L(Y)theta closed);
    cross-checked against the direct potential route up to a constant.
    """
    probes = probes or ProbeConfig()
    residual = exterior_derivative(theta) - sys.omega_form
    v = form_is_zero(residual, probes)
    if not v.is_zero:
        raise ExprError(f"theta is not a primitive of omega: {v.describe()}")
    ltheta = lie_derivative_form(y, theta)
    closed = form_is_zero(exterior_derivative(ltheta), probes)
    if not closed.is_zero:
        raise ExprError(
            f"L(Y)theta is not closed, Y is not geometric: {closed.describe()}"
        )
    xi = poincare_potential(ltheta, probes)
    if not isinstance(xi, Expr):
        raise ExprError("xi has no closed form on this route")
    f = xi - interior_product(y, theta).coeff(())
    direct = poincare_potential(interior_product(y, sys.omega_form), probes)
    if isinstance(direct, Expr):
        diff = is_constant(f - direct, sys.space, probes)
        if not diff.is_constant:
            raise InternalInconsistencyError(
                "potential routes disagree by a non-constant: " + diff.describe()
            )
    return f


def generate_from_conserved(f: Expr, sys: HamiltonianSystem,
                            probes: Optional[ProbeConfig] = None,
                            name: str = "generated") -> SymmetryCandidate:
    """Inverse construction: the field Y_f with i(Y_f)omega = df."""
    probes = probes or ProbeConfig()
    v = is_zero(lie_scalar(sys.x_h, f), sys.space, probes)
    if not v.is_zero:
        raise ExprError(f"input is not conserved: {v.describe()}")
    y = hamiltonian_field_for(sys, f)
    cand = SymmetryCandidate(name, y)
    sym = is_infinitesimal_symmetry(y, sys, probes)
    if not sym.is_zero:
        raise InternalInconsistencyError(
            f"generated field fails the symmetry check: {sym.describe()}"
        )
    geo = form_is_zero(lie_derivative_form(y, sys.omega_form), probes)
    if not geo.is_zero:
        raise InternalInconsistencyError(
            f"generated field is not geometric: {geo.describe()}"
        )
    return cand


def new_conserved_via_action(y: VectorField, f: Expr, sys: HamiltonianSystem,
                             probes: Optional[ProbeConfig] = None) -> Optional[Expr]:
    """L(Y)f when it is a fresh (nonzero, non-constant) conserved quantity."""
    probes = probes or ProbeConfig()
    sym = is_infinitesimal_symmetry(y, sys, probes)
    if not sym.is_zero:
        raise ExprError(f"Y is not an infinitesimal symmetry: {sym.describe()}")
    cons = is_zero(lie_scalar(sys.x_h, f), sys.space, probes)
    if not cons.is_zero:
        raise ExprError(f"f is not conserved: {cons.describe()}")
    g = lie_scalar(y, f)
    if is_zero(g, sys.space, probes).is_zero:
        return None
    if is_constant(g, sys.space, probes).is_constant:
        return None
    return g


def symmetry_bracket(y1: VectorField, y2: VectorField, sys: HamiltonianSystem,
                     probes: Optional[ProbeConfig] = None,
                     name: str = "bracket") -> SymmetryCandidate:
    """The commutator of two symmetries, re-checked as a symmetry."""
    probes = probes or ProbeConfig()
    for i, y in enumerate((y1, y2), 1):
        v = is_infinitesimal_symmetry(y, sys, probes)
        if not v.is_zero:
            raise ExprError(f"argument {i} is not a symmetry: {v.describe()}")
    z = lie_bracket(y1, y2)
    cand = SymmetryCandidate(name, z)
    v = is_infinitesimal_symmetry(z, sys, probes)
    if not v.is_zero:
        raise InternalInconsistencyError(
            f"bracket of symmetries failed the symmetry check: {v.describe()}"
        )
    return cand
