import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hamsym import classifier as classifier_module
from hamsym import exterior, hamiltonian, symexpr
from hamsym.classifier import (
    BI_HAMILTONIAN,
    CONSTANT_COEFFICIENTS_C0_NONZERO,
    CONSTANT_COEFFICIENTS_C0_ZERO,
    FUNCTION_COEFFICIENTS,
    GEOMETRIC_NON_HAMILTONIAN,
    HIGHER_ORDER_NOETHER,
    INCONCLUSIVE,
    NOETHER,
    NOT_A_SYMMETRY,
    OMEGA_EIGEN_ORDER_N,
    ClassificationReport,
    ClassifyConfig,
    Label,
    SymmetryCandidate,
    _ThetaTower,
    _chain_quantities,
    _commutator,
    _coefficient_library,
    classify,
    detect_dependence,
    is_infinitesimal_symmetry,
)
from hamsym.exterior import (
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
from hamsym.hamiltonian import hamiltonian_field_for, make_symplectic, make_system
from hamsym.symexpr import (PhaseSpace, ProbeConfig, is_constant, is_zero, parse,
                             rational_content)
from hamsym.systemio import BUNDLED_EXAMPLES, parse_system_text
from hamsym.verify import check_conserved, integrate

from conftest import candidate_named
from genutil import (SPECTATOR_FAMILIES, conformal_case, outside_span_case, random_field, rank_at,
                     rational_corpus_json, small_space, spectator_label_case)
from test_systemio_cli import DEEP_GOLDEN_SYSTEMS


def field_of(sf, name):
    return candidate_named(sf, name).field


# -- symmetry predicate --------------------------------------------------------

def test_symmetry_predicate_pendulum(pendulum, probes):
    sf, system = pendulum
    v = is_infinitesimal_symmetry(field_of(sf, "Y_rot"), system, probes)
    assert v.kind == symexpr.SYMBOLIC_ZERO


def test_symmetry_predicate_iso(iso, probes):
    sf, system = iso
    v = is_infinitesimal_symmetry(field_of(sf, "Y"), system, probes)
    assert v.is_zero


def test_symmetry_predicate_rejects(iso, probes):
    sf, system = iso
    sp = sf.space
    y = VectorField(sp, (symexpr.symbol("q1"), symexpr.ZERO,
                         symexpr.ZERO, symexpr.ZERO))
    v = is_infinitesimal_symmetry(y, system, probes)
    assert not v.is_zero
    bracket = lie_bracket(y, system.x_h)
    assert bracket.components[0] == parse("-p1", sp)


# -- the commutator read off the Jacobian of X_h -------------------------------

ISO3 = """\
name: iso3
dof: 3
coordinates: q1 q2 q3 p1 p2 p3
parameter: Omega = 1.3
symplectic: canonical
hamiltonian: (p1^2 + p2^2 + p3^2 + Omega^2*q1^2 + Omega^2*q2^2 + Omega^2*q3^2)/2
"""


def _commutator_system(request, case):
    if case in ("pendulum", "iso", "aniso"):
        return request.getfixturevalue(case)[1]
    if case == "q1-pivot":  # a Poisson matrix built around the pivot 2 + q1^2
        sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
        terms = [("1", 0, 2), ("1", 1, 3), ("q1", 0, 1), ("1 + q1^2", 0, 2), ("2", 2, 3)]
        omega = make_symplectic(sp, [(parse(c, sp), i, j) for c, i, j in terms])
        return make_system(sp, omega, parse("(p1^2 + p2^2 + q1^2 + q2^2)/2", sp))
    sf = parse_system_text(ISO3 if case == "iso3" else MAGNETIC_PLANE)
    return make_system(sf.space, sf.symplectic, sf.hamiltonian)


@pytest.mark.parametrize("case", ["pendulum", "iso", "aniso", "iso3", "magnetic-plane",
                                  "q1-pivot"])
def test_commutator_from_jacobian_is_lie_bracket(request, case):
    # byte-identical output rests on this: each component equals, as an
    # Expr, the one lie_bracket builds, for fields with and without zeros
    system = _commutator_system(request, case)
    sp = system.space
    rng = random.Random(f"commutator:{case}")
    for k in range(8):
        y = random_field(rng, sp, trig=k % 2 == 1)
        if k % 4 >= 2:
            y = VectorField(sp, tuple(symexpr.ZERO if rng.random() < 0.5 else c
                                      for c in y.components))
        assert list(_commutator(y, system)) == list(lie_bracket(y, system.x_h).components)


def test_classify_differentiates_x_h_once_per_entry(iso, probes, monkeypatch):
    sf, _ = iso
    system = make_system(sf.space, sf.symplectic, sf.hamiltonian)  # no table built yet
    components = system.x_h.components
    seen = Counter()
    differentiate = symexpr.differentiate

    def counting(e, name):
        seen.update((i, name) for i, c in enumerate(components) if e is c)
        return differentiate(e, name)

    for module in (symexpr, exterior, hamiltonian, classifier_module):
        if getattr(module, "differentiate", None) is differentiate:
            monkeypatch.setattr(module, "differentiate", counting)
    config = ClassifyConfig(probes=probes)
    rng = random.Random(11)
    candidates = list(sf.symmetries) + [SymmetryCandidate(f"R{k}", random_field(rng, sf.space))
                                        for k in range(12)]
    for cand in candidates:
        classify(cand, system, config)
    assert set(seen) == {(i, name) for i in range(4) for name in sf.space.coords}
    assert max(seen.values()) == 1


def _recorded(monkeypatch, name):
    """The (argument tuple, result) of every call to exterior's `name`, at
    each module name bound to it."""
    original = getattr(exterior, name)
    calls = []

    def recording(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    for module in (exterior, hamiltonian, classifier_module):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recording)
    return calls


def test_noether_classify_proves_closedness_once_and_renders_theta0_once(iso, probes, monkeypatch):
    # the walk's L(Y)omega = d theta_(0) = 0 is the potential's closedness
    # proof: d theta_(0) is computed once and kept on theta_(0), so the
    # builder's check reads the form the walk tested; theta_(0) is rendered
    # once for the derivation and the report
    sf, system = iso
    cand = candidate_named(sf, "Xh1")
    theta0 = _ThetaTower(cand.field, system).theta(0)
    derivatives = _recorded(monkeypatch, "exterior_derivative")
    renders = _recorded(monkeypatch, "form_to_string")
    report = classify(cand, system, ClassifyConfig(probes=probes))
    assert report.label.kind == NOETHER
    form = (theta0.degree, theta0.coeffs)
    ((walked,), d_walked), ((checked,), d_checked) = derivatives
    assert checked is walked and (walked.degree, walked.coeffs) == form
    assert d_checked is d_walked is walked._d and d_walked.is_zero_form
    assert [(f.degree, f.coeffs) for (f,), _ in renders] == [form]
    text = form_to_string(theta0)
    assert report.theta_forms == [f"theta_(0) = {text}"]
    assert ("interior-product", f"i(Y)omega = {text}") in report.conserved[0].derivation


def test_classify_hands_its_probes_to_the_potential_builder(iso, monkeypatch):
    # the builder's closedness check runs with the walk's probes, so a
    # closure decided under a loose tolerance is not re-decided with the
    # default one
    sf, system = iso
    config = ClassifyConfig(probes=ProbeConfig(seed=7, tolerance=1e-6))
    original, handed = classifier_module.poincare_potential, []

    def recording(alpha, probes=None):
        handed.append(probes)
        return original(alpha, probes)

    monkeypatch.setattr(classifier_module, "poincare_potential", recording)
    report = classify(candidate_named(sf, "Xh1"), system, config)
    assert report.label.kind == NOETHER
    assert len(handed) == 1 and handed[0] is config.probes


# -- theta tower ----------------------------------------------------------------

def test_theta_zero_pendulum(pendulum):
    sf, system = pendulum
    theta0 = _ThetaTower(field_of(sf, "Y_rot"), system).theta(0)
    assert (theta0.degree, theta0.coeffs) == (1, {(3,): symexpr.ONE})


def test_theta_one_iso(iso, probes):
    sf, system = iso
    y = field_of(sf, "Y")
    theta1 = _ThetaTower(y, system).theta(1)
    d_theta1 = exterior_derivative(theta1)
    l2 = lie_derivative_form(y, lie_derivative_form(y, system.omega_form))
    assert form_is_zero(d_theta1 - l2, probes).kind == symexpr.SYMBOLIC_ZERO
    assert form_is_zero(l2 - system.omega_form.scale(symexpr.rational(4)),
                        probes).kind == symexpr.SYMBOLIC_ZERO


def test_theta_zero_field(iso):
    sf, system = iso
    zero = VectorField(sf.space, tuple([symexpr.ZERO] * 4))
    tower = _ThetaTower(zero, system)
    assert tower.theta(0).is_zero_form
    assert tower.theta(3).is_zero_form


MAGNETIC_PLANE = """\
name: magnetic-plane
dof: 2
coordinates: x y px py
parameter: B = 0.5
symplectic: explicit
symplectic-term: x px = 1
symplectic-term: y py = 1
symplectic-term: x y = B*(1 + x^2)
hamiltonian: (px^2 + py^2)/2
symmetry: W = x*y | px^2 | x + py | y*px
"""


def test_tower_lomega_on_explicit_form():
    # lomega(j) is read off d theta_(j-1); on a noncanonical form and a field
    # that is no symmetry it must still equal omega iterated with L(Y)
    sf = parse_system_text(MAGNETIC_PLANE)
    system = make_system(sf.space, sf.symplectic, sf.hamiltonian)
    y = candidate_named(sf, "W").field
    tower = _ThetaTower(y, system)
    lomega, theta = system.omega_form, interior_product(y, system.omega_form)
    for j in range(4):
        for got, want in ((tower.lomega(j), lomega), (tower.theta(j), theta)):
            assert (got.degree, got.coeffs) == (want.degree, want.coeffs)
        lomega, theta = lie_derivative_form(y, lomega), lie_derivative_form(y, theta)
    assert not tower.lomega(1).is_zero_form


# -- dependence detection ---------------------------------------------------------

def test_dependence_iso_eigen(iso, probes):
    sf, system = iso
    y = field_of(sf, "Y")
    t1 = lie_derivative_form(y, system.omega_form)
    t2 = lie_derivative_form(y, t1)
    config = ClassifyConfig(probes=probes)
    dep = detect_dependence([system.omega_form, t1], t2, system, config)
    assert dep.status == "dependent"
    assert [c.rational_value for c in dep.coefficients] == [Fraction(4), Fraction(0)]


def test_dependence_constant_relation_builds_no_h_chain(iso, probes):
    sf, system = iso
    tower = _ThetaTower(field_of(sf, "Y"), system)
    dep = detect_dependence([tower.lomega(0), tower.lomega(1)], tower.lomega(2),
                            system, ClassifyConfig(probes=probes))
    assert dep.status == "dependent"
    assert [c.rational_value for c in dep.coefficients] == [Fraction(4), Fraction(0)]
    # the solve never sees the tower, so L^j(Y)h stays unbuilt
    assert max(tower._lh) < 2


def test_coefficient_library_is_h_then_coordinate_monomials(iso):
    sf, system = iso
    sp = sf.space
    coords = [symexpr.symbol(c) for c in sp.coords]
    products = [x * y for i, x in enumerate(coords) for y in coords[i:]]
    assert _coefficient_library(system) == [system.h] + coords + products
    # on h = p^2 the product p*p is h again, and appears once, as h
    sp1 = PhaseSpace(1, ["q", "p"])
    free = make_system(sp1, "canonical", parse("p^2", sp1))
    assert _coefficient_library(free) == [parse(t, sp1) for t in ("p^2", "q", "p", "q^2", "q*p")]


def test_classify_builds_no_h_chain_beyond_first_order(iso, probes, monkeypatch):
    # the coefficient library holds no L^j(Y)h, so iso Z, whose relation
    # matches no library function, builds only L(Y)h
    orders = []
    lh = _ThetaTower.lh

    def recording_lh(self, j):
        orders.append(j)
        return lh(self, j)

    monkeypatch.setattr(_ThetaTower, "lh", recording_lh)
    sf, system = iso
    report = classify(candidate_named(sf, "Z"), system, ClassifyConfig(probes=probes))
    assert report.label.kind == INCONCLUSIVE
    assert max(orders) == 1


def test_dependence_zero_target(iso, probes):
    sf, system = iso
    y1 = field_of(sf, "Y1")
    t1 = lie_derivative_form(y1, system.omega_form)
    t2 = lie_derivative_form(y1, t1)
    t3 = lie_derivative_form(y1, t2)
    assert t3.is_zero_form
    config = ClassifyConfig(probes=probes)
    dep = detect_dependence([system.omega_form, t1, t2], t3, system, config)
    assert dep.status == "dependent"
    assert [c.rational_value for c in dep.coefficients] == [Fraction(0)] * 3


def test_dependence_trivial_first_form(iso, probes):
    sf, system = iso
    config = ClassifyConfig(probes=probes)
    dep = detect_dependence([system.omega_form], system.omega_form, system, config)
    assert dep.status == "dependent"
    assert [c.rational_value for c in dep.coefficients] == [Fraction(1)]


def test_dependence_independent(iso, probes):
    sf, system = iso
    y = field_of(sf, "Y")
    t1 = lie_derivative_form(y, system.omega_form)
    config = ClassifyConfig(probes=probes)
    dep = detect_dependence([system.omega_form], t1, system, config)
    assert dep.status == "independent"


def test_dependence_skips_only_the_faulting_points(iso, probes):
    # ln(q1) faults wherever q1 <= 0, half of the default box
    sf, system = iso
    sp = sf.space
    f = KForm(sp, 2, {(0, 2): parse("ln(q1)", sp), (1, 3): symexpr.ONE})
    dep = detect_dependence([f], f.scale(symexpr.rational(2)), system,
                            ClassifyConfig(probes=probes))
    assert dep.status == "dependent"
    assert [c.rational_value for c in dep.coefficients] == [Fraction(2)]


def _screened(monkeypatch, forms, target, system, probes):
    """detect_dependence, asserting that the screen modulo P, or the
    elimination outside the exact class, decided it: the residual check of
    a solved relation never ran."""
    verified = []
    monkeypatch.setattr(classifier_module, "form_is_zero",
                        lambda *args: verified.append(args) or form_is_zero(*args))
    dep = detect_dependence(forms, target, system, ClassifyConfig(probes=probes))
    assert verified == []
    return dep


def test_dependence_of_dependent_forms_is_rank_deficient(iso, probes, monkeypatch):
    sf, system = iso
    omega = system.omega_form
    dep = _screened(monkeypatch, [omega, omega.scale(symexpr.rational(2))], omega,
                    system, probes)
    assert dep.status == "inconclusive"
    assert dep.reason == "rank-deficient probe systems at all points"


def _dependent_leading_rows(sp):
    # the rows of keys (0, 1) and (0, 2), first in key order, are [q1, p1]
    # and [2*q1, 2*p1]: the second lies in the span of the first
    f1 = KForm(sp, 2, {(0, 1): parse("q1", sp), (0, 2): parse("2*q1", sp),
                       (1, 3): parse("p2", sp)})
    f2 = KForm(sp, 2, {(0, 1): parse("p1", sp), (0, 2): parse("2*p1", sp),
                       (2, 3): parse("q2^2", sp)})
    return f1, f2


def test_dependence_skips_dependent_rows_to_the_planted_constants(iso, probes):
    sf, system = iso
    f1, f2 = _dependent_leading_rows(sf.space)
    target = f1.scale(symexpr.rational(3)) - f2.scale(symexpr.rational(Fraction(1, 2)))
    dep = detect_dependence([f1, f2], target, system, ClassifyConfig(probes=probes))
    assert dep.status == "dependent"
    assert [c.rational_value for c in dep.coefficients] == [Fraction(3), Fraction(-1, 2)]


def test_dependence_pivot_columns_are_eliminated_exactly(iso, probes):
    # constant rows [0, 1/1000, -7/9], [0, 0, -1/2], [0, -2, 0], [1, 1, 1]:
    # reducing the second row leaves about 5.6e-17 in column 2, and the
    # third row's factor of about 3111 on it would lift that roundoff above
    # the pivot threshold, making the third row a pivot it is not
    sp = iso[0].space
    rows = {(0, 1): (0, Fraction(1, 1000), Fraction(-7, 9)), (0, 2): (0, 0, Fraction(-1, 2)),
            (0, 3): (0, -2, 0), (1, 2): (1, 1, 1)}
    forms = [KForm(sp, 2, {k: symexpr.rational(r[j]) for k, r in rows.items()})
             for j in range(3)]
    target = forms[0].scale(symexpr.rational(2)) + forms[1].scale(symexpr.rational(3)) \
        - forms[2]
    dep = detect_dependence(forms, target, iso[1], ClassifyConfig(probes=probes))
    assert dep.status == "dependent"
    assert [c.rational_value for c in dep.coefficients] == [Fraction(2), Fraction(3), Fraction(-1)]


@pytest.mark.parametrize("eps", ["1e-11", "1e-10"])
def test_dependence_of_an_ill_conditioned_minor_is_not_independent(eps, iso, probes):
    # the target is 7/10*f1 + 3*f2, but the first two rows, taken as pivots,
    # differ by eps*p2: reducing the third row multiplies the roundoff of the
    # second by about 1/(eps*p2), far above the residual bound
    sp = iso[0].space
    rows = {(0, 1): ("q1", "q1"), (0, 2): ("1", f"1 + {eps}*p2"), (0, 3): ("2", "3")}
    f1, f2 = (KForm(sp, 2, {k: parse(r[j], sp) for k, r in rows.items()}) for j in (0, 1))
    target = f1.scale(symexpr.rational(Fraction(7, 10))) + f2.scale(symexpr.rational(3))
    dep = detect_dependence([f1, f2], target, iso[1], ClassifyConfig(probes=probes))
    assert dep.status != "independent"


@pytest.mark.parametrize("case", [
    lambda iso, probes, mp: test_dependence_of_dependent_forms_is_rank_deficient(iso, probes, mp),
    lambda iso, probes, mp: test_dependence_skips_dependent_rows_to_the_planted_constants(
        iso, probes),
    lambda iso, probes, mp: test_dependence_pivot_columns_are_eliminated_exactly(iso, probes),
    lambda iso, probes, mp: test_dependence_of_an_ill_conditioned_minor_is_not_independent(
        "1e-11", iso, probes),
    lambda iso, probes, mp: test_dependence_of_an_ill_conditioned_minor_is_not_independent(
        "1e-10", iso, probes),
], ids=["rank-deficient", "dependent-rows", "pivot-columns", "ill-conditioned-1e-11",
        "ill-conditioned-1e-10"])
def test_the_elimination_decides_the_screen_cases(case, iso, probes, monkeypatch):
    # these cases are in the exact class, so the screen reads them modulo P;
    # outside it the Gauss-Jordan elimination over the canonical form
    # decides, so it runs them too
    monkeypatch.setattr(classifier_module, "_pivots_mod_p", lambda *args: None)
    case(iso, probes, monkeypatch)


@pytest.mark.parametrize("eps", ["1e-11", "1e-10"])
def test_dependence_outside_the_exact_class_solves_an_ill_conditioned_system(eps, iso, probes):
    # the root puts every row outside the exact class; the rows of keys
    # (0, 1) and (0, 2) differ by eps*p2 once reduced, which the zero test
    # calls nonzero however small eps is, so the solve is exact
    sp = iso[0].space
    rows = {(0, 1): ("sqrt(2 + q1^2)", "sqrt(2 + q1^2)"), (0, 2): ("1", f"1 + {eps}*p2"),
            (0, 3): ("2", "3")}
    f1, f2 = (KForm(sp, 2, {k: parse(r[j], sp) for k, r in rows.items()}) for j in (0, 1))
    target = f1.scale(symexpr.rational(Fraction(7, 10))) + f2.scale(symexpr.rational(3))
    dep = detect_dependence([f1, f2], target, iso[1], ClassifyConfig(probes=probes))
    assert dep.status == "dependent"
    assert [c.rational_value for c in dep.coefficients] == [Fraction(7, 10), Fraction(3)]


def test_dependence_outside_the_span_is_independent_at_the_screen(iso, probes, monkeypatch):
    # the target adds a key neither form has: a row with a = 0 and b != 0
    sf, system = iso
    sp = sf.space
    f1, f2 = _dependent_leading_rows(sp)
    target = f1 + KForm(sp, 2, {(0, 3): parse("q1*p2 + 1", sp)})
    dep = _screened(monkeypatch, [f1, f2], target, system, probes)
    assert dep.status == "independent"


def test_dependence_screen_proves_seeded_targets_outside_the_span_independent(monkeypatch):
    # a float elimination, deciding at its first point with full rank, lets
    # a target whose outside part is small there pass and end inconclusive;
    # modulo P any nonzero outside part proves independence.  Each case
    # counts only where an exact rank over the rationals at a rational point
    # proves the target outside the span; the seeds include 473 (3 forms)
    space = small_space()
    system = make_system(space, "canonical", parse("(p1^2 + p2^2 + q1^2 + q2^2)/2", space))
    point = {"q1": Fraction(1, 3), "q2": Fraction(-2, 5), "p1": Fraction(3, 7),
             "p2": Fraction(5, 11)}
    probes, proved = ProbeConfig(seed=42), 0
    for seed in range(440, 520):
        for m in (1, 2, 3):
            forms, target = outside_span_case(random.Random(seed), space, m)
            keys = sorted(set().union(*[f.coeffs for f in (*forms, target)]))
            rows = [[f.coeffs.get(k, symexpr.ZERO) for f in (*forms, target)] for k in keys]
            if rank_at(rows, point, space) <= m:
                continue
            proved += 1
            dep = _screened(monkeypatch, forms, target, system, probes)
            assert dep.status == "independent", (seed, m)
    assert proved > 200


def test_dependence_skips_points_that_overflow(capfd):
    # B*C*q1 overflows to inf at every point without a fault, but it is in
    # the exact class: read modulo P, with no float at all, the target's
    # leftover is not zero
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"], parameters={"B": 1e200, "C": 1e200})
    system = make_system(sp, "canonical", parse("(p1^2 + p2^2 + q1^2 + q2^2)/2", sp))
    form = KForm(sp, 2, {(0, 2): parse("B*C*q1", sp), (1, 3): symexpr.ONE})
    target = KForm(sp, 2, {(0, 2): parse("q2", sp), (1, 3): parse("p1", sp)})
    dep = detect_dependence([form], target, system, ClassifyConfig())
    assert (dep.status, dep.reason) == ("independent", None)
    assert capfd.readouterr() == ("", "")


def test_dependence_float_screen_skips_points_that_overflow(capfd):
    # outside the exact class, B*C*sqrt(1 + q1^2) overflows to inf at every
    # point without a fault; the zero test of the first pivot skips such a
    # point, so no point is left
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"], parameters={"B": 1e200, "C": 1e200})
    system = make_system(sp, "canonical", parse("(p1^2 + p2^2 + q1^2 + q2^2)/2", sp))
    form = KForm(sp, 2, {(0, 2): parse("B*C*sqrt(1 + q1^2)", sp), (1, 3): symexpr.ONE})
    target = KForm(sp, 2, {(0, 2): parse("q2", sp), (1, 3): parse("p1", sp)})
    dep = detect_dependence([form], target, system, ClassifyConfig())
    assert (dep.status, dep.reason) == ("inconclusive", "no valid probe points")
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("k, c", [("0.0004567", "4567/5000000"), ("1e-7", "1/5000000"),
                                  ("0.1", "1/5")])
def test_conformal_constant_of_a_parameter_is_exact(k, c, probes):
    # L(Y)omega = 2k*omega: the coefficient is the declared k read as a
    # decimal, so a constant no small denominator fits comes out exact; the
    # identity prints the additive constant's value, not a name such as the
    # parameter k
    sf = parse_system_text(f"""\
dof: 1
coordinates: q p
parameter: k = {k}
hamiltonian: (p^2 + q^2)/2
symmetry: Y = k*q | k*p
""")
    system = make_system(sf.space, sf.symplectic, sf.hamiltonian, probes)
    report = classify(sf.symmetries[0], system, ClassifyConfig(probes=probes))
    assert report.label.describe() == f"ConformalSymplectic(c={c})"
    [q] = report.conserved
    assert ("identity", f"f = L(Y)h = ({c})*h + (0.0)") in q.derivation


@pytest.mark.parametrize("scale", ["sqrt(k)", "sqrt(2)"])
def test_irrational_constant_is_inconclusive_not_a_nearby_rational(scale, probes):
    # L(Y)omega = 2*sqrt(2)*omega holds for no rational C, so no class that
    # names C applies
    sf = parse_system_text(f"""\
dof: 1
coordinates: q p
parameter: k = 2.0
hamiltonian: (p^2 + q^2)/2
symmetry: Y = {scale}*q | {scale}*p
""")
    system = make_system(sf.space, sf.symplectic, sf.hamiltonian, probes)
    report = classify(sf.symmetries[0], system, ClassifyConfig(probes=probes))
    assert vars(report.label) == vars(Label(INCONCLUSIVE, order=1, reason=(
        f"constant coefficient 0 is not rational: 2*{scale}")))
    assert report.conserved == []


def test_failed_exact_verification_means_independent(iso, probes, monkeypatch):
    # Z1 scaled by 1/3: at order 2 the first probe's float residual is within
    # the tolerance, but the leftover modulo P is not zero, which proves
    # independence: no walker is built and no relation is solved or verified
    sf = parse_system_text(BUNDLED_EXAMPLES["iso_oscillator.sys"]
                           + "\nsymmetry: Z1_s = 1/3*Omega^2*q2^3 + 1/3*p2^2*q2 | 0"
                             " | 1/3*Omega^2*p2*q2^2 + 1/3*p2^3 | 0\n")
    system = make_system(sf.space, sf.symplectic, sf.hamiltonian, probes)
    cand = candidate_named(sf, "Z1_s")
    config = ClassifyConfig(probes=probes)
    assert classify(cand, system, config).label.kind == BI_HAMILTONIAN
    verified = []

    def recording(form, p=None):
        verdict = form_is_zero(form, p)
        verified.append(verdict)
        return verdict

    monkeypatch.setattr(classifier_module, "form_is_zero", recording)
    tower = _ThetaTower(cand.field, system)
    forms = [tower.lomega(j) for j in range(3)]
    built = []
    monkeypatch.setattr(symexpr, "interpret", lambda e, space: built.append(e))
    dep = detect_dependence(forms[:2], forms[2], system, config)
    assert dep.status == "independent"
    assert (verified, built) == ([], [])


def test_classify_builds_no_code(built_code):
    # fresh systems, so that no compile cached on a shared space hides a build
    numeric = 0
    for name, text in BUNDLED_EXAMPLES.items():
        sf = parse_system_text(text, name_hint=name)
        system = make_system(sf.space, sf.symplectic, sf.hamiltonian)
        candidates = list(sf.symmetries)
        if name == "pendulum.sys":
            # Y = X_h: Noether, and the potential of dh has no closed form
            candidates.append(SymmetryCandidate("X_h", system.x_h))
        for cand in candidates:
            report = classify(cand, system, ClassifyConfig(max_order=6))
            numeric += sum(not q.is_symbolic for q in report.conserved)
    assert numeric == 1
    assert built_code == []


# -- the decision tree -------------------------------------------------------------

def test_classify_pendulum_noether(pendulum, probes):
    sf, system = pendulum
    report = classify(candidate_named(sf, "Y_rot"), system,
                      ClassifyConfig(probes=probes))
    assert report.label.kind == NOETHER
    assert not report.numeric_branch
    [q] = report.conserved
    assert q.expr == parse("p_phi", sf.space)
    assert q.certificate.kind == symexpr.SYMBOLIC_ZERO


def _no_probe(*args, **kwargs):
    raise AssertionError("is_constant called")


def test_classify_zero_field_noether_quantity_is_trivial(probes, monkeypatch):
    # the zero field is Noether with the potential 0, marked trivial by a
    # structural test (no coordinate symbol), never by a constancy probe
    monkeypatch.setattr(classifier_module, "is_constant", _no_probe)
    sp = PhaseSpace(1, ["q", "p"])
    system = make_system(sp, "canonical", parse("p^2/2 + q^2/2", sp))
    zero = VectorField(sp, (symexpr.ZERO, symexpr.ZERO))
    report = classify(SymmetryCandidate("zero", zero), system, ClassifyConfig(probes=probes))
    assert report.label.kind == NOETHER
    [q] = report.conserved
    assert q.expr.is_zero_expr
    assert q.trivial
    assert report.to_dict()["conserved_quantities"][0]["trivial"] is True
    # a potential with a coordinate symbol stays non-trivial
    rot = VectorField(sp, (symexpr.symbol("p"), -symexpr.symbol("q")))
    [q] = classify(SymmetryCandidate("rot", rot), system,
                   ClassifyConfig(probes=probes)).conserved
    assert not q.trivial


def test_higher_order_and_c0_zero_potentials_are_trivial_without_a_probe(probes, monkeypatch):
    # both potential rules mark a constant potential trivial by Noether's
    # structural test: the spectator field q2^2 d/dq1 of free motion, whose
    # theta_(1) vanishes, and a C0-zero spectator whose combination form does
    monkeypatch.setattr(classifier_module, "is_constant", _no_probe)
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    system = make_system(sp, "canonical", parse("p1^2/2", sp))
    y = VectorField(sp, (parse("q2^2", sp), symexpr.ZERO, symexpr.ZERO, symexpr.ZERO))
    c0_system, c0_y, _, _ = spectator_label_case(random.Random("c0-zero"),
                                                 CONSTANT_COEFFICIENTS_C0_ZERO)
    for (system, y), kind in (((system, y), HIGHER_ORDER_NOETHER),
                              ((c0_system, c0_y), CONSTANT_COEFFICIENTS_C0_ZERO)):
        report = classify(SymmetryCandidate("Y", y), system, ClassifyConfig(probes=probes))
        assert (report.label.kind, report.label.order) == (kind, 2)
        [q] = report.conserved
        assert q.trivial and report.to_dict()["conserved_quantities"][0]["trivial"] is True


def test_classify_iso_eigen(iso, probes):
    sf, system = iso
    report = classify(candidate_named(sf, "Y"), system, ClassifyConfig(probes=probes))
    assert report.label.kind == OMEGA_EIGEN_ORDER_N
    assert report.label.order == 2
    assert report.label.constant == "4"
    exprs = [q.expr for q in report.conserved]
    assert parse("p1*p2 + Omega^2*q1*q2", sf.space) in exprs


def test_classify_iso_split_fields(iso, probes):
    sf, system = iso
    sp = sf.space
    for name, partial in (("Y1", "(p1^2 + Omega^2*q1^2)"),
                          ("Y2", "(p2^2 + Omega^2*q2^2)")):
        report = classify(candidate_named(sf, name), system,
                          ClassifyConfig(probes=probes))
        assert report.label.kind == BI_HAMILTONIAN
        assert report.bihamiltonian.is_pair
        exprs = [q.expr for q in report.conserved]
        assert parse("p1*p2 + Omega^2*q1*q2", sp) in exprs
        assert parse(partial, sp) in exprs


def test_classify_bihamiltonian_from_a_c0_zero_dependence(probes):
    # Y = q1 d/dq1 on the squeeze q1*p1 plus an oscillator: L(Y)h = q1*p1
    # != 0 and L^2(Y)omega = L(Y)omega, a constant dependence with C_0 = 0.
    # Every L^j(Y)h is q1*p1, so the chain emits it once.
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    system = make_system(sp, "canonical", parse("q1*p1 + (p2^2 + q2^2)/2", sp))
    y = VectorField(sp, (symexpr.symbol("q1"), symexpr.ZERO, symexpr.ZERO, symexpr.ZERO))
    report = classify(SymmetryCandidate("Y", y), system, ClassifyConfig(probes=probes))
    assert vars(report.label) == vars(Label(BI_HAMILTONIAN))
    certificates = dict(report.branch_certificates)
    assert certificates["dependence"] == "L^2(Y)omega = (0)*L^0(Y)omega + (1)*L^1(Y)omega"
    assert certificates["L^2(Y)h"] == "rational multiple of f_1"
    assert report.bihamiltonian.is_pair
    assert [form_to_string(f) for f in report.bihamiltonian_pair] == [
        "dq1^dp1", "p1*dq1 + q1*dp1"]
    [q] = report.conserved
    assert q.expr == parse("q1*p1", sp) and not q.trivial


def test_bihamiltonian_chain_stops_at_a_parameter_multiple(probes):
    # with Y = k*q1 d/dq1, L^j(Y)h = k^j*q1*p1: after normalization the
    # iterates differ by a power of k, not a rational, so the stop is the
    # quotient's lack of a coordinate symbol
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"], {"k": 2.0})
    system = make_system(sp, "canonical", parse("q1*p1 + (p2^2 + q2^2)/2", sp))
    y = VectorField(sp, (parse("k*q1", sp), symexpr.ZERO, symexpr.ZERO, symexpr.ZERO))
    report = classify(SymmetryCandidate("Y", y), system, ClassifyConfig(probes=probes))
    assert vars(report.label) == vars(Label(BI_HAMILTONIAN))
    assert dict(report.branch_certificates)["L^2(Y)h"] == "constant multiple of f_1 (quotient k)"
    [q] = report.conserved
    assert q.expr == parse("k*q1*p1", sp) and not q.trivial


def test_classify_aniso_geometric(aniso, probes):
    sf, system = aniso
    for name, om in (("Y1", "Omega1"), ("Y2", "Omega2")):
        report = classify(candidate_named(sf, name), system,
                          ClassifyConfig(probes=probes))
        assert report.label.kind == GEOMETRIC_NON_HAMILTONIAN
        assert report.label.constant == om
        [q] = report.conserved
        assert q.trivial
        assert q.expr == parse(om, sf.space)


def test_classify_dynamics_field_is_noether(iso, probes):
    sf, system = iso
    cand = SymmetryCandidate("Xh", system.x_h)
    report = classify(cand, system, ClassifyConfig(probes=probes))
    assert report.label.kind == NOETHER
    [q] = report.conserved
    assert (q.expr - system.h).is_zero_expr


def test_classify_not_a_symmetry(iso, probes):
    sf, system = iso
    y = VectorField(sf.space, (symexpr.symbol("q1"), symexpr.ZERO,
                               symexpr.ZERO, symexpr.ZERO))
    report = classify(SymmetryCandidate("bad", y), system,
                      ClassifyConfig(probes=probes))
    assert report.label.kind == NOT_A_SYMMETRY
    assert not report.conserved


_DEGENERATE_PLANS = {
    "count=0": (symexpr.ProbeConfig, {"count": 0}),
    "count=-3": (symexpr.ProbeConfig, {"count": -3}),
    "count=2.0": (symexpr.ProbeConfig, {"count": 2.0}),
    "tolerance=nan": (symexpr.ProbeConfig, {"tolerance": float("nan")}),
    "tolerance=inf": (symexpr.ProbeConfig, {"tolerance": float("inf")}),
    "tolerance=-1": (symexpr.ProbeConfig, {"tolerance": -1.0}),
    "max_order=-1": (ClassifyConfig, {"max_order": -1}),
    "max_order=1.5": (ClassifyConfig, {"max_order": 1.5}),
}


@pytest.mark.parametrize("case", list(_DEGENERATE_PLANS))
def test_degenerate_plans_are_rejected(case):
    make, kwargs = _DEGENERATE_PLANS[case]
    with pytest.raises(symexpr.ExprError):
        make(**kwargs)


def test_smallest_plans_are_accepted():
    assert symexpr.ProbeConfig(count=1, tolerance=0.0).count == 1
    assert ClassifyConfig(max_order=0).max_order == 0


def test_classify_conformal_branch(probes):
    # radial scaling on the free particle: L(Y)omega = 2 omega exactly
    sp = PhaseSpace(1, ["q", "p"])
    system = make_system(sp, "canonical", parse("p^2/2", sp))
    y = VectorField(sp, (symexpr.symbol("q"), symexpr.symbol("p")))
    report = classify(SymmetryCandidate("scale", y), system,
                      ClassifyConfig(probes=probes))
    assert report.label.kind == "ConformalSymplectic"
    assert report.label.constant == "2"
    [q] = report.conserved
    # f = L(Y)h = p^2 = 2h + 0
    assert (q.expr - parse("p^2", sp)).is_zero_expr


def test_classify_higher_order_noether_branch(probes):
    # free motion in dof 1 with a spectator dof: Y = q2^2 d/dq1 commutes with
    # X_h = p1 d/dq1, leaves h alone, L(Y)omega = 2 q2 dq2^dp1 != 0 and
    # L^2(Y)omega = 0 -- an order-2 invariance whose guaranteed quantity
    # degenerates to a constant
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    system = make_system(sp, "canonical", parse("p1^2/2", sp))
    y = VectorField(sp, (parse("q2^2", sp), symexpr.ZERO,
                         symexpr.ZERO, symexpr.ZERO))
    t1 = lie_derivative_form(y, system.omega_form)
    assert not t1.is_zero_form
    assert lie_derivative_form(y, t1).is_zero_form
    report = classify(SymmetryCandidate("spectator", y), system,
                      ClassifyConfig(probes=probes))
    assert report.label.kind == "HigherOrderNoether"
    assert report.label.order == 2
    [q] = report.conserved
    assert q.trivial  # theta_(1) vanishes, so the potential is constant
    ly = lie_scalar(system.x_h, q.expr)
    assert is_zero(ly, sp, probes).is_zero


def test_classify_inconclusive_for_bundled_Z(iso, probes):
    sf, system = iso
    report = classify(candidate_named(sf, "Z"), system,
                      ClassifyConfig(probes=probes))
    assert report.label.kind == INCONCLUSIVE
    assert report.numeric_branch  # the commutator vanishes only at Omega = 1
    assert (report.bracket.modular, report.bracket.parameter_special) == (True, True)
    assert report.bracket.describe() == (
        "numeric zero (probabilistic): residue 0 mod 2^61-1, "
        "holds only at the declared parameter values, seed 42")
    # no other bundled iso candidate's commutator is special to Omega = 1
    assert not any(classify(c, system, ClassifyConfig(probes=probes)).bracket.parameter_special
                   for c in sf.symmetries if c.name != "Z")


def test_classify_constant_coefficients_with_omega_term(probes):
    # the cyclic field on the 3-dof isotropic oscillator:
    # L^2(Y)omega = 2*omega + L(Y)omega while L(Y)h != 0
    sf = parse_system_text("""\
dof: 3
coordinates: q1 q2 q3 p1 p2 p3
parameter: Omega = 1.0
hamiltonian: (p1^2 + p2^2 + p3^2 + Omega^2*q1^2 + Omega^2*q2^2 + Omega^2*q3^2)/2
symmetry: C = q2 | q3 | q1 | p2 | p3 | p1
""")
    system = make_system(sf.space, sf.symplectic, sf.hamiltonian, probes)
    report = classify(sf.symmetries[0], system, ClassifyConfig(probes=probes)).to_dict()
    assert report["label"] == {"kind": CONSTANT_COEFFICIENTS_C0_NONZERO, "order": 2,
                               "coefficients": ["2", "1"]}
    assert not report["numeric_certificate"]
    symbolic = "symbolic zero (normal form vanishes)"
    assert report["branch_certificates"] == [
        ["commutator", symbolic],
        ["L(Y)h", "nonzero: witness value -5.451139e-01 at (0.7801311379176541, "
                  "-0.05438795633481863, 0.476038613840031, 0.001725720366543726, "
                  "-0.9025365682492705, 0.9398292798397518)"],
        ["L(Y)omega", "nonzero: witness value 1.000000e+00 at (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)"],
        ["L^2(Y)omega", "nonzero: witness value 2.000000e+00 at (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)"],
        ["dependence", "L^2(Y)omega = (2)*L^0(Y)omega + (1)*L^1(Y)omega"],
    ]
    assert report["conserved_quantities"] == [{
        "expression": "Omega^2*q3^2 + Omega^2*q2^2 + Omega^2*q2*q3 + Omega^2*q1^2 "
                      "+ Omega^2*q1*q3 + Omega^2*q1*q2 + p3^2 + p2^2 + p2*p3 + p1^2 "
                      "+ p1*p3 + p1*p2",
        "raw": None,
        "rule": "constant-coefficients-combination",
        "trivial": False,
        "certificate": symbolic,
        "derivation": [["identity",
                        "f = C_0*h + sum_j C_j L^j(Y)h from the dependence relation"]],
    }]


@pytest.mark.parametrize("component, coefficient, quantity", [
    ("p^2/2", "p", "p"), ("p^3", "3*p^2", "p^2")])
def test_function_coefficients_while_h_moves(component, coefficient, quantity, probes):
    # h = p, Y = g(p) d/dp: L(Y)h = g(p) != 0 and L(Y)omega = g'(p)*omega.
    # Applying L(X_h) to the relation shows g'(p) conserved whatever L(Y)h is.
    sf = parse_system_text(f"dof: 1\ncoordinates: q p\nhamiltonian: p\n"
                           f"symmetry: Y = 0 | {component}\n")
    system = make_system(sf.space, sf.symplectic, sf.hamiltonian, probes)
    report = classify(sf.symmetries[0], system, ClassifyConfig(probes=probes))
    assert vars(report.label) == vars(Label(FUNCTION_COEFFICIENTS, order=1,
                                            coefficients=(coefficient,)))
    assert not dict(report.branch_certificates)["L(Y)h"].startswith("symbolic zero")
    [q] = report.conserved
    assert (q.printable, q.rule, q.trivial) == (quantity, "function-coefficient", False)
    assert q.certificate.is_zero


def test_constant_dependence_on_a_constant_h_is_a_trivial_combination(probes):
    # L(Y)h = 0 and L(Y)omega = 2*omega: i(X_h) of the relation gives 2*dh = 0,
    # so h is constant and the combination C_0*h + sum_j C_j L^j(Y)h is 2*h
    sf = parse_system_text("dof: 1\ncoordinates: q p\nhamiltonian: 3\n"
                           "symmetry: D = q | p\n")
    system = make_system(sf.space, sf.symplectic, sf.hamiltonian, probes)
    report = classify(sf.symmetries[0], system, ClassifyConfig(probes=probes)).to_dict()
    assert report["label"] == {"kind": CONSTANT_COEFFICIENTS_C0_NONZERO, "order": 1,
                               "coefficients": ["2"]}
    [q] = report["conserved_quantities"]
    assert (q["expression"], q["raw"], q["rule"], q["trivial"]) == (
        "1", "6", "constant-coefficients-combination", True)


def test_dependence_builds_no_walker_in_the_exact_class(probes, monkeypatch):
    # every entry is in the exact class, so the screen reads them modulo P:
    # no walker is built, and the one zero test is the verification of the
    # solved relation, whose residual is a symbolic zero
    system, y, coefficients, _ = spectator_label_case(random.Random("walkers"),
                                                      FUNCTION_COEFFICIENTS)
    tower = _ThetaTower(y, system)
    forms = [tower.lomega(j) for j in range(3)]
    built, verified = [], []
    monkeypatch.setattr(symexpr, "interpret", lambda e, space: built.append(e))
    monkeypatch.setattr(classifier_module, "form_is_zero",
                        lambda *args: verified.append(form_is_zero(*args)) or verified[-1])
    dep = detect_dependence(forms[:2], forms[2], system, ClassifyConfig(probes=probes))
    assert (dep.status, dep.coefficients) == ("dependent", coefficients)
    assert built == []
    assert [v.kind for v in verified] == [symexpr.SYMBOLIC_ZERO]


def test_dependence_builds_no_walker_for_a_constant_entry(probes, monkeypatch):
    # outside the exact class (a root in omega's coefficient) the elimination
    # runs: its zero tests read a rational constant entry with no walk, and
    # walk only the other entries
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    system = make_system(sp, "canonical", parse("(p1^2 + p2^2)/2", sp))
    f1 = KForm(sp, 2, {(0, 2): parse("sqrt(2 + q1^2)", sp), (1, 3): symexpr.ONE})
    target = f1.scale(symexpr.rational(3))
    built = []
    real = symexpr.interpret
    monkeypatch.setattr(symexpr, "interpret", lambda e, space: built.append(e) or real(e, space))
    dep = detect_dependence([f1], target, system, ClassifyConfig(probes=probes))
    assert [c.rational_value for c in dep.coefficients] == [3]
    assert "sqrt(q1^2 + 2)" in set(map(str, built))
    assert not any(e.is_rational for e in built)  # the (1, 3) row is [1 | 3]


_WALK = ["commutator", "L(Y)h", "L(Y)omega"]
_BIHAM = {"kind": BI_HAMILTONIAN}
_NOETHER_ISO = {
    "Xh1": ({"kind": NOETHER}, False, _WALK,
            [("noether-potential", "1/2*Omega^2*q1^2 + 1/2*p1^2")]),
    "Xh2": ({"kind": NOETHER}, False, _WALK,
            [("noether-potential", "1/2*Omega^2*q2^2 + 1/2*p2^2")]),
}
_CHAIN = "bi-hamiltonian-chain"


@pytest.mark.parametrize("max_order, expected", [
    (0, {
        **{name: (_BIHAM, False, _WALK + ["bihamiltonian-pair"], [])
           for name in ("Y", "Y1", "Y2", "Z1", "Z2")},
        **_NOETHER_ISO,
        "Z": ({"kind": INCONCLUSIVE, "order": 0,
               "reason": "no closure or dependence within max order 0"}, True, _WALK, []),
    }),
    (1, {
        **{name: (_BIHAM, False, _WALK + ["L^2(Y)omega", "bihamiltonian-pair"],
                  [(_CHAIN, "Omega^2*q1*q2 + p1*p2")]) for name in ("Y", "Y1", "Y2")},
        **_NOETHER_ISO,
        "Z1": (_BIHAM, False, _WALK + ["L^2(Y)omega", "bihamiltonian-pair"],
               [(_CHAIN, "Omega^4*q1*q2^3 + Omega^2*p2^2*q1*q2 + Omega^2*p1*p2*q2^2 + p1*p2^3")]),
        "Z2": (_BIHAM, False, _WALK + ["L^2(Y)omega", "bihamiltonian-pair"],
               [(_CHAIN, "Omega^4*q1^3*q2 + Omega^2*p1^2*q1*q2 + Omega^2*p1*p2*q1^2 + p1^3*p2")]),
        "Z": ({"kind": INCONCLUSIVE, "order": 1,
               "reason": "no closure or dependence within max order 1"},
              True, _WALK + ["L^2(Y)omega"], []),
    }),
])
def test_classify_iso_at_low_max_order(iso, probes, max_order, expected):
    # closure is tested one order beyond max_order, dependence up to it
    sf, system = iso
    config = ClassifyConfig(max_order=max_order, probes=probes)
    got = {}
    for cand in sf.symmetries:
        r = classify(cand, system, config).to_dict()
        got[cand.name] = (r["label"], r["numeric_certificate"],
                          [stage for stage, _ in r["branch_certificates"]],
                          [(q["rule"], q["expression"]) for q in r["conserved_quantities"]])
    assert got == expected


BENCH = Path(__file__).resolve().parent.parent / "bench"
_OMEGA_STAGE = re.compile(r"L(\^\d+)?\(Y\)omega")


def _walked_tower_inputs():
    """System files with candidates: the bundled ones, the deep golden ones,
    and the smoke-size classify-deep and classify-many benchmark inputs."""
    texts = list(BUNDLED_EXAMPLES.values()) + list(DEEP_GOLDEN_SYSTEMS.values())
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    for workload in (workloads.CLASSIFY_DEEP, workloads.CLASSIFY_MANY):
        inputs = workloads.generate(workload, 1, workloads.SMOKE, ClassifyConfig())
        texts += inputs.texts()
    return texts


@pytest.mark.parametrize("max_order", [0, 1, 2, 6])
def test_theta_forms_are_the_walked_tower(probes, max_order):
    # theta_(j) for j < N, N the highest order whose L^N(Y)omega the walk
    # tested: one level per omega stage, none for a non-symmetry
    config = ClassifyConfig(max_order=max_order, probes=probes)
    for text in _walked_tower_inputs():
        sf = parse_system_text(text)
        system = make_system(sf.space, sf.symplectic, sf.hamiltonian, probes)
        for cand in sf.symmetries:
            r = classify(cand, system, config).to_dict()
            n = sum(bool(_OMEGA_STAGE.fullmatch(stage)) for stage, _ in r["branch_certificates"])
            tower = _ThetaTower(cand.field, system)
            assert r["theta_forms"] == [
                f"theta_({j}) = {form_to_string(tower.theta(j))}" for j in range(n)
            ], (sf.name, cand.name)


def test_numeric_chain_stop_marks_the_report(probes):
    # L(Y)h = sin(2q) - 2 sin(q) cos(q) vanishes, but only probing sees it
    sp = PhaseSpace(1, ["q", "p"])
    system = make_system(sp, "canonical", parse("p^2/2 + q", sp))
    y = VectorField(sp, (parse("sin(2*q) - 2*sin(q)*cos(q)", sp), symexpr.ZERO))
    report = ClassificationReport("Y", Label(BI_HAMILTONIAN), bracket=None)
    _chain_quantities(report, system, _ThetaTower(y, system),
                      ClassifyConfig(probes=probes), _CHAIN, 3)
    assert report.conserved == []
    [(stage, detail)] = report.branch_certificates
    assert stage == "L^1(Y)h" and detail.startswith("numeric zero")
    assert report.numeric_branch


def test_roundoff_above_the_tolerance_does_not_hide_a_symmetry():
    # Xh_hidden is X_h plus 1e12 times a trig identity the fold misses; float
    # cancellation leaves about 1e-4 of roundoff in its commutator, far above
    # the tolerance, and the residue reads the commutator as zero
    sf = parse_system_text("""\
dof: 1
coordinates: q p
hamiltonian: p^2/2 + cos(q)
symmetry: Xh = p | sin(q)
symmetry: Xh_hidden = p + 1e12*(sin(q)^4 - cos(q)^4 - sin(q)^2 + cos(q)^2) | sin(q)
""")
    system = make_system(sf.space, sf.symplectic, sf.hamiltonian)
    plain, hidden = (classify(cand, system) for cand in sf.symmetries)
    assert plain.label.kind == hidden.label.kind == NOETHER
    assert hidden.bracket.modular and not hidden.bracket.parameter_special
    assert hidden.bracket.describe() == \
        "numeric zero (probabilistic): residue 0 mod 2^61-1, seed 42"


@pytest.mark.parametrize("family", list(SPECTATOR_FAMILIES))
@pytest.mark.parametrize("seed", range(3))
def test_spectator_labels_by_construction(probes, family, seed):
    rng = random.Random(f"{family}:{seed}")
    system, y, coefficients, quantity = spectator_label_case(rng, family)
    sp = system.space
    report = classify(SymmetryCandidate("Y", y), system, ClassifyConfig(probes=probes))
    assert vars(report.label) == vars(Label(SPECTATOR_FAMILIES[family], order=2,
                                            coefficients=tuple(map(str, coefficients))))
    [q] = report.conserved
    if quantity is None:
        assert q.trivial
        assert is_constant(q.expr, sp, probes).is_constant
        # d of the combination form is the certified dependence residual
        assert dict(report.branch_certificates)["gamma-closed"] == \
            "symbolic zero (normal form vanishes)"
    else:
        assert not q.trivial
        scale = symexpr.rational(rational_content(q.expr) / rational_content(quantity))
        assert is_constant(q.expr - scale * quantity, sp, probes).is_constant
    x0 = [rng.uniform(-1.0, 1.0) for _ in sp.coords]
    traj = integrate(system, x0, 1.0, 1e-2, "rk4")
    assert not traj.truncated
    assert check_conserved(q.expr, traj, sp).max_abs_drift < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_conformal_labels_by_construction(probes, seed):
    rng = random.Random(f"conformal:{seed}")
    system, y, c, h = conformal_case(rng)
    sp = system.space
    report = classify(SymmetryCandidate("Y", y), system, ClassifyConfig(probes=probes))
    assert report.label.describe() == f"ConformalSymplectic(c={c})"
    # the quantity is L(Y)h = c*h, normalized: a rational multiple of h
    [q] = report.conserved
    scale = symexpr.rational(rational_content(q.expr) / rational_content(h))
    assert is_constant(q.expr - scale * h, sp, probes).is_constant
    x0 = [rng.uniform(-1.0, 1.0) for _ in sp.coords]
    traj = integrate(system, x0, 1.0, 1e-3, "rk4")
    assert not traj.truncated
    assert check_conserved(q.expr, traj, sp).max_rel_drift < 1e-9


def test_classify_deterministic_reports(iso, probes):
    sf, system = iso
    cand = candidate_named(sf, "Y1")
    r1 = classify(cand, system, ClassifyConfig(probes=probes)).to_dict()
    r2 = classify(cand, system, ClassifyConfig(probes=probes)).to_dict()
    assert r1 == r2


# -- new quantities from the symmetry action -----------------------------------------

def test_action_produces_partial_energy(iso):
    sf, system = iso
    sp = sf.space
    f = parse("p1*p2 + Omega^2*q1*q2", sp)
    assert lie_scalar(field_of(sf, "Y1"), f) == parse("p1^2 + Omega^2*q1^2", sp)


# -- brackets of symmetries ------------------------------------------------------------

def test_bracket_of_partial_flows_vanishes(iso):
    sf, system = iso
    assert lie_bracket(field_of(sf, "Xh1"), field_of(sf, "Xh2")).is_zero_field


def test_bracket_with_self_vanishes(iso):
    sf, system = iso
    y = field_of(sf, "Y")
    assert lie_bracket(y, y).is_zero_field


def test_bracket_of_split_fields_is_symmetry(iso, probes):
    sf, system = iso
    z = lie_bracket(field_of(sf, "Y1"), field_of(sf, "Y2"))
    assert is_infinitesimal_symmetry(z, system, probes).is_zero
    assert not z.is_zero_field


def test_noether_brackets_stay_noether(iso, probes):
    sf, system = iso
    rot = hamiltonian_field_for(system, parse("q1*p2 - q2*p1", sf.space), probes)
    cand = SymmetryCandidate("bracket", lie_bracket(field_of(sf, "Xh1"), rot))
    report = classify(cand, system, ClassifyConfig(probes=probes))
    assert report.label.kind == NOETHER


# -- randomized soundness ----------------------------------------------------------------

def test_planted_noether_symmetries_are_sound(probes):
    rng = random.Random(101)
    sp = PhaseSpace(2, ["q1", "q2", "p1", "p2"])
    h1 = parse("(p1^2 + q1^2)/2", sp)
    h2 = parse("(p2^2 + q2^2)/2", sp)
    for _ in range(10):
        a, b, c, d = (Fraction(rng.randint(1, 4), rng.choice((1, 2)))
                      for _ in range(4))
        h = (symexpr.rational(a) * h1 + symexpr.rational(b) * h2
             + symexpr.rational(c) * h1 * h2 + symexpr.rational(d) * h1 * h1)
        system = make_system(sp, "canonical", h)
        planted = hamiltonian_field_for(system, h1, probes)
        report = classify(SymmetryCandidate("planted", planted), system,
                          ClassifyConfig(probes=probes))
        assert report.label.kind == NOETHER
        for q in report.conserved:
            if q.is_symbolic:
                v = is_zero(lie_scalar(system.x_h, q.expr), sp, probes)
                assert v.is_zero


def test_rational_corpus_reports_match_golden():
    # seeded random fields, Hamiltonian fields of rational combinations of
    # known invariants and rationally scaled bundled candidates on the three
    # bundled systems; the golden pins every structured report byte for byte
    golden = Path(__file__).parent / "golden" / "rational_corpus.classify.json"
    assert rational_corpus_json() == golden.read_text(encoding="utf-8")
