import random
from fractions import Fraction

import pytest

from hamsym import symexpr
from hamsym.classifier import (
    BI_HAMILTONIAN,
    CONSTANT_COEFFICIENTS_C0_NONZERO,
    GEOMETRIC_NON_HAMILTONIAN,
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
    classify,
    conserved_via_potential,
    detect_dependence,
    generate_from_conserved,
    is_infinitesimal_symmetry,
    new_conserved_via_action,
    symmetry_bracket,
    theta_form,
)
from hamsym.exterior import (
    KForm,
    VectorField,
    exterior_derivative,
    form_is_zero,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    lie_scalar,
)
from hamsym.hamiltonian import hamiltonian_field_for, liouville_form, make_system
from hamsym.symexpr import PhaseSpace, is_constant, is_zero, parse
from hamsym.systemio import parse_system_text

from conftest import candidate_named


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


# -- theta tower ----------------------------------------------------------------

def test_theta_zero_pendulum(pendulum):
    sf, system = pendulum
    theta0 = theta_form(field_of(sf, "Y_rot"), system, 0)
    assert theta0 == KForm(sf.space, 1, {(3,): symexpr.ONE})


def test_theta_one_iso(iso, probes):
    sf, system = iso
    y = field_of(sf, "Y")
    theta1 = theta_form(y, system, 1)
    d_theta1 = exterior_derivative(theta1)
    l2 = lie_derivative_form(y, lie_derivative_form(y, system.omega_form))
    assert form_is_zero(d_theta1 - l2, probes).kind == symexpr.SYMBOLIC_ZERO
    assert form_is_zero(l2 - system.omega_form.scale(symexpr.rational(4)),
                        probes).kind == symexpr.SYMBOLIC_ZERO


def test_theta_zero_field(iso):
    sf, system = iso
    zero = VectorField(sf.space, tuple([symexpr.ZERO] * 4))
    assert theta_form(zero, system, 0).is_zero_form
    assert theta_form(zero, system, 3).is_zero_form


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
        assert tower.lomega(j) == lomega
        assert tower.theta(j) == theta
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
    assert dep.all_constant
    assert dep.constants == [Fraction(4), Fraction(0)]


def test_dependence_constant_relation_builds_no_h_chain(iso, probes):
    sf, system = iso
    tower = _ThetaTower(field_of(sf, "Y"), system)
    dep = detect_dependence([tower.lomega(0), tower.lomega(1)], tower.lomega(2),
                            system, ClassifyConfig(probes=probes), tower)
    assert dep.status == "dependent"
    assert dep.constants == [Fraction(4), Fraction(0)]
    # constant coefficients never reach the library, so L^j(Y)h stays unbuilt
    assert max(tower._lh) < 2


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
    assert dep.constants == [Fraction(0)] * 3


def test_dependence_trivial_first_form(iso, probes):
    sf, system = iso
    config = ClassifyConfig(probes=probes)
    dep = detect_dependence([system.omega_form], system.omega_form, system, config)
    assert dep.status == "dependent"
    assert dep.constants == [Fraction(1)]


def test_dependence_independent(iso, probes):
    sf, system = iso
    y = field_of(sf, "Y")
    t1 = lie_derivative_form(y, system.omega_form)
    config = ClassifyConfig(probes=probes)
    dep = detect_dependence([system.omega_form], t1, system, config)
    assert dep.status == "independent"


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
        assert len(r["theta_forms"]) == max_order
    assert got == expected


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


def test_classify_deterministic_reports(iso, probes):
    sf, system = iso
    cand = candidate_named(sf, "Y1")
    r1 = classify(cand, system, ClassifyConfig(probes=probes)).to_dict()
    r2 = classify(cand, system, ClassifyConfig(probes=probes)).to_dict()
    assert r1 == r2


# -- alternate potential route -----------------------------------------------------

def _primitive_of_omega(space):
    # theta = -sum p_i dq^i has d(theta) = sum dq^i wedge dp_i
    return liouville_form(space).scale(symexpr.MINUS_ONE)


def test_conserved_via_potential_pendulum(pendulum, probes):
    sf, system = pendulum
    theta = _primitive_of_omega(sf.space)
    f = conserved_via_potential(field_of(sf, "Y_rot"), system, theta, probes)
    assert (f - parse("p_phi", sf.space)).is_zero_expr


def test_conserved_via_potential_dynamics_field(iso, probes):
    sf, system = iso
    theta = _primitive_of_omega(sf.space)
    f = conserved_via_potential(system.x_h, system, theta, probes)
    diff = is_constant(f - system.h, sf.space, probes)
    assert diff.is_constant


def test_conserved_via_potential_partial_energy(iso, probes):
    sf, system = iso
    theta = _primitive_of_omega(sf.space)
    y = field_of(sf, "Xh1")
    f = conserved_via_potential(y, system, theta, probes)
    diff = is_constant(f - parse("(p1^2 + Omega^2*q1^2)/2", sf.space),
                       sf.space, probes)
    assert diff.is_constant


def test_conserved_via_potential_rejects_bad_primitive(pendulum, probes):
    sf, system = pendulum
    with pytest.raises(symexpr.ExprError):
        conserved_via_potential(field_of(sf, "Y_rot"), system,
                                liouville_form(sf.space), probes)


def test_conserved_via_potential_rejects_nongeometric(iso, probes):
    sf, system = iso
    theta = _primitive_of_omega(sf.space)
    with pytest.raises(symexpr.ExprError):
        conserved_via_potential(field_of(sf, "Y"), system, theta, probes)


# -- inverse construction -----------------------------------------------------------

def test_generate_from_momentum(pendulum, probes):
    sf, system = pendulum
    cand = generate_from_conserved(parse("p_phi", sf.space), system, probes)
    assert cand.field.components == (symexpr.ZERO, symexpr.ONE,
                                     symexpr.ZERO, symexpr.ZERO)


def test_generate_from_energy(iso, probes):
    sf, system = iso
    cand = generate_from_conserved(system.h, system, probes)
    diff = cand.field - system.x_h
    assert all(c.is_zero_expr for c in diff.components)


def test_generate_from_partial_energy(iso, probes):
    sf, system = iso
    sp = sf.space
    cand = generate_from_conserved(parse("(p1^2 + Omega^2*q1^2)/2", sp),
                                   system, probes)
    assert list(cand.field.components) == [
        parse("p1", sp), symexpr.ZERO, parse("-Omega^2*q1", sp), symexpr.ZERO]


def test_generate_rejects_nonconserved(iso, probes):
    sf, system = iso
    with pytest.raises(symexpr.ExprError):
        generate_from_conserved(symexpr.symbol("q1"), system, probes)


# -- new quantities from the symmetry action -----------------------------------------

def test_action_on_own_noether_quantity_is_trivial(pendulum, probes):
    sf, system = pendulum
    out = new_conserved_via_action(field_of(sf, "Y_rot"),
                                   parse("p_phi", sf.space), system, probes)
    assert out is None


def test_action_produces_partial_energy(iso, probes):
    sf, system = iso
    sp = sf.space
    f = parse("p1*p2 + Omega^2*q1*q2", sp)
    out = new_conserved_via_action(field_of(sf, "Y1"), f, system, probes)
    assert out == parse("p1^2 + Omega^2*q1^2", sp)


def test_action_on_constant_is_trivial(iso, probes):
    sf, system = iso
    out = new_conserved_via_action(field_of(sf, "Y1"),
                                   parse("Omega^2", sf.space), system, probes)
    assert out is None


# -- brackets of symmetries ------------------------------------------------------------

def test_bracket_of_partial_flows_vanishes(iso, probes):
    sf, system = iso
    cand = symmetry_bracket(field_of(sf, "Xh1"), field_of(sf, "Xh2"),
                            system, probes)
    assert cand.field.is_zero_field


def test_bracket_with_self_vanishes(iso, probes):
    sf, system = iso
    y = field_of(sf, "Y")
    cand = symmetry_bracket(y, y, system, probes)
    assert cand.field.is_zero_field


def test_bracket_of_split_fields_is_symmetry(iso, probes):
    sf, system = iso
    cand = symmetry_bracket(field_of(sf, "Y1"), field_of(sf, "Y2"),
                            system, probes)
    v = is_infinitesimal_symmetry(cand.field, system, probes)
    assert v.is_zero
    assert not cand.field.is_zero_field


def test_bracket_rejects_nonsymmetry(iso, probes):
    sf, system = iso
    y = VectorField(sf.space, (symexpr.symbol("q1"), symexpr.ZERO,
                               symexpr.ZERO, symexpr.ZERO))
    with pytest.raises(symexpr.ExprError):
        symmetry_bracket(y, field_of(sf, "Y"), system, probes)


def test_noether_brackets_stay_noether(iso, probes):
    sf, system = iso
    rot = hamiltonian_field_for(system, parse("q1*p2 - q2*p1", sf.space), probes)
    cand = symmetry_bracket(field_of(sf, "Xh1"), rot, system, probes)
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
