"""Acceptance gate: every shipped claim at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s or in the
captured output on failure).  Tolerances are pinned here, not configured.
"""

import json
import random
import time

import pytest

from hamsym import symexpr
from hamsym.classifier import (
    BI_HAMILTONIAN,
    GEOMETRIC_NON_HAMILTONIAN,
    NOETHER,
    OMEGA_EIGEN_ORDER_N,
    ClassifyConfig,
    _ThetaTower,
    classify,
)
from hamsym.cli import main
from hamsym.exterior import (
    exterior_derivative,
    form_is_zero,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    lie_scalar,
    scalar_form,
    wedge,
)
from hamsym.hamiltonian import hamiltonian_field_for
from hamsym.symexpr import is_constant, is_zero, parse
from hamsym.verify import check_conserved, integrate

from conftest import candidate_named
from genutil import random_field, random_form, random_poly, small_space


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


# -- criterion 1: spherical pendulum -------------------------------------------

def test_criterion_1_pendulum(pendulum, probes):
    start = time.monotonic()
    sf, system = pendulum
    report = classify(candidate_named(sf, "Y_rot"), system,
                      ClassifyConfig(probes=probes))
    label_ok = report.label.kind == NOETHER
    [q] = report.conserved
    exact_ok = q.expr == parse("p_phi", sf.space)
    traj = integrate(system, (0.3, 0.0, 0.0, 0.5), 10.0, 1e-3, "rk4")
    drift = check_conserved(q.expr, traj, sf.space).max_rel_drift
    elapsed = time.monotonic() - start
    _report(1, "pendulum rotation is Noether with conserved p_phi",
            label_ok and exact_ok and drift < 1e-6 and elapsed < 5.0,
            f"drift {drift:.2e}, {elapsed:.2f}s")


# -- criterion 2: anisotropic oscillator ----------------------------------------

def test_criterion_2_aniso(aniso, probes):
    start = time.monotonic()
    sf, system = aniso
    ok = True
    details = []
    for name, om_name in (("Y1", "Omega1"), ("Y2", "Omega2")):
        cand = candidate_named(sf, name)
        report = classify(cand, system, ClassifyConfig(probes=probes))
        ok &= report.label.kind == GEOMETRIC_NON_HAMILTONIAN
        lyw = lie_derivative_form(cand.field, system.omega_form)
        ok &= form_is_zero(lyw, probes).kind == symexpr.SYMBOLIC_ZERO
        lyh = lie_scalar(cand.field, system.h)
        cv = is_constant(lyh, sf.space, probes)
        # Y_i(h) is convention-free and computes to +Omega_i; the sometimes
        # quoted -Omega_i is not reachable from the declared field
        ok &= cv.is_constant and cv.value == parse(om_name, sf.space)
        [q] = report.conserved
        ok &= q.trivial
        details.append(f"{name}: L(Y)h = {cv.value}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    _report(2, "anisotropic fields are geometric with trivial constants",
            ok, "; ".join(details) + f", {elapsed:.2f}s")


# -- criterion 3: isotropic oscillator -------------------------------------------

def test_criterion_3_iso(iso, probes):
    start = time.monotonic()
    sf, system = iso
    sp = sf.space
    config = ClassifyConfig(probes=probes)
    f_expr = parse("p1*p2 + Omega^2*q1*q2", sp)
    traj = integrate(system, (1.0, 0.5, -0.3, 0.8), 10.0, 1e-3, "rk4")

    # (a) the coupling field
    y = candidate_named(sf, "Y")
    rep_y = classify(y, system, config)
    ok_a = (rep_y.label.kind == OMEGA_EIGEN_ORDER_N
            and rep_y.label.order == 2 and rep_y.label.constant == "4")
    ok_a &= any(q.expr == f_expr for q in rep_y.conserved)
    drift_f = check_conserved(f_expr, traj, sp).max_rel_drift
    ok_a &= drift_f < 1e-6
    l2h = lie_scalar(y.field, lie_scalar(y.field, system.h))
    ok_a &= (l2h - symexpr.rational(4) * system.h).is_zero_expr

    # (b) the split fields and their chains
    y1 = candidate_named(sf, "Y1")
    rep_1 = classify(y1, system, config)
    ok_b = rep_1.label.kind == BI_HAMILTONIAN
    lh1 = lie_scalar(y1.field, system.h)
    lh2 = lie_scalar(y1.field, lh1)
    lh3 = lie_scalar(y1.field, lh2)
    h1 = parse("(p1^2 + Omega^2*q1^2)/2", sp)
    h2 = parse("(p2^2 + Omega^2*q2^2)/2", sp)
    ok_b &= (lh1 - f_expr).is_zero_expr
    ok_b &= (lh2 - symexpr.rational(2) * h1).is_zero_expr
    ok_b &= lh3.is_zero_expr
    t3 = lie_derivative_form(
        y1.field, lie_derivative_form(
            y1.field, lie_derivative_form(y1.field, system.omega_form)))
    ok_b &= form_is_zero(t3, probes).is_zero
    for quantity in (f_expr, h1, h2):
        ok_b &= check_conserved(quantity, traj, sp).max_rel_drift < 1e-6

    # (c) inverse construction from the partial energy
    expected = [parse("p1", sp), symexpr.ZERO,
                parse("-Omega^2*q1", sp), symexpr.ZERO]
    ok_c = list(hamiltonian_field_for(system, h1).components) == expected

    elapsed = time.monotonic() - start
    _report(3, "isotropic oscillator: eigen order, chains, inverse construction",
            ok_a and ok_b and ok_c and elapsed < 10.0,
            f"drift(f) {drift_f:.2e}, {elapsed:.2f}s")


# -- criterion 4: exterior-calculus property suite --------------------------------

def test_criterion_4_exterior_properties():
    start = time.monotonic()
    space = small_space(2)
    rng = random.Random(2024)
    failures = 0

    for _ in range(200):  # d(d(a)) = 0
        a = random_form(rng, space, rng.choice((0, 1, 2)), trig=True)
        dda = exterior_derivative(exterior_derivative(a))
        failures += not all(e.is_zero_expr for e in dda.coeffs.values())

    for _ in range(200):  # degree-0 Cartan consistency
        x = random_field(rng, space, degree=1, trig=True)
        f = random_poly(rng, space, trig=True)
        lhs = lie_derivative_form(x, scalar_form(space, f)).coeff(())
        rhs = interior_product(x, exterior_derivative(scalar_form(space, f))).coeff(())
        failures += not (lhs - rhs).is_zero_expr

    for _ in range(200):  # Jacobi identity
        x = random_field(rng, space, degree=1)
        y = random_field(rng, space, degree=1)
        z = random_field(rng, space, degree=1)
        jac = tuple(
            a + b + c for a, b, c in zip(
                lie_bracket(lie_bracket(x, y), z).components,
                lie_bracket(lie_bracket(y, z), x).components,
                lie_bracket(lie_bracket(z, x), y).components,
            ))
        failures += not all(comp.is_zero_expr for comp in jac)

    for _ in range(200):  # graded antisymmetry of the wedge
        da = rng.choice((1, 2))
        db = rng.choice((1, 2))
        a = random_form(rng, space, da, coeff_degree=1)
        b = random_form(rng, space, db, coeff_degree=1)
        sign = symexpr.rational((-1) ** (da * db))
        resid = wedge(a, b) - wedge(b, a).scale(sign)
        failures += not all(e.is_zero_expr for e in resid.coeffs.values())

    elapsed = time.monotonic() - start
    _report(4, "exterior property suite, 200 instances each",
            failures == 0 and elapsed < 60.0,
            f"{failures} failures, {elapsed:.1f}s")


# -- criterion 5: the theta-form hierarchy ------------------------------------------

def test_criterion_5_theta_hierarchy(pendulum, aniso, iso, probes):
    checked = 0
    bad = []
    for sf, system in (pendulum, aniso, iso):
        for cand in sf.symmetries:
            y = cand.field
            bracket = lie_bracket(y, system.x_h)
            if not all(is_zero(c, sf.space, probes).is_zero
                       for c in bracket.components):
                continue
            tower = _ThetaTower(y, system)
            thetas = [tower.theta(j) for j in range(5)]
            lomegas = [system.omega_form]
            for _ in range(4):
                lomegas.append(lie_derivative_form(y, lomegas[-1]))
            lhs = [system.h]
            for _ in range(4):
                lhs.append(lie_scalar(y, lhs[-1]))
            for j in range(4):
                pair = f"{sf.name}/{cand.name}/j={j}"
                # contraction with the generator vanishes
                if thetas[j].degree == 1:
                    v = is_zero(interior_product(y, thetas[j]).coeff(()),
                                sf.space, probes)
                    if not v.is_zero:
                        bad.append(pair + " i(Y)theta")
                # one more action equals the next level
                step = lie_derivative_form(y, thetas[j])
                if not form_is_zero(step - thetas[j + 1], probes).is_zero:
                    bad.append(pair + " L(Y)theta")
                # contraction of the differential equals the next level
                via_d = interior_product(y, exterior_derivative(thetas[j]))
                if not form_is_zero(via_d - thetas[j + 1], probes).is_zero:
                    bad.append(pair + " i(Y)d theta")
                # the differential climbs the omega tower
                if not form_is_zero(exterior_derivative(thetas[j]) - lomegas[j + 1],
                                    probes).is_zero:
                    bad.append(pair + " d theta")
                # invariance along the dynamics
                if not form_is_zero(lie_derivative_form(system.x_h, thetas[j]),
                                    probes).is_zero:
                    bad.append(pair + " L(X)theta")
                # contraction with the dynamics gives the h-chain
                ixt = interior_product(system.x_h, thetas[j]).coeff(())
                if not is_zero(ixt + lhs[j + 1], sf.space, probes).is_zero:
                    bad.append(pair + " i(X)theta")
                # and its differential version
                dlh = exterior_derivative(scalar_form(sf.space, lhs[j + 1]))
                ixd = interior_product(system.x_h, exterior_derivative(thetas[j]))
                if not form_is_zero(ixd - dlh, probes).is_zero:
                    bad.append(pair + " i(X)d theta")
                checked += 1
    _report(5, "theta hierarchy identities for all bundled symmetric pairs",
            checked >= 30 and not bad,
            f"{checked} (pair, level) combinations" + (f"; bad: {bad}" if bad else ""))


# -- criterion 6: inverse round-trip and the soundness gate ---------------------------

def test_criterion_6_soundness_gate(pendulum, aniso, iso, probes):
    config = ClassifyConfig(probes=probes)
    emitted = 0
    round_trips = 0
    ok = True
    for sf, system in (pendulum, aniso, iso):
        for cand in sf.symmetries:
            report = classify(cand, system, config)
            for q in report.conserved:
                if not q.is_symbolic:
                    continue
                emitted += 1
                v = is_zero(lie_scalar(system.x_h, q.expr), sf.space, probes)
                ok &= v.is_zero
            if report.label.kind == NOETHER:
                [q] = report.conserved
                diff = hamiltonian_field_for(system, q.expr) - cand.field
                ok &= all(c.is_zero_expr for c in diff.components)
                round_trips += 1
    _report(6, "conservation soundness gate and Noether round-trips",
            ok and emitted >= 10 and round_trips >= 3,
            f"{emitted} quantities, {round_trips} round-trips")


# -- criterion 7: integrator orders ----------------------------------------------------

def test_criterion_7_integrators(iso):
    sf, system = iso
    x0 = (1.0, 0.0, 0.0, 1.0)
    # dt chosen inside the clean convergence regime: at the verification step
    # size the quartic-order energy drift would drown in accumulated roundoff
    d1 = check_conserved(system.h, integrate(system, x0, 10.0, 0.2, "rk4"),
                         sf.space).max_rel_drift
    d2 = check_conserved(system.h, integrate(system, x0, 10.0, 0.1, "rk4"),
                         sf.space).max_rel_drift
    ratio = d1 / d2
    mid = check_conserved(
        system.h, integrate(system, x0, 100.0, 1e-2, "implicit_midpoint"),
        sf.space).max_rel_drift
    _report(7, "rk4 halving ratio in [8, 32]; midpoint drift < 1e-10",
            8.0 <= ratio <= 32.0 and mid < 1e-10,
            f"ratio {ratio:.2f}, midpoint drift {mid:.2e}")


# -- criterion 8: determinism ------------------------------------------------------------

def test_criterion_8_determinism(tmp_path, capsys):
    target = tmp_path / "examples"
    assert main(["examples", "--install", str(target)]) == 0
    capsys.readouterr()
    ok = True
    for fname in ("pendulum.sys", "aniso_oscillator.sys", "iso_oscillator.sys"):
        outputs = []
        for _ in range(2):
            code = main(["classify", str(target / fname),
                         "--seed", "42", "--format", "structured"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        ok &= outputs[0] == outputs[1]
        ok &= json.loads(outputs[0])["seed"] == 42
    _report(8, "structured classify output is byte-identical across runs", ok)
