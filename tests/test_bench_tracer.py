"""The benchmark's span tracer binds hamsym's public functions by name.

Installing it fails when a traced function is renamed or deleted, so such a
change shows in this suite and not only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

from conftest import candidate_named

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _spans():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return spans


def test_tracer_installs_and_uninstalls():
    spans = _spans()
    from hamsym import exterior, symexpr

    originals = (exterior.lie_scalar, symexpr.is_zero, symexpr.ProbeConfig.points)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert exterior.lie_scalar.__wrapped__ is originals[0]
        assert symexpr.is_zero.__wrapped__ is originals[1]
    finally:
        tracer.uninstall()
    assert (exterior.lie_scalar, symexpr.is_zero, symexpr.ProbeConfig.points) == originals


def test_tracer_sees_direct_potential_calls(pendulum):
    """Calls of poincare_potential are counted, numeric fallbacks included:
    the two direct ones and the one classify makes for Y_rot's potential."""
    from hamsym import classifier, hamiltonian, symexpr
    from hamsym.exterior import KForm

    sf, system = pendulum
    dh = KForm(sf.space, 1, {(i,): g for i, g in enumerate(system.grad_h)})  # trig: numeric
    dp = KForm(sf.space, 1, {(3,): symexpr.ONE})  # d p_phi: polynomial
    tracer = _spans().Tracer()
    tracer.install()
    try:
        hamiltonian.poincare_potential(dh)
        hamiltonian.poincare_potential(dp)
        report = classifier.classify(candidate_named(sf, "Y_rot"), system)
    finally:
        tracer.uninstall()
    assert report.label.kind == "Noether"
    metrics = tracer.pass_metrics()
    assert metrics["hamiltonian.poincare_potential.calls"] == 3
    assert metrics["hamiltonian.poincare_potential.numeric_fallbacks"] == 1


def test_tracer_counts_every_potential_classify_emits(iso, pendulum):
    """classify builds every potential it emits with the traced
    poincare_potential, so a second, untraced builder fails here instead of
    reading 0 on the benchmark's potential metrics."""
    from hamsym import classifier

    tracer = _spans().Tracer()
    tracer.install()
    try:
        reports = [classifier.classify(cand, system)
                   for sf, system in (iso, pendulum) for cand in sf.symmetries]
    finally:
        tracer.uninstall()
    potentials = [q for report in reports for q in report.conserved
                  if q.rule.endswith("-potential")]
    assert potentials
    assert tracer.pass_metrics()["hamiltonian.poincare_potential.calls"] == len(potentials)


def test_bench_smoke_run_is_ok():
    """Tiny sizes of every workload, traced and untraced: every reference
    check runs and passes, and every declared metric is emitted."""
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke ok"
