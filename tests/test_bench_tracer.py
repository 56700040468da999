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


def test_tracer_sees_the_potential_layer(pendulum):
    """The classifier builds potentials through the public name, so the
    per-layer potential metrics count them, numeric fallbacks included."""
    from hamsym import classifier

    sf, system = pendulum
    candidates = [candidate_named(sf, "Y_rot"), classifier.generate_from_conserved(system.h, system)]
    tracer = _spans().Tracer()
    tracer.install()
    try:
        for cand in candidates:
            classifier.classify(cand, system)
    finally:
        tracer.uninstall()
    metrics = tracer.pass_metrics()
    assert metrics["hamiltonian.poincare_potential.calls"] == 2
    assert metrics["hamiltonian.poincare_potential.numeric_fallbacks"] == 1


def test_bench_smoke_run_is_ok():
    """Tiny sizes of every workload, traced and untraced: every reference
    check runs and passes, and every declared metric is emitted."""
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke ok"
