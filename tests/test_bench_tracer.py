"""The benchmark's span tracer binds hamsym's public functions by name.

Installing it fails when a traced function is renamed or deleted, so such a
change shows in this suite and not only in a benchmark run.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
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
