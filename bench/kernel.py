"""A fixed piece of Python timed beside hamsym's calls, to rescale times to
a nominal host speed.

The CPU speed of a shared host drifts by 20-30% over tens of seconds, and
whole runs land in slow stretches.  The kernel does what hamsym's hot loops
do (Fraction products into a dict keyed by sorted tuples, float list
arithmetic) and never changes, so time / kernel_time * NOMINAL_S moves with
hamsym and not with the host.  Imports only the standard library, so the
set-up probe can time it in a fresh interpreter before importing hamsym.
"""

import math
import time
from fractions import Fraction

NOMINAL_S = 0.006


def kernel():
    p = {((0, i), (1, j)): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    q = {}
    for m1, c1 in p.items():
        for m2, c2 in p.items():
            key = tuple(sorted(m1 + m2))
            q[key] = q.get(key, 0) + c1 * c2
    x = [0.1 * i for i in range(6)]
    for _ in range(150):
        x = [a + 1e-3 * math.sin(b) for a, b in zip(x, x[1:] + x[:1])]
    return sorted(q.items()), x


def samples(count):
    """The time of each of `count` kernel runs."""
    out = []
    for _ in range(count):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out
