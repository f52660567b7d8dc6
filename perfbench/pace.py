"""Host pace: how long a fixed piece of work takes on this host right now.

The benchmark runs on a few cores of a shared host.  Other tenants slow
every process on it by 10-60%, for seconds to minutes at a time, so the
same call can take 0.5 s in one run and 0.8 s in the next, even at its
fastest of eight repetitions.  A fixed piece of work timed right before
and right after a call slows down with it.  Each call's time is therefore
reported at the reference pace:

    elapsed * PACE_REF_S / mean(pace before, pace after)

The pace work resembles hetsis's own: an interpreted loop, numpy calls on
short vectors and a dense 200 x 200 matrix-vector product.  It does not
depend on hetsis, so a change to hetsis scales the reported times by
the same factor as the measured ones.
"""

from __future__ import annotations

import time

import numpy as np

# The pace work's time on a quiet 2-vCPU KVM guest (Xeon, Python 3.11,
# numpy 2.4, one BLAS thread).  Only the ratio of a run's pace to this
# constant matters, and it is the same on every commit.
PACE_REF_S = 4.2e-4

_SHORT = np.linspace(0.1, 0.9, 32)
_MATRIX = np.random.default_rng(0).random((200, 200)) / 200.0
_VECTOR = np.ones(200)


def pace_parts() -> tuple[float, float, float]:
    """Times of the three parts of the pace work, in seconds."""
    t0 = time.perf_counter()
    k = 0
    for i in range(5000):
        k += i * i
    t1 = time.perf_counter()
    y = _SHORT
    for _ in range(60):
        y = np.minimum(y * 1.01, 0.95) + 0.001
    t2 = time.perf_counter()
    v = _VECTOR
    for _ in range(10):
        v = _MATRIX @ v
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2
