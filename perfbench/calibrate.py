"""A fixed probe of how fast the host runs, sampled while a pass runs.

The benchmark's host is a small virtual machine on a shared machine.  Its
speed for the same work moves by 20-40% over seconds to minutes, with CPU
time moving as much as wall time, so raw times are not steady from one run
to the next.  ``probe`` times a fixed piece of work, the same on every commit
and outside the package, of the three kinds the workloads spend their time
in: Python bytecode, numpy on a small dense matrix (like a simplex pivot) and
``scipy.special.jv`` over an array.  ``Sampler`` runs it from a SIGALRM
handler every ``PERIOD_S`` of wall time, so the samples cover a pass evenly,
long calls included, and keeps count of the time it took.  run.py rescales
each call's time by ``REFERENCE_S / median(samples taken during the call)``:
the time at the speed the host had when ``REFERENCE_S`` was measured.  On
that host, over five runs on five seeds, the spread (IQR / median) of the
pass time was 11% raw and 3% rescaled on lp-large, 18% and 4% on
verify-many, and 15% and 3% on radial-tables.

Only names ``pdextremal.cli`` has already imported are used, so probing
loads nothing the package would otherwise load on its first call.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.special import jv

# about the median of ``probe()`` on a 2-CPU Intel Xeon virtual machine; a
# constant, so every commit is rescaled the same way
REFERENCE_S = 0.0042
PERIOD_S = 0.05

_MATRIX = np.random.default_rng(0).standard_normal((120, 160))
_POINTS = np.linspace(0.1, 60.0, 2000)


def probe() -> float:
    """Seconds for one unit of fixed work."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(8000):
        total = (total + i * 7) % 1000003
        table[i & 511] = total
    a = _MATRIX.copy()
    for k in range(16):
        a -= np.outer(a[:, k], a[k]) * 1e-4
        int(np.argmax(a[:, k + 1]))
        a @ _MATRIX[0]
    jv(1.5, _POINTS)
    return time.perf_counter() - start


class Sampler:
    """Context manager: runs ``probe`` every PERIOD_S of wall time, keeping each
    probe's seconds in ``samples`` and their total, handler included, in ``spent``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
