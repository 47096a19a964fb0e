"""Machine-speed calibration: the benchmark's times in reference seconds.

On a shared machine the speed of identical pure-Python work drifts by up to
2x within seconds (other tenants on the same cores), and neither CPU time
nor steal time shows it.  A run that lasts tens of seconds therefore reads
whatever share of it the machine spent slow.  The benchmark measures that
drift as it goes: a fixed loop of the benchmark's own, which calls nothing
in ``weylops``, runs between jobs, and every job's time is scaled by
``REFERENCE_S / t``, where ``t`` is the loop's time measured around the job.
A reported time is thus the time the job would take on a machine where the
loop takes exactly ``REFERENCE_S``: a faster package reads faster, a slower
machine state does not.

The loop does the kind of work the package's inner loops do: sparse
products keyed by exponent tuples, with ``Fraction`` and ``int``
coefficients.  The collector is off while it runs, so that objects the
package keeps alive cannot slow the loop and flatter the package.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# the loop's time on the reference machine (one rep of ``_work``)
REFERENCE_S = 0.5e-3
# job time between two calibrations within a run
EVERY_S = 0.05

_A = [((i % 3, i % 4, i % 5), Fraction(2 * i + 1, i % 7 + 2)) for i in range(12)]
_B = [((i % 4, i % 2, i % 3), 7 * i - 40) for i in range(12)]


def _work():
    out = {}
    for ea, ca in _A:
        for eb, cb in _B:
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def measure(reps=5):
    """Median time of ``reps`` runs of the loop, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            _work()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
