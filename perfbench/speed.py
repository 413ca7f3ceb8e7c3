"""Host speed: fixed reference work timed beside the operations.

The benchmark shares its cores with other tenants.  On a 2-vCPU x86-64
host the same ``corollary-ascending-p05`` operation ran 0.7-0.8 s in quiet
periods and 1.0-1.4 s in busy ones.  The periods switch within seconds and
their mix changes over minutes, so the median of a 50 s run read anywhere
between them.  Process CPU time moved with wall time: the cores get
slower, the process is not descheduled.

The benchmark therefore times ``reference_loop`` between operations,
outside their timings.  Each operation's time is scaled by ``NOMINAL_S``
over the mean of the two reference times that bracket it, and quantiles
are taken over the scaled times.  Over ten
50 s windows of orlicz-luxemburg, the spread (interquartile range over
median) of the median operation time fell from 0.19 in wall time to 0.04
scaled; a single factor per run (median reference time) gave 0.12, because
a 65 ms loop lands in one period or the other.

The loop mixes numpy passes over a few thousand rows with a pure-Python
dict loop, like ``modstab run``.  Busy periods slow it somewhat more than
an operation (about 1.35x against 1.2x), so a scaled time still moves a
little with load.  It makes no BLAS call and runs no modstab code, so a
change to the program cannot move it.
"""

import time

import numpy as np

# Set-up time is mostly interpreter start and the numpy import: reading and
# mapping files and OpenBLAS's start-up, which host load slows differently
# from the loop below (a 28% shift in ten-run set-up medians twenty minutes
# apart, with the loop steady).  So set-up spawns are scaled by reference
# spawns that only import numpy, the same way.  NOMINAL_SPAWN_S only sets
# the scale; the reference spawn took 0.15-0.2 s on the host below.
REFERENCE_SPAWN = 'import numpy\nprint("ready", flush=True)'
NOMINAL_SPAWN_S = 0.2

# Median time of reference_loop() over about a thousand samples on the host
# above.  It only sets the scale: a scaled time is the wall time the host
# would give while the loop runs at this speed.
NOMINAL_S = 0.065

_rng = np.random.default_rng(2002_00346)
_A = _rng.standard_normal((8192, 4))
_B = _rng.standard_normal((8192, 4))


def reference_loop():
    """Fixed work: ~30 numpy passes over 8192x4 arrays and a 150k-step dict loop."""
    s = 0.0
    for _ in range(30):
        c = np.einsum("ij,ik->ijk", _A, _B)
        s += float(np.abs(c).sum()) + float(np.sqrt((_A * _A).sum(axis=1)).max())
    counts = {}
    for i in range(150_000):
        counts[i & 1023] = counts.get(i & 1023, 0.0) + i * 0.5
    return s + counts[0]


def time_reference_loop():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scale(elapsed, ref_before, ref_after, nominal):
    """``elapsed`` at nominal host speed, from the reference times around it."""
    return elapsed * nominal / (0.5 * (ref_before + ref_after))
