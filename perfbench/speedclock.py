"""A clock that runs at the machine's current speed.

On a virtual machine whose cores other tenants share, speed drifts: on a
2-vCPU Intel Xeon VM a fixed kernel took anywhere from 1x to 2x its quiet
time, in spells of one to several seconds.  Raw wall times of one run then
say as much about the neighbours as about equivkit.

``SpeedClock`` samples a fixed probe kernel (numpy, scipy.special and a
scalar Python loop, the mix equivkit's solvers run) from a SIGALRM handler
every ``PERIOD_S`` and advances a second clock at the rate
``REF_PROBE_S / probe duration``.  An interval measured on that clock is
the time the work would take on a machine where the probe takes
``REF_PROBE_S``: a change to equivkit scales it exactly as it scales wall
time, while a slow spell of the machine stretches probe and work alike
and cancels.  The probe never calls equivkit, so no change to the library
can move it.  Probe time is excluded from both clocks.
"""

from __future__ import annotations

import collections
import math
import signal
import statistics
import time

import numpy as np
from scipy import special

# the probe's duration on the machine the benchmark was built on (2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1) when it is quiet
REF_PROBE_S = 0.5e-3
PERIOD_S = 0.05
# the speed is the median of this many latest probes: one 0.5 ms probe is
# itself noisy, and slow spells last far longer than the window
WINDOW = 5

_X64 = np.linspace(-3.0, 3.0, 64)
_W64 = np.full(64, 1.0 / 64)
_X4K = np.linspace(-3.0, 3.0, 4096)


def probe():
    """Fixed work, about REF_PROBE_S on a quiet reference machine."""
    acc = 0.0
    for i in range(40):
        v = special.ndtr(_X64 * (1.0 + 1e-3 * i)) - special.ndtr(_X64 - 0.1 * i)
        acc += float(v @ _W64) + float(np.exp(-0.5 * _X64[i] ** 2))
    for i in range(2):
        acc += float(special.ndtr(_X4K + 0.01 * i).sum())
    x = 0.3
    for i in range(400):
        x = 0.5 * (x + math.erf(x) + 1e-9 * i)
    return acc + x


def probe_seconds(repeats=9):
    """Median duration of the probe over a few back-to-back calls."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t)
    return sorted(times)[repeats // 2]


class SpeedClock:
    """Wall clock minus probe time, and the same interval at reference speed."""

    def __init__(self):
        self._norm = 0.0
        self._probe_total = 0.0
        self._probe_s = probe_seconds()
        self._recent = collections.deque([self._probe_s], maxlen=WINDOW)
        self._mark = time.perf_counter()
        self.samples = []

    def _tick(self, signum, frame):
        t_a = time.perf_counter()
        probe()
        t_b = time.perf_counter()
        p = t_b - t_a
        # the interval since the last probe is billed at the speed estimated
        # then, as read() bills it while it is still open
        self._norm += (t_a - self._mark) * REF_PROBE_S / self._probe_s
        self._recent.append(p)
        self._probe_s = statistics.median(self._recent)
        self._probe_total += p
        self._mark = t_b
        self.samples.append(p)

    def start(self):
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def read(self):
        """(reference-speed seconds, wall seconds without probe time)."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t = time.perf_counter()
            norm = self._norm + (t - self._mark) * REF_PROBE_S / self._probe_s
            return norm, t - self._probe_total
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
