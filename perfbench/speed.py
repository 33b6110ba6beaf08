"""Machine-speed probe: times a fixed kernel while the program runs.

The benchmark's usual host, a shared 2-vCPU Intel Xeon VM, drifts in
speed by up to 1.6x for seconds to minutes at a time, with nothing to
see in steal time: the other tenants slow the core itself.  The fastest
of a few repeats does not hide a slow spell that lasts longer than a
pass, so the end-to-end times are scaled by the machine's speed
measured at the same moment as the program.

While a Probe is active, a SIGALRM timer runs kernel() every TICK_S
seconds of wall time (between two bytecodes of whatever runs) and
records how long it took.  Probe.time(fn) runs EDGE kernels on either
side of fn as well, subtracts the kernels run inside fn from its wall
time, and returns the net time with a scale: the mean kernel time over
the call divided by REF_KERNEL_S.  net / scale is the time fn would
have taken on a machine where the kernel takes REF_KERNEL_S.

The kernel tracks the program only in part: on that host, one sample
op repeated 25 times varied by 9 to 15% (coefficient of variation) in
wall time and by 3 to 8% scaled.  The kernel is the benchmark's own
code: a change to linmono moves net, and the scale only through the
state of the caches it leaves behind.  run.py prints the median scale
(machine_scale_p50) and the unscaled median latency beside the scaled
metrics.
"""

from __future__ import annotations

import signal
import statistics
import time

# One kernel of about a millisecond every 50 ms: 2% of the run.  A
# shorter kernel reads the caches the program left cold, not the core.
TICK_S = 0.05
ROUNDS = 40
EDGE = 2

# Median KERNEL time on the Intel Xeon 2-vCPU VM the benchmark was
# written on, Python 3.11.
REF_KERNEL_S = 750e-6

_A = tuple(range(1, 14))
_B = tuple(range(3, 16))


def kernel():
    """Fixed pure-Python work like linmono's: products of polynomials
    mod 7 in lists, then a dict and tuples built from the result."""
    acc = 0
    for _ in range(ROUNDS):
        r = [0] * (len(_A) + len(_B))
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                r[i + j] = (r[i + j] + x * y) % 7
        d = {(k, v): v for k, v in enumerate(r)}
        acc += sum(d.values())
    return acc


class Probe:
    """Samples KERNEL every TICK_S while active (a context manager)."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._old = None

    def sample(self, *_):
        clock = time.perf_counter
        t0 = clock()
        kernel()
        t1 = clock()
        self.samples.append(t1 - t0)
        self.spent += clock() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def time(self, fn, *args):
        """(result, net seconds, scale) of fn(*args)."""
        for _ in range(EDGE):
            self.sample()
        first, spent = len(self.samples) - EDGE, self.spent
        t0 = time.perf_counter()
        result = fn(*args)
        net = time.perf_counter() - t0 - (self.spent - spent)
        for _ in range(EDGE):
            self.sample()
        scale = statistics.fmean(self.samples[first:]) / REF_KERNEL_S
        return result, net, scale


class NoProbe:
    """Probe.time without the probe: wall time at scale 1."""

    def time(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0, 1.0
