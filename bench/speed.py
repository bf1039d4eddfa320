"""Host-speed sampler that turns wall-clock intervals into reference seconds.

The benchmark runs on shared virtual machines whose effective CPU speed
drifts by up to 2x over tens of seconds while other tenants load the host.
Raw wall times of one fixed computation then spread by 20-40% between runs,
which would swamp any regression bound. So every benchmark process times a
fixed pure-Python kernel from a SIGALRM handler every PERIOD_S of wall time.
An interval measured on the work clock (wall time minus time spent in the
handler) is converted to reference seconds by multiplying it with the mean
of CAL_REF_S / kernel_time over the samples taken inside it: the time the
same work would take on a host where the kernel runs in CAL_REF_S.

The kernel uses only the standard library, so it can run before numpy and
ptgrid are imported and sample the speed during start-up as well.
"""
from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.1
# Kernel time on an unloaded 2-vCPU Intel Xeon VM (Python 3.11); the scale
# of reported times. Change it only together with a fresh baseline.
CAL_REF_S = 0.0008


def _kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(1, 2501):
        x = i / 2501.0
        acc += math.exp(-((-math.log(x)) ** 0.65))
        table[i & 31] = table.get(i & 31, 0.0) + x
    return acc + sum(table.values())


class SpeedSampler:
    """Samples host speed while a benchmark process runs."""

    def __init__(self):
        self.busy = 0.0  # seconds spent in the handler so far
        self.samples = []  # (work-clock time, kernel seconds)
        self._in_tick = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum=None, frame=None) -> None:
        if self._in_tick:
            return
        self._in_tick = True
        t0 = time.monotonic()
        _kernel()
        took = time.monotonic() - t0
        self.samples.append((t0 - self.busy, took))
        self.busy += took
        self._in_tick = False

    def now(self) -> float:
        """Work clock: CLOCK_MONOTONIC seconds minus time spent sampling.

        Before the first sample it equals time.monotonic(), so a timestamp
        taken by the parent just before spawning this process is on the same
        clock."""
        while True:
            busy = self.busy
            t = time.monotonic()
            if busy == self.busy:
                return t - busy

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work-clock interval [start, end]."""
        speeds = [CAL_REF_S / took for t, took in self.samples if start <= t <= end]
        if not speeds:
            t, took = min(self.samples, key=lambda s: abs(s[0] - start))
            speeds = [CAL_REF_S / took]
        return (end - start) * math.fsum(speeds) / len(speeds)
