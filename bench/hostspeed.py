"""Timing a region on a shared host, corrected for the host's speed at the time.

On a host shared with other tenants the same pure-Python work runs up to
1.8x slower for stretches of seconds to minutes, with CPU time equal to wall
time: the processor itself is slower, the process is not descheduled.  No
setting of the benchmark removes that, and a median over a few runs of
13 s keeps whichever stretch the runs fell into.

What does stay steady is the ratio between the program's work and a fixed
probe run at the same moment (both are exact-rational Python arithmetic).
So the timed region is cut into slices by an interval timer; at each tick
the signal handler runs probe() once and times it.  A slice's time is scaled
by REFERENCE_PROBE_S / (the mean of the probe times at its two ends).  The
result, `corrected_seconds(record)`, is the region's time in reference
seconds: the time it takes on a host where the probe takes REFERENCE_PROBE_S,
which on the calibration host is its quiet speed.  `SpeedClock.raw_s` is the
time measured, less the probes.

The reference is a constant, not the least probe of an invocation, because
an invocation that falls wholly in a busy stretch never sees the quiet speed:
its least probe was up to 8 % slow, and the times scaled to it as much.
A pure-Python Fraction probe tracked the program's slowdowns best of the
probes tried; big-integer and memory-walking probes slowed far less than the
program did under the same load.

The probes run between bytecodes of the main thread, read no state of the
program and change none, so the outputs are identical with the clock on or
off.  Their own time is taken out of every slice.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.2
PROBE_N = 600
# probe() on an idle moment of the calibration host (2 shared x86-64 vCPUs,
# CPython 3.11.7) took 2.95-3.05 ms
REFERENCE_PROBE_S = 0.003


def probe() -> None:
    """Fixed exact-rational work: PROBE_N small Fraction products and sums."""
    for i in range(1, PROBE_N + 1):
        Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(i + 2, 5)


def time_probe() -> float:
    t = time.perf_counter()
    probe()
    return time.perf_counter() - t


class SpeedClock:
    """Times one region in slices, each with the probe times at its two ends."""

    def __init__(self):
        self.slices: list[float] = []
        self.probes: list[float] = []
        self._resume = 0.0
        self._running = False

    def start(self) -> None:
        for _ in range(3):  # warm the probe's own code before the first that counts
            time_probe()
        self.probes.append(time_probe())
        signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._resume = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum, frame) -> None:
        # the handler stays installed after stop(): a tick already pending
        # then is dropped here, where the default action would end the process
        if not self._running:
            return
        t = time.perf_counter()
        self.slices.append(t - self._resume)
        self.probes.append(time_probe())
        self._resume = time.perf_counter()

    def stop(self) -> None:
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._running = False
        self.slices.append(t - self._resume)
        self.probes.append(time_probe())

    @property
    def raw_s(self) -> float:
        return sum(self.slices)

    def record(self) -> dict:
        return {"slices": self.slices, "probes": self.probes}


def local_probe() -> float:
    """The probe time at this moment: the median of five probes."""
    return statistics.median(time_probe() for _ in range(5))


def corrected_seconds(record: dict) -> float:
    """The region's time in reference seconds: each slice scaled by its own probes."""
    p = record["probes"]
    return sum(s * REFERENCE_PROBE_S * 2 / (p[i] + p[i + 1]) for i, s in enumerate(record["slices"]))
