"""The benchmark's clock: CPU seconds scaled to a fixed host speed.

Host time is CPU seconds of the pass process.  The simulator runs on
one thread (the pass pins BLAS to one), so on an idle host CPU time
equals wall time.  On a shared host, CPU time leaves out the time the
process waits for a CPU -- on the guest's run queue, or while the
hypervisor runs another guest (steal time) -- which measures the
neighbours, not the program.

CPU time still carries the speed of the CPU, which on a shared host
changes by up to 2x within seconds (cores and caches shared with other
machines).  So while a timed region runs, a wall-clock timer interrupts
it every ``PROBE_INTERVAL_S`` to run :func:`probe`, a fixed ~1 ms
pure-Python loop, and records how long it took.  The region's seconds
are its CPU seconds, less the probes', times the mean of
``PROBE_S / probe seconds``: seconds at the host speed at which the
probe takes ``PROBE_S``.  The probe is the benchmark's own code.  It
holds no object the garbage collector tracks and its working set is a
few KiB, so no change to the program can move it.

A change that adds threads would need a wall-time metric beside this
one: CPU time sums over threads.
"""

from __future__ import annotations

import signal
import time
from typing import Any, List, Optional

clock = time.process_time
"""CPU seconds of this process (all threads)."""

PROBE_ITERATIONS = 6_000
PROBE_S = 0.00085
"""CPU seconds :func:`probe` takes on the idle host the benchmark was
built on (a 2-vCPU Intel Xeon VM, Python 3.11): the idle time of a 20x
longer run of the same loop, 18 ms, times the measured ratio of the
two.  It fixes the unit; any constant would do."""

PROBE_INTERVAL_S = 0.02
"""Wall seconds between probes: 5-10 % of the CPU time goes to them."""


def probe() -> float:
    """CPU seconds of one run of a fixed pure-Python loop."""
    started = clock()
    table = {}
    total = 0
    for i in range(PROBE_ITERATIONS):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        total += (i * i) % 7
    return clock() - started


class ScaledTimer:
    """Times a ``with`` block, or :meth:`start` to :meth:`stop`, in
    host-speed-scaled CPU seconds.

    When it stops: ``cpu_s`` (CPU seconds, probes excluded),
    ``probe_s`` (CPU seconds of the probes), ``speed`` (mean of
    ``PROBE_S / probe seconds``), ``seconds`` (``cpu_s * speed``) and
    ``wall_s``.  One probe runs at the start, so even a block shorter
    than the interval gets a speed.  It uses SIGALRM and the real
    interval timer, so only the main thread may use it and nothing else
    in the process may.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.cpu_s = self.probe_s = self.speed = self.seconds = self.wall_s = 0.0
        self._in_probe = False
        self._previous: Optional[Any] = None

    def _sample(self, signum: int, frame: Any) -> None:
        # A probe the host stalls past the interval must not nest another.
        if self._in_probe:
            return
        self._in_probe = True
        try:
            self.samples.append(probe())
        finally:
            self._in_probe = False

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._wall = time.perf_counter()
        self._started = clock()
        self.samples.append(probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe_s = sum(self.samples)
        self.cpu_s = clock() - self._started - self.probe_s
        self.wall_s = time.perf_counter() - self._wall
        self.speed = sum(PROBE_S / sample for sample in self.samples) / len(
            self.samples)
        self.seconds = self.cpu_s * self.speed

    def __enter__(self) -> "ScaledTimer":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
