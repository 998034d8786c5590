"""Cycle-approximate simulation substrate.

This subpackage provides the discrete-event, resource-occupancy machinery
that every performance model in :mod:`repro` is built on:

* :mod:`repro.sim.clock` -- simulation clock and frequency-domain helpers.
* :mod:`repro.sim.resources` -- shared resources modelled as rolling
  next-free-cycle servers (bandwidth servers, pipelined throughput units,
  bounded request queues with backpressure).
* :mod:`repro.sim.stats` -- counters, accumulators and hierarchical stat
  groups used for reporting.
* :mod:`repro.sim.latency` -- latency records and histogram utilities.

The central modelling idea (documented in DESIGN.md section 5) is that a
request's completion time on a contended resource is::

    start  = max(arrival, resource.next_free)
    finish = start + size / rate
    ready  = finish + latency

which captures bandwidth saturation, queueing delay and pipe latency
without per-cycle ticking.
"""

from repro.sim.clock import SimClock
from repro.sim.resources import (
    BandwidthServer,
    RequestQueue,
    ResourceBusyError,
    ThroughputUnit,
)
from repro.sim.stats import Accumulator, Counter, StatGroup
from repro.sim.latency import LatencyHistogram, LatencyRecord

__all__ = [
    "SimClock",
    "BandwidthServer",
    "ThroughputUnit",
    "RequestQueue",
    "ResourceBusyError",
    "Counter",
    "Accumulator",
    "StatGroup",
    "LatencyRecord",
    "LatencyHistogram",
]
