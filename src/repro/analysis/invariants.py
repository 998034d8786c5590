"""Runtime conservation invariants, validated at frame drain time.

Every headline number in the reproduction is a ratio of accumulated
counters, so the counters themselves must obey conservation laws:

* ``texel-balance`` — every texture request is served exactly once, and
  the A-TFIM offload pipeline's parent/child bookkeeping matches what
  the caches and the HMC actually saw;
* ``traffic-balance`` — bytes metered as external/internal traffic equal
  the bytes the links, vaults and the GDDR5 bus actually moved
  (request/response package symmetry);
* ``clock-monotonic`` — stage times are non-negative, the fragment-stage
  overlap rule stays within its bounds, and the texture makespan bounds
  every observed latency;
* ``energy-conserved`` — the energy total equals the sum of its
  components and no component is negative;
* ``cache-sanity`` — cache hit/miss accounting is internally consistent
  and hit rates stay inside [0, 1].

One further drain-time invariant operates on the functional sampler
rather than on a :class:`~repro.core.frontend.DesignRun`:

* ``batch-fetch-parity`` — the batched (numpy-vectorised) filtering
  kernels of :mod:`repro.texture.batch` produce bit-identical colors to
  the scalar oracle and touch exactly the same per-fragment texel sets
  (hence equal fetch counts).  The batched renderer validates a
  deterministic sample of every frame at drain time via
  :func:`check_batch_scalar_parity` when checking is enabled: sampled
  requests in the exact and isotropic modes, sampled recalculated
  parent texels in the reordered and A-TFIM modes.

Checks run against a finished :class:`~repro.core.frontend.DesignRun`
(drain time: all events retired, all counters final).  Enable them with
``--check-invariants`` on the CLI or ``REPRO_CHECK_INVARIANTS=1`` in the
environment; the test suite enables them for every simulated frame.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, List

from repro.core.designs import Design
from repro.energy.model import EnergyModel
from repro.memory.traffic import TrafficClass

ENV_FLAG = "REPRO_CHECK_INVARIANTS"

_REL_TOL = 1e-9
_ABS_TOL = 1e-6


@dataclass(frozen=True)
class InvariantViolation:
    """One failed conservation assertion."""

    invariant: str
    message: str

    def format(self) -> str:
        return f"[{self.invariant}] {self.message}"


class InvariantError(AssertionError):
    """Raised when a simulated frame violates registered invariants."""

    def __init__(self, violations: List[InvariantViolation]) -> None:
        self.violations = violations
        lines = "\n".join(violation.format() for violation in violations)
        super().__init__(
            f"{len(violations)} simulator invariant violation(s):\n{lines}"
        )


InvariantFn = Callable[["object"], Iterator[str]]

_REGISTRY: List[tuple] = []


def invariant(name: str) -> Callable[[InvariantFn], InvariantFn]:
    """Register a conservation assertion under a stable name."""

    def register(fn: InvariantFn) -> InvariantFn:
        _REGISTRY.append((name, fn))
        return fn

    return register


def invariant_names() -> List[str]:
    """Every invariant the flag enables: the drain-time run checks, then
    the renderer's ``batch-fetch-parity``."""
    return [name for name, _ in _REGISTRY] + [BATCH_PARITY_INVARIANT]


def checks_enabled() -> bool:
    """Whether invariant checking is on by default (environment flag)."""
    # The flag only decides whether results are *validated*, never what
    # they are, so a worker-side read cannot skew any computed value.
    return os.environ.get(ENV_FLAG, "").lower() in ("1", "true", "on", "yes")


def _close(left: float, right: float) -> bool:
    return math.isclose(left, right, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


# ---------------------------------------------------------------------------
# texel-balance: requests in == responses out, across every pipeline.
# ---------------------------------------------------------------------------


@invariant("texel-balance")
def _check_texel_balance(run: "object") -> Iterator[str]:
    frame = run.frame
    activity = frame.path_activity
    served = activity.gpu_texture.requests + activity.memory_texture.requests
    if served != frame.num_requests:
        yield (
            f"texture units served {served} requests but the trace issued "
            f"{frame.num_requests}"
        )
    if frame.texture_latency.count != frame.num_requests:
        yield (
            f"latency histogram recorded {frame.texture_latency.count} "
            f"completions for {frame.num_requests} requests"
        )
    path = run.path
    if hasattr(path, "parent_reuses"):  # the A-TFIM offload pipeline
        classified = (
            path.parent_reuses + path.parent_recalculations + path.parent_cold_misses
        )
        stats = frame.cache_stats
        if classified != stats.l1_accesses:
            yield (
                f"A-TFIM classified {classified} parent texels but the L1s "
                f"saw {stats.l1_accesses} accesses"
            )
        if path.child_lines_fetched != path.hmc.internal_reads:
            yield (
                f"A-TFIM fetched {path.child_lines_fetched} child lines but "
                f"the HMC served {path.hmc.internal_reads} internal reads"
            )
        if path.child_lines_fetched > path.child_texels_generated:
            yield (
                f"A-TFIM fetched {path.child_lines_fetched} child lines for "
                f"only {path.child_texels_generated} generated child texels"
            )


# ---------------------------------------------------------------------------
# traffic-balance: metered bytes equal transported bytes.
# ---------------------------------------------------------------------------


@invariant("traffic-balance")
def _check_traffic_balance(run: "object") -> Iterator[str]:
    frame = run.frame
    traffic = frame.traffic
    for meter_name, meter in (("external", traffic.external),
                              ("internal", traffic.internal)):
        for traffic_class in TrafficClass:
            nbytes = meter[traffic_class]
            if nbytes < 0:
                yield (
                    f"negative {meter_name} byte count for "
                    f"{traffic_class.value}: {nbytes}"
                )
    path = run.path
    hmc = getattr(path, "hmc", None)
    if hmc is not None:
        if not _close(traffic.external_texture, hmc.external_bytes):
            yield (
                f"metered {traffic.external_texture} external texture bytes "
                f"but the HMC links moved {hmc.external_bytes}"
            )
        if run.config.design.filters_in_memory and not _close(
            traffic.internal_total, hmc.internal_bytes
        ):
            yield (
                f"metered {traffic.internal_total} internal bytes but the "
                f"HMC vaults moved {hmc.internal_bytes}"
            )
    gddr5 = getattr(path, "gddr5", None)
    if gddr5 is not None:
        packets = run.config.packets
        overhead = gddr5.reads * (
            packets.read_request_bytes + packets.header_bytes
        )
        transported = gddr5.total_bytes + overhead
        if not _close(traffic.external_texture, transported):
            yield (
                f"metered {traffic.external_texture} external texture bytes "
                f"but the GDDR5 bus moved {transported} "
                f"(payload {gddr5.total_bytes} + package overhead {overhead})"
            )


# ---------------------------------------------------------------------------
# clock-monotonic: the event clock never runs backwards.
# ---------------------------------------------------------------------------


@invariant("clock-monotonic")
def _check_clock_monotonic(run: "object") -> Iterator[str]:
    stages = run.frame.stages
    for stage_name in ("geometry", "rasterization", "shader", "texture",
                       "rop", "fragment_stage"):
        cycles = getattr(stages, stage_name)
        if cycles < 0:
            yield f"stage '{stage_name}' has negative duration {cycles}"
    parts = [stages.shader, stages.texture, stages.rop]
    slack = _ABS_TOL + _REL_TOL * sum(parts)
    if stages.fragment_stage < max(parts) - slack:
        yield (
            f"fragment stage {stages.fragment_stage} shorter than its "
            f"longest component {max(parts)}"
        )
    if stages.fragment_stage > sum(parts) + slack:
        yield (
            f"fragment stage {stages.fragment_stage} longer than the serial "
            f"sum of its components {sum(parts)}"
        )
    histogram = run.frame.texture_latency
    if histogram.max_latency < 0:
        yield f"negative max texture latency {histogram.max_latency}"
    if stages.texture < histogram.max_latency - slack:
        yield (
            f"texture makespan {stages.texture} below the largest observed "
            f"latency {histogram.max_latency}: a completion preceded an issue"
        )


# ---------------------------------------------------------------------------
# energy-conserved: the total is exactly the sum of its parts.
# ---------------------------------------------------------------------------


@invariant("energy-conserved")
def _check_energy_conserved(run: "object") -> Iterator[str]:
    breakdown = EnergyModel().frame_energy(run.config.design, run.frame)
    yield from check_energy_breakdown(breakdown)


def check_energy_breakdown(breakdown: "object") -> Iterator[str]:
    """Validate one :class:`EnergyBreakdown` against conservation.

    Split out so that drifted breakdowns (e.g. a component field added
    without updating ``total``) are unit-testable in isolation.
    """
    component_sum = 0.0
    for field in dataclasses.fields(breakdown):
        joules = getattr(breakdown, field.name)
        if joules < 0:
            yield f"negative energy component '{field.name}': {joules} J"
        component_sum += joules
    if not _close(breakdown.total, component_sum):
        yield (
            f"energy total {breakdown.total} J != sum of components "
            f"{component_sum} J"
        )
    reported = breakdown.as_dict()
    reported_sum = sum(
        joules for key, joules in reported.items() if key != "total"
    )
    if not _close(reported.get("total", 0.0), reported_sum):
        yield (
            f"reported energy total {reported.get('total')} J != sum of "
            f"reported components {reported_sum} J"
        )


# ---------------------------------------------------------------------------
# cache-sanity: hit/miss accounting stays internally consistent.
# ---------------------------------------------------------------------------


@invariant("cache-sanity")
def _check_cache_sanity(run: "object") -> Iterator[str]:
    stats = run.frame.cache_stats
    for counter_name in ("l1_hits", "l1_misses", "l1_angle_misses",
                         "l2_hits", "l2_misses"):
        count = getattr(stats, counter_name)
        if count < 0:
            yield f"negative cache counter '{counter_name}': {count}"
    if not 0.0 <= stats.l1_hit_rate <= 1.0:
        yield f"L1 hit rate {stats.l1_hit_rate} outside [0, 1]"
    activity = run.frame.path_activity
    expected_l2 = stats.l1_misses + stats.l1_angle_misses
    if activity.l2_accesses != expected_l2:
        yield (
            f"recorded {activity.l2_accesses} L2 accesses but the L1s "
            f"forwarded {expected_l2} misses"
        )
    l2_outcomes = stats.l2_hits + stats.l2_misses
    if l2_outcomes > expected_l2:
        yield (
            f"L2 recorded {l2_outcomes} outcomes for {expected_l2} "
            "forwarded L1 misses"
        )


# ---------------------------------------------------------------------------
# batch-fetch-parity: the vectorised sampler matches the scalar oracle.
# ---------------------------------------------------------------------------

BATCH_PARITY_INVARIANT = "batch-fetch-parity"


def check_batch_scalar_parity(
    entries: List[tuple], raise_on_violation: bool = True
) -> List[InvariantViolation]:
    """Validate batch-vs-scalar sampler parity for a sampled fragment set.

    ``entries`` holds one tuple per checked fragment:
    ``(request_index, batch_color, scalar_color, batch_texels,
    scalar_texels)`` where the colors are RGBA vectors and the texel
    collections are the deduplicated ``(level, x, y)`` fetch sets of
    each path.  For a checked parent texel the index is its lookup's
    and each "color" is the parent's count, coordinates, weight and
    filtered value.  A violation is reported when colors differ in any
    bit or the fetch sets (and therefore the fetch counts the cycle
    model bills for) diverge.
    """
    violations: List[InvariantViolation] = []
    for index, batch_color, scalar_color, batch_texels, scalar_texels in entries:
        if tuple(batch_color) != tuple(scalar_color):
            violations.append(
                InvariantViolation(
                    invariant=BATCH_PARITY_INVARIANT,
                    message=(
                        f"request {index}: batch color {tuple(batch_color)} "
                        f"!= scalar color {tuple(scalar_color)}"
                    ),
                )
            )
        if len(batch_texels) != len(scalar_texels):
            violations.append(
                InvariantViolation(
                    invariant=BATCH_PARITY_INVARIANT,
                    message=(
                        f"request {index}: batch path fetched "
                        f"{len(batch_texels)} unique texels but the scalar "
                        f"path fetched {len(scalar_texels)}"
                    ),
                )
            )
        elif set(batch_texels) != set(scalar_texels):
            extra = sorted(set(batch_texels) - set(scalar_texels))[:4]
            missing = sorted(set(scalar_texels) - set(batch_texels))[:4]
            violations.append(
                InvariantViolation(
                    invariant=BATCH_PARITY_INVARIANT,
                    message=(
                        f"request {index}: fetch sets diverge "
                        f"(batch-only {extra}, scalar-only {missing})"
                    ),
                )
            )
    if violations and raise_on_violation:
        raise InvariantError(violations)
    return violations


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------


def check_run(run: "object", raise_on_violation: bool = True) -> List[InvariantViolation]:
    """Validate one finished design run against every invariant.

    ``run`` is any object with the :class:`DesignRun` surface
    (``config``, ``frame``, ``path``).  Returns the violation list; with
    ``raise_on_violation`` (the default) a non-empty list raises
    :class:`InvariantError` instead.
    """
    violations: List[InvariantViolation] = []
    for name, fn in _REGISTRY:
        for message in fn(run):
            violations.append(InvariantViolation(invariant=name, message=message))
    if violations and raise_on_violation:
        raise InvariantError(violations)
    return violations
