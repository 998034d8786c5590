"""StatGroup snapshots of simulated artefacts for span/manifest export.

The simulator's per-component counters (stage cycles, traffic bytes,
cache outcomes, texture-unit activity, memory-system events) live in
many small objects; these helpers roll one frame -- or a whole runner's
worth of frames and renders -- into a single
:class:`~repro.sim.stats.StatGroup` tree whose
:meth:`~repro.sim.stats.StatGroup.flatten` output is what the run
manifest and the span tree embed.

Everything here reads drained results; nothing mutates simulator state.
Snapshot group names use ``/`` inside path segments (``doom3/a-tfim``)
so the dotted paths ``flatten`` produces stay unambiguous.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.stats import StatGroup

if TYPE_CHECKING:  # imported lazily at runtime to keep obs dependency-light
    from repro.core.frontend import DesignRun
    from repro.experiments.runner import ExperimentRunner
    from repro.gpu.pipeline import FrameResult


def frame_stat_group(frame: "FrameResult", name: str = "frame") -> StatGroup:
    """Roll one drained :class:`FrameResult` into a StatGroup tree."""
    group = StatGroup(name)

    stages = group.child("stages")
    stages.counter("geometry_cycles").add(frame.stages.geometry)
    stages.counter("rasterization_cycles").add(frame.stages.rasterization)
    stages.counter("shader_cycles").add(frame.stages.shader)
    stages.counter("texture_cycles").add(frame.stages.texture)
    stages.counter("rop_cycles").add(frame.stages.rop)
    stages.counter("fragment_stage_cycles").add(frame.stages.fragment_stage)
    stages.counter("frame_cycles").add(frame.frame_cycles)

    traffic = group.child("traffic")
    traffic.counter("external_bytes").add(frame.traffic.external_total)
    traffic.counter("external_texture_bytes").add(frame.traffic.external_texture)
    traffic.counter("internal_bytes").add(frame.traffic.internal_total)

    latency = group.child("texture_latency")
    latency.counter("requests").add(frame.texture_latency.count)
    latency.counter("mean_cycles").add(frame.texture_latency.mean)
    latency.counter("max_cycles").add(frame.texture_latency.max_latency)

    caches = group.child("caches")
    stats = frame.cache_stats
    caches.counter("l1_hits").add(stats.l1_hits)
    caches.counter("l1_misses").add(stats.l1_misses)
    caches.counter("l1_angle_misses").add(stats.l1_angle_misses)
    caches.counter("l2_hits").add(stats.l2_hits)
    caches.counter("l2_misses").add(stats.l2_misses)

    activity = group.child("activity")
    activity.counter("gpu_filter_ops").add(frame.path_activity.gpu_texture.filter_ops)
    activity.counter("gpu_address_ops").add(frame.path_activity.gpu_texture.address_ops)
    activity.counter("mtu_filter_ops").add(frame.path_activity.memory_texture.filter_ops)
    activity.counter("mtu_address_ops").add(frame.path_activity.memory_texture.address_ops)
    activity.counter("parent_recalculations").add(frame.path_activity.parent_recalculations)
    activity.counter("parent_reuses").add(frame.path_activity.parent_reuses)
    activity.counter("child_texels_generated").add(frame.path_activity.child_texels_generated)

    group.counter("fragments").add(frame.num_fragments)
    group.counter("requests").add(frame.num_requests)
    group.counter("texels_requested").add(frame.texels_requested)
    return group


def run_stat_group(run: "DesignRun", name: str = "run") -> StatGroup:
    """Snapshot one :class:`DesignRun`: the frame plus its texture path
    (which contributes the memory-model service counters)."""
    group = frame_stat_group(run.frame, name=name)
    group.adopt(run.path.stat_group("path"))
    return group


def runner_stat_group(runner: "ExperimentRunner") -> StatGroup:
    """Snapshot every design run and render an :class:`ExperimentRunner`
    completed.

    One ``runs`` child per completed grid point, named
    ``<workload>/<design>/t<threshold>[/...]`` with one segment per
    setting off its default (a variant's overrides included, such as
    ``aniso-2x`` or ``internal-x2.0``), so no two runs share a name; one
    ``renders`` child per render, ``<workload>/<mode>/t<threshold>``,
    with its parent reuse and recalculation counts; plus the runner's
    own memoisation counters.
    """
    root = StatGroup("runner")
    cache = root.child("cache")
    cache.counter("memo_hits").add(runner.memo_hits)
    cache.counter("memo_misses").add(runner.memo_misses)

    runs = root.child("runs")
    for key, run in runner.completed_runs().items():
        parts = [key.workload, key.design.value,
                 f"t{key.angle_threshold:.6f}"]
        if not key.aniso_enabled:
            parts.append("no-aniso")
        if key.mtu_share != 1:
            parts.append(f"mtu-share-{key.mtu_share}")
        if not key.consolidation_enabled:
            parts.append("no-consolidation")
        if key.variant.max_anisotropy is not None:
            parts.append(f"aniso-{key.variant.max_anisotropy}x")
        if key.variant.internal_bandwidth_multiplier != 1.0:
            parts.append(f"internal-x{key.variant.internal_bandwidth_multiplier}")
        name = "/".join(parts)
        runs.adopt(run_stat_group(run, name=name))

    renders = root.child("renders")
    for key, render in runner.completed_renders().items():
        group = renders.child(
            f"{key.workload}/{key.mode.value}/t{key.angle_threshold:.6f}"
        )
        group.counter("parent_reuses").add(render.parent_reuses)
        group.counter("parent_recalculations").add(
            render.parent_recalculations
        )
    return root
