"""The benchmark's four workloads, each a list of timed points.

A point is one public call into the simulator -- ``simulate_frame``,
``simulate_sequence``, ``Renderer.render`` or ``render`` + ``psnr`` --
exactly as the figure code makes it.  Every point can also replay itself
*decomposed* into the layer calls that public call makes, each wrapped in
a benchmark span; the traced pass uses that form to attribute host time
to layers, and its simulated snapshot must equal the composite call's.

Inputs are generated from the seed alone: ``--seed N`` offsets every
:class:`~repro.workloads.GameWorkload` seed, which changes the procedural
textures (and the arena's prop layout), never the workload's shape.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from bench.speed import clock
from repro.analysis.invariants import check_run
from repro.core import Design, simulate_frame, simulate_sequence
from repro.core.angle import DEFAULT_THRESHOLD, THRESHOLD_SWEEP, AngleThreshold
from repro.core.designs import DesignConfig
from repro.core.expansion import RequestExpander
from repro.core.frontend import DesignRun, make_texture_path
from repro.energy import EnergyModel
from repro.experiments.runner import FAST_WORKLOADS
from repro.gpu.pipeline import FrameResult, GpuPipeline
from repro.memory.traffic import TrafficMeter
from repro.obs import frame_stat_group, run_stat_group
from repro.quality import psnr
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.raster import Rasterizer
from repro.render.renderer import Renderer, SamplingMode
from repro.render.scene import Scene
from repro.texture.requests import FragmentTrace
from repro.workloads import GameWorkload, workload_by_name
from repro.workloads.animation import strafe, walk_forward

SEQUENCE_FRAMES = 3


class Spans:
    """In-memory span recorder for the traced pass.

    Records are dictionaries in :meth:`repro.obs.Span.as_dict` form
    (``name``, ``start_wall``, ``duration``, ``attributes``, ``children``)
    so :func:`repro.obs.chrome_trace` can export them unchanged; the
    duration is in CPU seconds (:data:`bench.speed.clock`), unscaled.  The
    attributes dictionary is yielded, so a caller can add work counts
    (``items``, ``lines``...) measured inside the span.
    """

    def __init__(self) -> None:
        self.roots: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "name": name,
            "start_wall": time.time(),
            "duration": 0.0,
            "attributes": dict(attributes),
            "children": [],
        }
        parent = self._stack[-1]["children"] if self._stack else self.roots
        parent.append(record)
        self._stack.append(record)
        started = clock()
        try:
            yield record["attributes"]
        finally:
            record["duration"] = clock() - started
            self._stack.pop()


class NoSpans:
    """The untraced stand-in: same interface, records nothing."""

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Dict[str, Any]]:
        yield {}


@dataclass
class Outcome:
    """What a finished point reports, computed after its timer stops."""

    requests: int
    snapshot: Dict[str, Any]
    problems: List[str]

    @property
    def digest(self) -> str:
        text = json.dumps(self.snapshot, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def seeded(name: str, seed: int) -> GameWorkload:
    """The named workload with its scene seed offset by ``seed``."""
    workload = workload_by_name(name)
    return dataclasses.replace(workload, seed=workload.seed + seed)


def _summary(frames: Sequence[FrameResult]) -> Dict[str, float]:
    """Per-point simulated totals the per-layer ``sim.*`` metrics sum."""
    caches = [frame.cache_stats for frame in frames]
    activity = [frame.path_activity for frame in frames]
    return {
        "summary.frame_cycles": sum(frame.frame_cycles for frame in frames),
        "summary.texture_latency_mean": (
            sum(frame.texture_filter_latency for frame in frames) / len(frames)
        ),
        "summary.texture_latency_total": sum(
            frame.texture_latency.mean * frame.texture_latency.count
            for frame in frames
        ),
        "summary.texture_requests": sum(
            frame.texture_latency.count for frame in frames
        ),
        "summary.external_texture_bytes": sum(
            frame.traffic.external_texture for frame in frames
        ),
        "summary.l1_hits": sum(stats.l1_hits for stats in caches),
        "summary.l1_accesses": sum(stats.l1_accesses for stats in caches),
        "summary.l2_hits": sum(stats.l2_hits for stats in caches),
        "summary.l2_accesses": sum(
            stats.l2_hits + stats.l2_misses for stats in caches
        ),
        "summary.parent_reuses": sum(item.parent_reuses for item in activity),
        "summary.parent_recalculations": sum(
            item.parent_recalculations for item in activity
        ),
    }


def _expand(
    spans: Any, expander: RequestExpander, trace: FragmentTrace
) -> List[Any]:
    """Traced request expansion, with the work it produced as counts."""
    with spans.span("core.expand") as counts:
        expanded = [expander.expand(request) for request in trace.requests]
    counts["items"] = len(expanded)
    counts["lines"] = sum(len(item.conventional_lines) for item in expanded)
    counts["child_lines"] = sum(
        len(parent.child_line_addresses)
        for item in expanded for parent in item.parents
    )
    return expanded


@dataclass
class Point:
    """One timed public call; subclasses define the call and its checks."""

    label: str
    group: str
    """The trace (or scene) this point shares with its sibling points."""
    design: Optional[str] = None
    threshold: Optional[str] = None

    def call(self) -> Any:
        raise NotImplementedError

    def call_traced(self, spans: Spans) -> Any:
        raise NotImplementedError

    def finish(self, raw: Any, spans: Any) -> Outcome:
        raise NotImplementedError

    def meta(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "group": self.group,
            "design": self.design,
            "threshold": self.threshold,
        }


@dataclass
class FramePoint(Point):
    """``simulate_frame`` (warm-up + measured replay) plus frame energy."""

    scene: Optional[Scene] = None
    trace: Optional[FragmentTrace] = None
    config: Optional[DesignConfig] = None
    energy_model: EnergyModel = field(default_factory=EnergyModel)

    def call(self) -> Tuple[DesignRun, Any]:
        run = simulate_frame(
            self.scene, self.trace, self.config, check_invariants=False
        )
        return run, self.energy_model.frame_energy(self.config.design, run.frame)

    def call_traced(self, spans: Spans) -> Tuple[DesignRun, Any]:
        """``simulate_frame``'s body, one span per layer call."""
        config, trace, scene = self.config, self.trace, self.scene
        design = config.design.value
        expanded = _expand(spans, RequestExpander(scene), trace)
        with spans.span("core.make_path"):
            traffic = TrafficMeter()
            path = make_texture_path(config, traffic)
            pipeline = GpuPipeline(config.gpu)
        with spans.span(f"gpu.replay_warmup.{design}") as counts:
            pipeline.replay_texture_stream(trace, expanded, path)
        counts["items"] = len(expanded)
        with spans.span("core.reset"):
            path.reset_for_measurement()
            traffic.reset()
        with spans.span(f"gpu.replay_measured.{design}") as counts:
            frame = pipeline.simulate_frame(
                trace=trace,
                expanded=expanded,
                path=path,
                traffic=traffic,
                num_vertices=scene.num_vertices,
                external_bytes_per_cycle=config.external_bytes_per_cycle,
            )
        counts["items"] = len(expanded)
        run = DesignRun(config=config, frame=frame, path=path)
        with spans.span("energy.frame_energy"):
            energy = self.energy_model.frame_energy(config.design, frame)
        return run, energy

    def finish(self, raw: Tuple[DesignRun, Any], spans: Any) -> Outcome:
        run, energy = raw
        with spans.span("analysis.invariants"):
            violations = check_run(run, raise_on_violation=False)
        snapshot: Dict[str, Any] = dict(run_stat_group(run).flatten())
        snapshot["energy.total_j"] = energy.total
        snapshot.update(_summary([run.frame]))
        return Outcome(
            requests=len(self.trace.requests),
            snapshot=snapshot,
            problems=[violation.format() for violation in violations],
        )


def _frame_level_check(config: DesignConfig, frame: FrameResult) -> List[str]:
    """The invariants that read only a drained frame.

    ``simulate_sequence`` resets the path's counters after every frame,
    so once a sequence returns, only frame-held state can be validated;
    the traced pass runs the full per-frame check between frames.
    """
    stand_in = types.SimpleNamespace(
        config=config, frame=frame, path=types.SimpleNamespace()
    )
    return [v.format() for v in check_run(stand_in, raise_on_violation=False)]


@dataclass
class SequencePoint(Point):
    """``simulate_sequence`` over cold-start persistent caches, plus energy."""

    scene: Optional[Scene] = None
    traces: Sequence[FragmentTrace] = ()
    config: Optional[DesignConfig] = None
    energy_model: EnergyModel = field(default_factory=EnergyModel)

    def _energies(self, frames: Sequence[FrameResult]) -> List[Any]:
        return [
            self.energy_model.frame_energy(self.config.design, frame)
            for frame in frames
        ]

    def call(self) -> Tuple[List[FrameResult], List[Any], Optional[List[str]]]:
        result = simulate_sequence(
            self.scene, self.traces, self.config, check_invariants=False
        )
        return result.frames, self._energies(result.frames), None

    def call_traced(
        self, spans: Spans
    ) -> Tuple[List[FrameResult], List[Any], List[str]]:
        """``simulate_sequence``'s body, one span per layer call."""
        config, scene = self.config, self.scene
        design = config.design.value
        with spans.span("core.make_path"):
            traffic = TrafficMeter()
            expander = RequestExpander(scene)
            path = make_texture_path(config, traffic)
            pipeline = GpuPipeline(config.gpu)
        frames: List[FrameResult] = []
        problems: List[str] = []
        for trace in self.traces:
            expanded = _expand(spans, expander, trace)
            before = traffic.snapshot()
            with spans.span(f"gpu.replay_measured.{design}") as counts:
                frame = pipeline.simulate_frame(
                    trace=trace,
                    expanded=expanded,
                    path=path,
                    traffic=traffic,
                    num_vertices=scene.num_vertices,
                    external_bytes_per_cycle=config.external_bytes_per_cycle,
                )
            counts["items"] = len(expanded)
            frame.traffic = traffic.since(before)
            frames.append(frame)
            with spans.span("analysis.invariants"):
                violations = check_run(
                    DesignRun(config=config, frame=frame, path=path),
                    raise_on_violation=False,
                )
            problems.extend(violation.format() for violation in violations)
            with spans.span("core.reset"):
                path.reset_for_measurement()
        with spans.span("energy.frame_energy"):
            energies = self._energies(frames)
        return frames, energies, problems

    def finish(self, raw: Any, spans: Any) -> Outcome:
        frames, energies, problems = raw
        if problems is None:
            with spans.span("analysis.invariants"):
                problems = [
                    message
                    for frame in frames
                    for message in _frame_level_check(self.config, frame)
                ]
        snapshot: Dict[str, Any] = {}
        for index, (frame, energy) in enumerate(zip(frames, energies)):
            snapshot.update(frame_stat_group(frame, name=f"frame{index}").flatten())
            snapshot[f"frame{index}.energy.total_j"] = energy.total
        snapshot.update(_summary(frames))
        return Outcome(
            requests=sum(len(trace.requests) for trace in self.traces),
            snapshot=snapshot,
            problems=problems,
        )


def _image_digest(image: Any) -> str:
    return hashlib.sha256(image.tobytes()).hexdigest()[:16]


@dataclass
class ExactPoint(Point):
    """``Renderer.render(EXACT)``: the Fig. 15 reference image."""

    scene: Optional[Scene] = None
    camera: Optional[Camera] = None
    renderer: Optional[Renderer] = None
    references: Dict[str, Any] = field(default_factory=dict)
    """Shared with the same scene's :class:`AtfimPoint` siblings."""

    def call(self) -> Any:
        output = self.renderer.render(self.scene, self.camera, SamplingMode.EXACT)
        self.references[self.group] = output.image
        return output

    def call_traced(self, spans: Spans) -> Any:
        # Rasterization alone, on a fresh renderer, so shading time can be
        # read off as render minus rasterize.
        shared = self.renderer.rasterizer
        rasterizer = Rasterizer(
            tile_size=shared.tile_size,
            max_anisotropy=shared.max_anisotropy,
            lod_bias=shared.lod_bias,
        )
        framebuffer = Framebuffer(self.renderer.width, self.renderer.height)
        with spans.span("render.rasterize") as counts:
            fragments = rasterizer.rasterize_scene(
                self.scene, self.camera, framebuffer
            )
        counts["items"] = len(fragments)
        with spans.span("render.render_exact") as counts:
            output = self.call()
        counts["items"] = len(output.trace.requests)
        return output

    def finish(self, raw: Any, spans: Any) -> Outcome:
        snapshot = {
            "render.fragments": len(raw.trace.requests),
            "render.image_sha256": _image_digest(raw.image),
        }
        return Outcome(
            requests=len(raw.trace.requests), snapshot=snapshot, problems=[]
        )


@dataclass
class AtfimPoint(Point):
    """``Renderer.render(ATFIM)`` at one threshold, plus ``psnr``."""

    scene: Optional[Scene] = None
    camera: Optional[Camera] = None
    renderer: Optional[Renderer] = None
    angle: AngleThreshold = DEFAULT_THRESHOLD
    references: Dict[str, Any] = field(default_factory=dict)

    def _render(self) -> Any:
        return self.renderer.render(
            self.scene,
            self.camera,
            SamplingMode.ATFIM,
            angle_threshold=self.angle.effective_radians,
        )

    def call(self) -> Tuple[Any, float]:
        output = self._render()
        return output, psnr(self.references[self.group], output.image)

    def call_traced(self, spans: Spans) -> Tuple[Any, float]:
        with spans.span("render.render_atfim") as counts:
            output = self._render()
        counts["items"] = len(output.trace.requests)
        counts["parent_reuses"] = output.parent_reuses
        counts["parent_lookups"] = (
            output.parent_reuses + output.parent_recalculations
        )
        with spans.span("quality.psnr"):
            value = psnr(self.references[self.group], output.image)
        return output, value

    def finish(self, raw: Tuple[Any, float], spans: Any) -> Outcome:
        output, value = raw
        problems = [] if math.isfinite(value) else [f"PSNR is {value}"]
        snapshot = {
            "render.fragments": len(output.trace.requests),
            "render.image_sha256": _image_digest(output.image),
            "render.parent_reuses": output.parent_reuses,
            "render.parent_recalculations": output.parent_recalculations,
            "quality.psnr_db": value,
        }
        return Outcome(
            requests=len(output.trace.requests),
            snapshot=snapshot,
            problems=problems,
        )


def _trace(spans: Any, renderer: Renderer, scene: Scene,
           camera: Camera) -> FragmentTrace:
    with spans.span("render.trace_only") as counts:
        trace = renderer.trace_only(scene, camera).trace
    counts["items"] = len(trace.requests)
    return trace


def _build(spans: Any, workload: GameWorkload) -> Any:
    with spans.span("workloads.build"):
        return workload.build()


def _frame_point(workload: GameWorkload, scene: Scene, trace: FragmentTrace,
                 design: Design, angle: AngleThreshold,
                 energy_model: EnergyModel) -> FramePoint:
    threshold = angle.label if design is Design.A_TFIM else None
    label = f"{workload.name}/{design.value}"
    if threshold:
        label += f"@{threshold}"
    return FramePoint(
        label=label,
        group=workload.name,
        design=design.value,
        threshold=threshold,
        scene=scene,
        trace=trace,
        config=workload.design_config(
            design, angle_threshold=angle.effective_radians
        ),
        energy_model=energy_model,
    )


def grid_fast(seed: int, spans: Any) -> List[Point]:
    """Figs. 10-13: every fast trace under all four designs."""
    energy_model = EnergyModel()
    points: List[Point] = []
    for name in FAST_WORKLOADS:
        workload = seeded(name, seed)
        built = _build(spans, workload)
        trace = _trace(spans, workload.make_renderer(), built.scene,
                       built.camera)
        for design in Design:
            points.append(_frame_point(workload, built.scene, trace, design,
                                       DEFAULT_THRESHOLD, energy_model))
    return points


def threshold_sweep(seed: int, spans: Any) -> List[Point]:
    """Fig. 14: baseline plus A-TFIM at every swept threshold."""
    energy_model = EnergyModel()
    points: List[Point] = []
    for name in ("hl2-640x480", "fear-640x480"):
        workload = seeded(name, seed)
        built = _build(spans, workload)
        trace = _trace(spans, workload.make_renderer(), built.scene,
                       built.camera)
        points.append(_frame_point(workload, built.scene, trace,
                                   Design.BASELINE, DEFAULT_THRESHOLD,
                                   energy_model))
        for angle in THRESHOLD_SWEEP:
            points.append(_frame_point(workload, built.scene, trace,
                                       Design.A_TFIM, angle, energy_model))
    return points


def animation(seed: int, spans: Any) -> List[Point]:
    """Two camera motions, each a cold-start sequence per design."""
    energy_model = EnergyModel()
    workload = seeded("doom3-640x480", seed)
    built = _build(spans, workload)
    renderer = workload.make_renderer()
    points: List[Point] = []
    motions: List[Tuple[str, Callable]] = [
        ("walk", walk_forward(4.0)), ("strafe", strafe(3.0)),
    ]
    for motion, factory in motions:
        cameras = factory(built.camera).cameras(built.camera, SEQUENCE_FRAMES)
        traces = [
            _trace(spans, renderer, built.scene, camera)
            for camera in cameras
        ]
        group = f"{workload.name}/{motion}"
        for design in (Design.BASELINE, Design.A_TFIM):
            threshold = (
                DEFAULT_THRESHOLD.label if design is Design.A_TFIM else None
            )
            points.append(SequencePoint(
                label=f"{group}/{design.value}",
                group=group,
                design=design.value,
                threshold=threshold,
                scene=built.scene,
                traces=traces,
                config=workload.design_config(
                    design,
                    angle_threshold=DEFAULT_THRESHOLD.effective_radians,
                ),
                energy_model=energy_model,
            ))
    return points


def quality(seed: int, spans: Any) -> List[Point]:
    """Fig. 15: an exact render, then A-TFIM render + PSNR per threshold."""
    points: List[Point] = []
    references: Dict[str, Any] = {}
    for name in FAST_WORKLOADS:
        workload = seeded(name, seed)
        built = _build(spans, workload)
        renderer = workload.make_renderer()
        common = dict(group=workload.name, scene=built.scene,
                      camera=built.camera, renderer=renderer,
                      references=references)
        points.append(ExactPoint(label=f"{workload.name}/exact", **common))
        for angle in THRESHOLD_SWEEP:
            points.append(AtfimPoint(
                label=f"{workload.name}/atfim@{angle.label}",
                threshold=angle.label,
                angle=angle,
                **common,
            ))
    return points


WORKLOADS: Dict[str, Callable[[int, Any], List[Point]]] = {
    "grid-fast": grid_fast,
    "threshold-sweep": threshold_sweep,
    "animation": animation,
    "quality": quality,
}
"""Workload name -> setup function returning the pass's points."""
