"""The public entry points: simulate frames and frame sequences.

``simulate_frame`` wires together a workload's fragment trace, the
request expander, the design-specific texture path, and the GPU pipeline
model, returning a :class:`DesignRun` with the frame result, energy, and
the design-specific counters the experiments report.

``simulate_sequence`` runs a multi-frame animation through *one*
persistent texture path: caches stay warm across frames while timing and
counters are attributed per frame -- the setting in which A-TFIM's
angle-tagged reuse (section V-C's "parent texels from different frames")
actually operates.

Both expand their traces through one memo (:func:`_expand`) that holds
the expansions of the last call's traces: the design points of a trace,
and the designs run over one camera path, share them, and a call on
other traces frees them.  ``simulate_frame`` also keeps its last run,
which serves the next call if only the angle threshold differs and the
run's angle comparisons cannot tell the two thresholds apart.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.atfim import AtfimPath
from repro.core.baseline import GpuFilteringPath
from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpandedFrame, RequestExpander
from repro.core.paths import TexturePath
from repro.core.stfim import StfimPath
from repro.gpu.pipeline import FrameResult, GpuPipeline
from repro.memory.traffic import TrafficMeter
from repro.render.scene import Scene
from repro.texture.lod import threshold_steps
from repro.texture.requests import FragmentTrace
from repro.units import Bytes, Cycles


def make_texture_path(config: DesignConfig, traffic: TrafficMeter) -> TexturePath:
    """Instantiate the texture path for a design point."""
    if config.design in (Design.BASELINE, Design.B_PIM):
        return GpuFilteringPath(config, traffic)
    if config.design is Design.S_TFIM:
        return StfimPath(config, traffic)
    if config.design is Design.A_TFIM:
        return AtfimPath(config, traffic)
    raise ValueError(f"unknown design {config.design}")


@dataclass
class DesignRun:
    """One design point's simulated frame plus derived metrics."""

    config: DesignConfig
    frame: FrameResult
    path: TexturePath

    @property
    def design(self) -> Design:
        return self.config.design

    @property
    def frame_cycles(self) -> Cycles:
        return self.frame.frame_cycles

    @property
    def texture_cycles(self) -> Cycles:
        return self.frame.texture_cycles

    @property
    def external_texture_bytes(self) -> Bytes:
        return self.frame.traffic.external_texture


_expansions: List[Tuple[Scene, FragmentTrace, bool, ExpandedFrame]] = []
"""The expansions of the last call's traces, each with its scene, trace
and ``aniso_enabled``."""


def _expand(
    scene: Scene, traces: Sequence[FragmentTrace], aniso_enabled: bool
) -> Iterator[ExpandedFrame]:
    """The expansion of each of ``traces`` in turn, shared across calls.

    The figures run every design point of a trace one after another, and
    a camera path is replayed under one design after another; the
    expansion depends only on the scene, the trace and
    ``aniso_enabled``.  So a memo holds the expansions of the last call's
    traces.  A call first drops every entry it will not use (another
    scene, other traces or another ``aniso_enabled``), then builds its
    missing entries as they are asked for, in order.  ``simulate_frame``
    therefore keeps one expansion alive and a sequence keeps its own, and
    a second design over the same traces expands nothing.  Entries are
    keyed on the identities of the scene and the trace, whose references
    they hold, so an id cannot be recycled while it is kept; the columns
    of a trace and of an expansion are read-only.
    """
    _expansions[:] = [
        entry for entry in _expansions
        if entry[0] is scene and entry[2] == aniso_enabled
        and any(entry[1] is trace for trace in traces)
    ]
    for trace in traces:
        expanded = next(
            (entry[3] for entry in _expansions if entry[1] is trace), None
        )
        if expanded is None:
            with obs.span("core.expand"):
                expanded = RequestExpander(scene).expand_frame(
                    trace, aniso_enabled
                )
            _expansions.append((scene, trace, aniso_enabled, expanded))
        yield expanded


_last_run: List[Tuple[Scene, FragmentTrace, DesignRun]] = []
"""The last run ``simulate_frame`` simulated, with its scene and trace."""


def _restated(
    scene: Scene, trace: FragmentTrace, config: DesignConfig
) -> Optional[DesignRun]:
    """The last simulated run restated with ``config``, where it is the
    run this call would simulate; else None.

    That holds when the call has the last call's scene and trace
    objects, differs from its config at most in
    ``angle_threshold`` and ``angle_threshold_scale``, and has an
    effective threshold whose step count
    (:func:`~repro.texture.lod.threshold_steps`) lies in the run's
    :attr:`~repro.core.paths.TexturePath.threshold_interval`, which
    spans every replay the run made: every angle comparison then comes
    out alike, and with it every counter, cycle and angle tag.  The
    stored run is not copied; a served call gets a shallow copy of it
    and of its path, carrying ``config`` and sharing the frame, caches
    and memory state.
    """
    if not _last_run:
        return None
    last_scene, last_trace, run = _last_run[0]
    if last_scene is not scene or last_trace is not trace:
        return None
    thresholds = dict(angle_threshold=run.config.angle_threshold,
                      angle_threshold_scale=run.config.angle_threshold_scale)
    if dataclasses.replace(config, **thresholds) != run.config:
        return None
    below, above = run.path.threshold_interval
    if not below <= threshold_steps(config.effective_angle_threshold) < above:
        return None
    path = copy.copy(run.path)
    path.config = config
    return dataclasses.replace(run, config=config, path=path)


def _resolve_check_invariants(check_invariants: Optional[bool]) -> bool:
    """``None`` defers to the REPRO_CHECK_INVARIANTS environment flag."""
    if check_invariants is not None:
        return check_invariants
    from repro.analysis.invariants import checks_enabled

    return checks_enabled()


def _check_run_invariants(run: "DesignRun") -> None:
    """Validate a drained run; raises InvariantError on violations."""
    from repro.analysis.invariants import check_run

    check_run(run, raise_on_violation=True)


def _replayed(
    scene: Scene, trace: FragmentTrace, config: DesignConfig
) -> DesignRun:
    """:func:`simulate_frame`'s simulation: the cold replay, and the
    warm one where the cold replay's caches call for it."""
    traffic = TrafficMeter()
    (expanded,) = _expand(scene, [trace], config.aniso_enabled)
    path = make_texture_path(config, traffic)
    pipeline = GpuPipeline(config.gpu)

    def replay() -> FrameResult:
        with obs.span("core.replay"):
            return pipeline.simulate_frame(
                trace=trace,
                expanded=expanded,
                path=path,
                traffic=traffic,
                num_vertices=scene.num_vertices,
                external_bytes_per_cycle=config.external_bytes_per_cycle,
            )

    frame = replay()
    warm = not path.warm_start_inert()
    if warm:
        path.reset_for_measurement()
        traffic.reset()
        frame = replay()
    obs.annotate(replays=2 if warm else 1)
    path.release_columns()
    return DesignRun(config=config, frame=frame, path=path)


def simulate_frame(
    scene: Scene,
    trace: FragmentTrace,
    config: DesignConfig,
    check_invariants: Optional[bool] = None,
) -> DesignRun:
    """Simulate one frame of ``trace`` under ``config``.

    ``scene`` supplies texture geometry (mip chains) for address
    expansion and the vertex count for the geometry stage.  The trace is
    design-independent -- all designs shade the same fragments; what
    differs is how their texture lookups are served.

    The measured frame is the frame replayed from the texture caches it
    leaves behind, modelling the steady state of a running game.  The
    frame is first replayed from the freshly built path.  If that cold
    replay's caches show that a warm start could change none of its
    cache outcomes (:meth:`TexturePath.warm_start_inert`), the warm
    replay would repeat it bit for bit, since ``reset_for_measurement``
    returns everything but the caches to its constructed state: the
    cold replay is then the measured frame.  Otherwise the path is
    reset for measurement and the frame replayed again.  The scaled
    caches hold far fewer lines than a frame touches, so a frame evicts
    the warm lines before it reuses them (a capacity regime), and 25 of
    the 40 workload x design points are inert, S-TFIM (which has no
    caches) everywhere.

    Consecutive calls on one (scene, trace) with the same
    ``aniso_enabled`` share one expansion (:func:`_expand`), and the
    call leaves no other expansion alive.

    A call that differs from the last simulated one (same scene and
    trace objects) only in ``angle_threshold`` or
    ``angle_threshold_scale``, with an effective threshold that decides
    every angle comparison of that run's replays alike
    (:attr:`TexturePath.threshold_interval`), replays nothing: it returns
    that run with its own config on the run and on its path
    (:func:`_restated`).  Fig. 14's loose thresholds recalculate
    nothing, so they are served so.  A returned run, its frame and its
    path may be shared with other calls' runs, so no caller may mutate
    one.

    ``check_invariants`` validates the drained frame against the
    conservation invariants of :mod:`repro.analysis.invariants`; ``None``
    defers to the ``REPRO_CHECK_INVARIANTS`` environment flag.  When
    tracing, the ``core.simulate_frame`` span records ``replays``: 0
    for a served call, 1, or 2 where the frame needed the warm replay.
    """
    with obs.span(
        "core.simulate_frame",
        design=config.design.value,
        requests=len(trace),
        aniso_enabled=config.aniso_enabled,
    ):
        run = _restated(scene, trace, config)
        if run is None:
            run = _replayed(scene, trace, config)
            _last_run[:] = [(scene, trace, run)]
        else:
            obs.annotate(replays=0)
        if _resolve_check_invariants(check_invariants):
            with obs.span("core.check_invariants"):
                _check_run_invariants(run)
        # Attach the drained frame's full StatGroup snapshot (stages,
        # traffic, caches, filter stages, memory service counters).
        if obs.tracing_enabled():
            obs.attach_stats(obs.run_stat_group(run))
        return run


@dataclass
class SequenceResult:
    """A simulated multi-frame run under one design."""

    config: DesignConfig
    frames: List[FrameResult]
    path: TexturePath

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def total_cycles(self) -> Cycles:
        return sum(frame.frame_cycles for frame in self.frames)

    @property
    def total_external_texture_bytes(self) -> Bytes:
        return sum(frame.traffic.external_texture for frame in self.frames)

    def speedup_over(self, baseline: "SequenceResult") -> float:
        if self.total_cycles <= 0:
            raise ValueError("degenerate sequence time")
        return baseline.total_cycles / self.total_cycles


def simulate_sequence(
    scene: Scene,
    traces: Sequence[FragmentTrace],
    config: DesignConfig,
    check_invariants: Optional[bool] = None,
) -> SequenceResult:
    """Simulate a sequence of frames with persistent texture caches.

    Unlike repeated :func:`simulate_frame` calls, the texture path (and
    therefore every cache and angle tag) survives across frames: frame N
    runs against the contents frame N-1 left behind, exactly as a game
    does.  Timing state and statistics are reset between frames, and each
    frame's traffic is attributed individually.

    The expansions of ``traces`` stay in :func:`_expand`'s memo until a
    call on other traces, so the next design run over the same traces
    (as a figure compares the baseline with A-TFIM) expands nothing.
    A doom3-640x480 expansion retains about 1.6 MiB.  When tracing, one
    ``core.simulate_sequence`` span holds the frames' spans.
    """
    if not traces:
        raise ValueError("a sequence needs at least one frame")
    checking = _resolve_check_invariants(check_invariants)
    traffic = TrafficMeter()
    path = make_texture_path(config, traffic)
    pipeline = GpuPipeline(config.gpu)
    expansions = _expand(scene, traces, config.aniso_enabled)

    frames: List[FrameResult] = []
    with obs.span("core.simulate_sequence", design=config.design.value,
                  frames=len(traces),
                  requests=sum(len(trace) for trace in traces)):
        for frame_index, trace in enumerate(traces):
            with obs.span("core.simulate_sequence_frame", frame=frame_index,
                          design=config.design.value):
                expanded = next(expansions)
                before = traffic.snapshot()
                frame = pipeline.simulate_frame(
                    trace=trace,
                    expanded=expanded,
                    path=path,
                    traffic=traffic,
                    num_vertices=scene.num_vertices,
                    external_bytes_per_cycle=config.external_bytes_per_cycle,
                )
                # Attribute this frame's traffic; hand the frame its own meter.
                frame.traffic = traffic.since(before)
                frames.append(frame)
                if checking:
                    # Drain-time check: the path's counters still describe
                    # this frame (they are reset just below for the next one).
                    _check_run_invariants(
                        DesignRun(config=config, frame=frame, path=path)
                    )
                # Fresh clocks and counters for the next frame; caches persist.
                path.reset_for_measurement()
        path.release_columns()
    return SequenceResult(config=config, frames=frames, path=path)
