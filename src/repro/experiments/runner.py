"""Experiment runner: memoised design simulations and renders over the
workload grid.

Most figures slice the same underlying grid -- (workload x variant x
design x threshold x aniso) -- and Fig. 15 renders each workload's view
under every sampling policy it compares, so the runner memoises
:func:`simulate_frame` results (:class:`RunKey`), renders
(:class:`RenderKey`) and the per-view traces in process.  All
experiments are deterministic; the memo is purely a time saver.

:meth:`ExperimentRunner.run_many` computes every point: it runs a batch
one workload at a time, the longest first, in an order that lets
consecutive points share one request expansion (see
:func:`_by_workload`), and the renders of a view share the
rasterization its trace came from.  With ``jobs`` > 1 each workload is
one task on a ``spawn`` process pool: the task builds its own views,
computes its points and returns their results.
:meth:`~ExperimentRunner.run` and :meth:`~ExperimentRunner.render` read
one point through it.

A failed worker fails the whole batch: the first exception (or a dead
worker's ``BrokenProcessPool``) cancels the remaining tasks, shuts the
pool down and re-raises naming the workload that failed.  The memo
counters count point lookups (one per key of a batch, and one per
:meth:`~ExperimentRunner.energy` call), not trace lookups, so they
advance identically in the serial and parallel branches.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro import obs
from repro.core import Design, simulate_frame
from repro.core.angle import DEFAULT_THRESHOLD, AngleThreshold
from repro.core.frontend import DesignRun
from repro.energy import EnergyBreakdown, EnergyModel
from repro.memory.hmc import HmcConfig
from repro.render.camera import Camera
from repro.render.renderer import Renderer, SamplingMode
from repro.render.scene import Scene
from repro.texture.requests import FragmentTrace
from repro.workloads import WORKLOADS, GameWorkload, workload_by_name

FAST_WORKLOADS = ["doom3-640x480", "riddick-640x480", "wolfenstein-640x480"]
"""Small subset used by tests and quick runs (sub-second traces)."""


@dataclass(frozen=True)
class Variant:
    """The overrides of a workload's defaults that an ablation sweeps.

    ``max_anisotropy`` replaces the workload's anisotropy cap, so the
    variant has a trace of its own.  ``internal_bandwidth_multiplier``
    multiplies the HMC's internal bandwidth and clamps the external
    links to the result.  ``None`` and ``1.0`` keep the default;
    :func:`run_key` maps an override equal to the workload's default to
    them, so a variant at the defaults is the default key.
    """

    max_anisotropy: Optional[int] = None
    internal_bandwidth_multiplier: float = 1.0

    def workload(self, base: GameWorkload) -> GameWorkload:
        """``base`` with this variant's anisotropy cap."""
        if self.max_anisotropy is None:
            return base
        return dataclasses.replace(base, max_anisotropy=self.max_anisotropy)

    def hmc(self, workload: GameWorkload) -> HmcConfig:
        """The workload's HMC with this variant's internal bandwidth
        (the workload's own at 1.0)."""
        hmc = workload.hmc_config()
        internal = (
            hmc.internal_bandwidth_gb_per_s * self.internal_bandwidth_multiplier
        )
        return dataclasses.replace(
            hmc,
            internal_bandwidth_gb_per_s=internal,
            external_bandwidth_gb_per_s=min(
                hmc.external_bandwidth_gb_per_s, internal
            ),
        )


@dataclass(frozen=True)
class RunKey:
    """Memoisation key for one design simulation."""

    workload: str
    design: Design
    angle_threshold: float
    aniso_enabled: bool
    mtu_share: int = 1
    consolidation_enabled: bool = True
    variant: Variant = Variant()


@dataclass(frozen=True)
class RenderKey:
    """Memoisation key for one render of a workload's view (Fig. 15).

    ``angle_threshold`` (radians, unscaled) only applies to
    :attr:`SamplingMode.ATFIM`.
    """

    workload: str
    mode: SamplingMode
    angle_threshold: float = 0.0


@dataclass
class RenderResult:
    """What the runner keeps of one render: the image and, for A-TFIM,
    its parent reuse and recalculation counts."""

    image: np.ndarray
    parent_reuses: int
    parent_recalculations: int


Key = Union[RunKey, RenderKey]
Result = Union[DesignRun, RenderResult]


def run_key(
    workload: GameWorkload,
    design: Design,
    threshold: Optional[AngleThreshold] = None,
    aniso_enabled: bool = True,
    mtu_share: int = 1,
    consolidation_enabled: bool = True,
    max_anisotropy: Optional[int] = None,
    internal_bandwidth_multiplier: float = 1.0,
) -> RunKey:
    """The memo key of one design point of ``workload``.

    A ``max_anisotropy`` equal to the workload's own is no override, so
    a point at the workload's defaults has the default key whichever
    figure asks for it.
    """
    if max_anisotropy == workload.max_anisotropy:
        max_anisotropy = None
    return RunKey(
        workload=workload.name,
        design=design,
        angle_threshold=(threshold or DEFAULT_THRESHOLD).effective_radians,
        aniso_enabled=aniso_enabled,
        mtu_share=mtu_share,
        consolidation_enabled=consolidation_enabled,
        variant=Variant(max_anisotropy, internal_bandwidth_multiplier),
    )


def _in_task_order(group: Sequence[Key]) -> List[Key]:
    """One workload's keys in the order its task computes them.

    The design points come first, one trace (anisotropy cap) after
    another in order of first appearance, each trace's anisotropy-on
    points before its anisotropy-off ones; the renders come last.
    Otherwise keys keep their order.  ``simulate_frame`` keeps only the
    most recent request expansion, so a task then expands each trace
    once per anisotropy setting.
    """
    runs = [key for key in group if isinstance(key, RunKey)]
    caps = list(dict.fromkeys(key.variant.max_anisotropy for key in runs))
    runs.sort(key=lambda key: (
        caps.index(key.variant.max_anisotropy), not key.aniso_enabled
    ))
    return runs + [key for key in group if isinstance(key, RenderKey)]


_PIXELS = {
    workload.name: workload.sim_width * workload.sim_height
    for workload in WORKLOADS
}


def _by_workload(keys: Sequence[Key]) -> Dict[str, List[Key]]:
    """``keys`` grouped by workload, each group in task order (see
    :func:`_in_task_order`).

    The groups come longest first, so a pool submits its largest tasks
    first: a group's length is its points times its frame's pixels (an
    unknown workload's is 0; its task fails and names it).  Groups of
    equal length keep the order in which their workloads first appear.
    """
    groups: Dict[str, List[Key]] = {}
    for key in keys:
        groups.setdefault(key.workload, []).append(key)
    longest_first = sorted(
        groups, key=lambda name: -len(groups[name]) * _PIXELS.get(name, 0)
    )
    return {name: _in_task_order(groups[name]) for name in longest_first}


def _worker_workload(
    name: str, keys: Sequence[Key]
) -> Tuple[List[Result], List[Dict[str, Any]]]:
    """Pool task: compute one workload's points on a fresh runner.

    Returns the results in key order and this task's span forest (empty
    unless ``REPRO_TRACE`` is set: a spawned worker learns that tracing
    is on only from the environment).  A worker runs several tasks, so
    the tracer is reset first to keep each forest to its own task's
    spans.
    """
    obs.reset_tracer()
    with obs.span("worker.workload", workload=name, points=len(keys)):
        results = ExperimentRunner([name])._run_workload(name, keys)
    return results, obs.get_tracer().as_dicts()


def _pool_results(
    pool: Any,
    fn: Callable[[str, List[Key]], Any],
    groups: Dict[str, List[Key]],
) -> List[Any]:
    """``fn(name, keys)`` for every workload group on ``pool``, in order.

    The first task to fail cancels every task not yet started and shuts
    the pool down.  A task that raised its own exception is re-raised
    naming its workload.  When a worker died, every task that had not
    finished holds ``BrokenProcessPool``, which names no culprit, so the
    error says that the pool broke and lists those tasks' workloads.
    """
    from concurrent.futures import FIRST_EXCEPTION, wait
    from concurrent.futures.process import BrokenProcessPool

    futures = [pool.submit(fn, name, keys) for name, keys in groups.items()]
    done, _pending = wait(futures, return_when=FIRST_EXCEPTION)
    if all(future.exception() is None for future in done):
        return [future.result() for future in futures]
    pool.shutdown(wait=True, cancel_futures=True)
    unfinished = []
    for name, future in zip(groups, futures):
        error = None if future.cancelled() else future.exception()
        if error is not None and not isinstance(error, BrokenProcessPool):
            raise RuntimeError(
                f"run_many worker failed on workload {name!r}"
            ) from error
        if future.cancelled() or error is not None:
            unfinished.append(name)
    broken = next(future.exception() for future in done
                  if future.exception() is not None)
    raise RuntimeError(
        "run_many worker failed: the process pool broke before the tasks "
        f"of workloads {', '.join(map(repr, unfinished))} finished"
    ) from broken


class _View(NamedTuple):
    """A workload's scene and trace, and the camera and renderer that
    rasterized the one into the other."""

    traced: Tuple[Scene, FragmentTrace]
    camera: Camera
    renderer: Renderer


class ExperimentRunner:
    """Runs and memoises design simulations and renders over the
    workload set."""

    def __init__(self, workload_names: Optional[Sequence[str]] = None) -> None:
        if workload_names is None:
            self.workloads: List[GameWorkload] = list(WORKLOADS)
        else:
            self.workloads = [workload_by_name(name) for name in workload_names]
        self._views: Dict[GameWorkload, _View] = {}
        self._results: Dict[Key, Result] = {}
        self._energy: Dict[RunKey, EnergyBreakdown] = {}
        self.energy_model = EnergyModel()
        self.memo_hits = 0
        self.memo_misses = 0

    def _view(self, workload: GameWorkload) -> _View:
        """The workload's view, built and rasterized once per runner:
        its renders start from the rasterization of its trace."""
        view = self._views.get(workload)
        if view is None:
            with obs.span("runner.trace", workload=workload.name):
                built = workload.build()
                renderer = workload.make_renderer()
                output = renderer.trace_only(built.scene, built.camera)
            view = self._views[workload] = _View(
                (built.scene, output.trace), built.camera, renderer
            )
        return view

    def trace(self, workload: GameWorkload) -> Tuple[Scene, FragmentTrace]:
        """The workload's scene and trace, built once per runner."""
        return self._view(workload).traced

    def run(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
        **options: Any,
    ) -> DesignRun:
        """Simulate (memoised) one design point; ``options`` are
        :func:`run_key`'s."""
        key = run_key(workload, design, threshold, **options)
        return self.run_many([key])[key]

    def render(
        self,
        workload: GameWorkload,
        mode: SamplingMode,
        threshold: Optional[AngleThreshold] = None,
    ) -> RenderResult:
        """Render (memoised) the workload's view; ``threshold`` is an
        A-TFIM render's."""
        key = RenderKey(
            workload.name, mode, threshold.effective_radians if threshold else 0.0
        )
        return self.run_many([key])[key]

    def _simulate(self, workload: GameWorkload, key: RunKey) -> DesignRun:
        """Simulate ``key`` on its variant of ``workload``."""
        workload = key.variant.workload(workload)
        with obs.span(
            "runner.run", workload=workload.name, design=key.design.name
        ):
            scene, trace = self.trace(workload)
            config = workload.design_config(
                key.design,
                angle_threshold=key.angle_threshold,
                aniso_enabled=key.aniso_enabled,
                mtu_share=key.mtu_share,
                consolidation_enabled=key.consolidation_enabled,
                hmc=key.variant.hmc(workload),
            )
            return simulate_frame(scene, trace, config)

    def _render(self, workload: GameWorkload, key: RenderKey) -> RenderResult:
        """Render ``key`` from the workload's view."""
        view = self._view(workload)
        scene, _trace = view.traced
        output = view.renderer.render(
            scene, view.camera, key.mode, key.angle_threshold
        )
        return RenderResult(
            output.image, output.parent_reuses, output.parent_recalculations
        )

    def _run_workload(self, name: str, keys: Sequence[Key]) -> List[Result]:
        """Compute one workload's ``keys`` in order and memoise them."""
        workload = workload_by_name(name)
        for key in keys:
            compute = (
                self._render if isinstance(key, RenderKey) else self._simulate
            )
            self._results[key] = compute(workload, key)
        return [self._results[key] for key in keys]

    def run_many(
        self,
        keys: Sequence[Key],
        jobs: Optional[int] = None,
    ) -> Dict[Key, Result]:
        """Compute a batch of points; return them in key order.

        The keys not yet memoised are grouped by workload (see
        :func:`_by_workload`).  With ``jobs`` unset or at most 1, or a
        single workload, the groups run here in turn.  Otherwise each
        group is one task on a ``spawn`` process pool of
        ``min(jobs, workloads)`` workers, submitted in group order: the
        task builds the workload's views and returns its results.
        Results are identical either way because the whole pipeline is
        deterministic.

        Spawned workers see only their arguments and the environment
        (``REPRO_TRACE``, ``REPRO_CHECK_INVARIANTS``), never state the
        parent set up in memory.  The first failed task fails the batch
        (see :func:`_pool_results`); no partial result is returned.
        """
        pending: List[Key] = []
        for key in keys:
            if key in self._results:
                self.memo_hits += 1
            elif key not in pending:
                pending.append(key)
        self.memo_misses += len(pending)
        groups = _by_workload(pending)
        if jobs is not None and jobs > 1 and len(groups) > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            workers = min(jobs, len(groups))
            with obs.span(
                "runner.run_many", pending=len(pending), jobs=workers
            ) as current, ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                outputs = _pool_results(pool, _worker_workload, groups)
                if current is not None:
                    current.attributes["worker_spans"] = [
                        forest for _results, forest in outputs if forest
                    ]
            for group, (results, _forest) in zip(groups.values(), outputs):
                self._results.update(zip(group, results))
        elif groups:
            with obs.span("runner.run_many", pending=len(pending), jobs=1):
                for name, group in groups.items():
                    self._run_workload(name, group)
        return {key: self._results[key] for key in keys}

    def completed_runs(self) -> Dict[RunKey, DesignRun]:
        """Snapshot of every design run this runner has produced so far."""
        return {
            key: result for key, result in self._results.items()
            if isinstance(key, RunKey)
        }

    def completed_renders(self) -> Dict[RenderKey, RenderResult]:
        """Snapshot of every render this runner has produced so far."""
        return {
            key: result for key, result in self._results.items()
            if isinstance(key, RenderKey)
        }

    def energy(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> EnergyBreakdown:
        """Frame energy (memoised) for one design point."""
        key = run_key(workload, design, threshold)
        if key in self._energy:
            self.memo_hits += 1
            return self._energy[key]
        self.memo_misses += 1
        run = self.run(workload, design, threshold)
        breakdown = self.energy_model.frame_energy(design, run.frame)
        self._energy[key] = breakdown
        return breakdown

    def baseline(self, workload: GameWorkload) -> DesignRun:
        return self.run(workload, Design.BASELINE)

    # Convenience ratios ------------------------------------------------

    def texture_speedup(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> float:
        """Fig. 10 metric: mean texture-filter latency ratio."""
        run = self.run(workload, design, threshold)
        return run.frame.texture_speedup_over(self.baseline(workload).frame)

    def render_speedup(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> float:
        """Fig. 11 metric: frame makespan ratio."""
        run = self.run(workload, design, threshold)
        return run.frame.speedup_over(self.baseline(workload).frame)

    def texture_traffic_ratio(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> float:
        """Fig. 12 metric: external texture bytes, normalized."""
        run = self.run(workload, design, threshold)
        base = self.baseline(workload).frame.traffic.external_texture
        if base <= 0:
            raise ValueError(f"baseline of {workload.name} moved no texture bytes")
        return run.frame.traffic.external_texture / base

    def energy_ratio(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> float:
        """Fig. 13 metric: total frame energy, normalized."""
        energy = self.energy(workload, design, threshold)
        base = self.energy(workload, Design.BASELINE)
        return energy.total / base.total
