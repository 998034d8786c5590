"""Experiment runner: memoised design simulations over the workload grid.

Most figures slice the same underlying grid -- (workload x design x
threshold x aniso) -- so the runner memoises :func:`simulate_frame`
results and the per-workload traces in process.  All experiments are
deterministic; the memo is purely a time saver.

:meth:`ExperimentRunner.run_many` runs a batch of grid points one
workload at a time, in an order that lets consecutive points share one
request expansion (see :func:`_by_workload`).  With ``jobs`` > 1 each
workload is one task on a ``spawn`` process pool: the task builds its
own trace, runs its points, and returns the runs.

A failed worker fails the whole batch: the first exception (or a dead
worker's ``BrokenProcessPool``) cancels the remaining tasks, shuts the
pool down and re-raises naming the workload that failed.  The memo
counters count design-point lookups (:meth:`ExperimentRunner.run`,
:meth:`~ExperimentRunner.energy` and one per key of a batch), not
trace lookups, so they advance identically in the serial and parallel
branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import Design, simulate_frame
from repro.core.angle import DEFAULT_THRESHOLD, AngleThreshold
from repro.core.frontend import DesignRun
from repro.energy import EnergyBreakdown, EnergyModel
from repro.render.scene import Scene
from repro.texture.requests import FragmentTrace
from repro.workloads import WORKLOADS, GameWorkload, workload_by_name

FAST_WORKLOADS = ["doom3-640x480", "riddick-640x480", "wolfenstein-640x480"]
"""Small subset used by tests and quick runs (sub-second traces)."""


@dataclass(frozen=True)
class RunKey:
    """Memoisation key for one design simulation."""

    workload: str
    design: Design
    angle_threshold: float
    aniso_enabled: bool
    mtu_share: int = 1
    consolidation_enabled: bool = True


def _by_workload(keys: Sequence[RunKey]) -> Dict[str, List[RunKey]]:
    """``keys`` grouped by workload, each group in expansion order.

    Groups follow the order in which their workloads first appear.
    Within a group the anisotropy-on points come first and the
    anisotropy-off ones last, each in key order: ``simulate_frame``
    keeps only the most recent request expansion, so a group then
    expands its trace once per anisotropy setting.
    """
    groups: Dict[str, List[RunKey]] = {}
    for key in keys:
        groups.setdefault(key.workload, []).append(key)
    return {
        name: sorted(group, key=lambda point: not point.aniso_enabled)
        for name, group in groups.items()
    }


def _worker_workload(
    name: str, keys: Sequence[RunKey]
) -> Tuple[List[DesignRun], List[Dict[str, Any]]]:
    """Pool task: simulate one workload's points on a fresh runner.

    Returns the runs in key order and this task's span forest (empty
    unless ``REPRO_TRACE`` is set: a spawned worker learns that tracing
    is on only from the environment).  A worker runs several tasks, so
    the tracer is reset first to keep each forest to its own task's
    spans.
    """
    obs.reset_tracer()
    with obs.span("worker.workload", workload=name, runs=len(keys)):
        runs = ExperimentRunner([name])._run_workload(name, keys)
    return runs, obs.get_tracer().as_dicts()


def _pool_results(
    pool: Any,
    fn: Callable[[str, List[RunKey]], Any],
    groups: Dict[str, List[RunKey]],
) -> List[Any]:
    """``fn(name, keys)`` for every workload group on ``pool``, in order.

    The first task to fail -- with its own exception, or with
    ``BrokenProcessPool`` when a worker died -- cancels every task not
    yet started, shuts the pool down and is re-raised naming its
    workload.
    """
    from concurrent.futures import FIRST_EXCEPTION, wait

    futures = [pool.submit(fn, name, keys) for name, keys in groups.items()]
    done, _pending = wait(futures, return_when=FIRST_EXCEPTION)
    for name, future in zip(groups, futures):
        if future in done and future.exception() is not None:
            pool.shutdown(wait=True, cancel_futures=True)
            raise RuntimeError(
                f"run_many worker failed on workload {name!r}"
            ) from future.exception()
    return [future.result() for future in futures]


class ExperimentRunner:
    """Runs and memoises design simulations over the workload set."""

    def __init__(self, workload_names: Optional[Sequence[str]] = None) -> None:
        if workload_names is None:
            self.workloads: List[GameWorkload] = list(WORKLOADS)
        else:
            self.workloads = [workload_by_name(name) for name in workload_names]
        self._traces: Dict[str, Tuple[Scene, FragmentTrace]] = {}
        self._runs: Dict[RunKey, DesignRun] = {}
        self._energy: Dict[RunKey, EnergyBreakdown] = {}
        self.energy_model = EnergyModel()
        self.memo_hits = 0
        self.memo_misses = 0

    def trace(self, workload: GameWorkload) -> Tuple[Scene, FragmentTrace]:
        """The workload's scene and trace, built once per runner."""
        pair = self._traces.get(workload.name)
        if pair is None:
            with obs.span("runner.trace", workload=workload.name):
                pair = workload.trace()
            self._traces[workload.name] = pair
        return pair

    def run(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
        aniso_enabled: bool = True,
        mtu_share: int = 1,
        consolidation_enabled: bool = True,
    ) -> DesignRun:
        """Simulate (memoised) one design point."""
        threshold = threshold or DEFAULT_THRESHOLD
        key = RunKey(
            workload=workload.name,
            design=design,
            angle_threshold=threshold.effective_radians,
            aniso_enabled=aniso_enabled,
            mtu_share=mtu_share,
            consolidation_enabled=consolidation_enabled,
        )
        if key in self._runs:
            self.memo_hits += 1
            return self._runs[key]
        self.memo_misses += 1
        return self._simulate(workload, key)

    def _simulate(self, workload: GameWorkload, key: RunKey) -> DesignRun:
        """The memo's miss path: simulate ``key`` and memoise the run."""
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
            )
            run = simulate_frame(scene, trace, config)
        self._runs[key] = run
        return run

    def _run_workload(
        self, name: str, keys: Sequence[RunKey]
    ) -> List[DesignRun]:
        """Run one workload's ``keys`` in order through :meth:`_simulate`."""
        workload = workload_by_name(name)
        return [self._simulate(workload, key) for key in keys]

    def run_many(
        self,
        keys: Sequence[RunKey],
        jobs: Optional[int] = None,
    ) -> Dict[RunKey, DesignRun]:
        """Simulate a batch of grid points; return them in key order.

        The keys not yet memoised are grouped by workload (see
        :func:`_by_workload`).  With ``jobs`` unset or at most 1, or a
        single workload, the groups run here in turn.  Otherwise each
        group is one task on a ``spawn`` process pool of
        ``min(jobs, workloads)`` workers: the task builds the workload's
        trace and returns its runs.  Results are identical either way
        because the whole pipeline is deterministic.

        Spawned workers see only their arguments and the environment
        (``REPRO_TRACE``, ``REPRO_CHECK_INVARIANTS``), never state the
        parent set up in memory.  The first failed task fails the batch
        (see :func:`_pool_results`); no partial result is returned.
        """
        pending: List[RunKey] = []
        for key in keys:
            if key in self._runs:
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
                        forest for _runs, forest in outputs if forest
                    ]
            for group, (runs, _forest) in zip(groups.values(), outputs):
                self._runs.update(zip(group, runs))
        elif groups:
            with obs.span("runner.run_many", pending=len(pending), jobs=1):
                for name, group in groups.items():
                    self._run_workload(name, group)
        return {key: self._runs[key] for key in keys}

    def completed_runs(self) -> Dict[RunKey, DesignRun]:
        """Snapshot of every design run this runner has produced so far."""
        return dict(self._runs)

    def energy(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> EnergyBreakdown:
        """Frame energy (memoised) for one design point."""
        threshold = threshold or DEFAULT_THRESHOLD
        key = RunKey(
            workload=workload.name,
            design=design,
            angle_threshold=threshold.effective_radians,
            aniso_enabled=True,
        )
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
