"""Experiment runner with memoised, disk-cached, parallel simulations.

Most figures slice the same underlying grid -- (workload x design x
threshold x aniso) -- so the runner memoises :func:`simulate_frame`
results and the per-workload traces.  All experiments are deterministic;
the caches are purely time savers.

Three layers, consulted in order:

* an in-process memo (``RunKey`` -> result dictionaries, as before);
* an optional on-disk :class:`~repro.experiments.cache.DiskCache`, keyed
  by workload/config/source-version content hashes, so reruns of the
  figure suite are incremental across processes and sessions (enable by
  passing ``cache_dir`` or setting ``REPRO_CACHE_DIR``);
* :meth:`ExperimentRunner.run_many`, which fans a batch of grid points
  out over a process pool -- traces first (one per distinct workload),
  then the design runs -- with workers communicating through the disk
  cache rather than shipping multi-megabyte traces back.

The fan-out is fault tolerant: scheduling goes through
:func:`repro.faults.executor.run_fanout`, so a failed task attempt is
retried with exponential backoff, a dead worker (``BrokenProcessPool``)
triggers a pool rebuild with in-flight keys requeued, and a task that
exhausts its retry budget degrades to serial in-process execution.
Whatever happens, ``run_many`` returns every result it obtained, and
:meth:`ExperimentRunner.fanout_report` labels each key with its
:class:`~repro.faults.outcomes.RunOutcome` (ok / retried / degraded /
failed).  Memoisation counters advance identically in the serial and
parallel branches: one miss per scheduled grid point (trace memoisation
is only counted by direct :meth:`ExperimentRunner.trace` /
:meth:`ExperimentRunner.run` calls).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults, obs
from repro.core import Design, simulate_frame
from repro.core.angle import DEFAULT_THRESHOLD, AngleThreshold
from repro.core.frontend import DesignRun
from repro.energy import EnergyBreakdown, EnergyModel
from repro.experiments.cache import DiskCache
from repro.faults import (
    FanoutReport,
    FanoutTask,
    FaultContext,
    RetryPolicy,
    RunOutcome,
    TaskReport,
    run_fanout,
    task_token,
)
from repro.render.scene import Scene
from repro.texture.requests import FragmentTrace
from repro.units import Radians
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
    memory_backend: str = "hmc"
    """PIM substrate (:mod:`repro.memory.registry` name)."""
    link_bandwidth_scale: float = 1.0
    """External-interface multiplier of the substrate (sweep axis)."""


@dataclass
class RunnerCacheStats:
    """Cache effectiveness counters for one :class:`ExperimentRunner`."""

    memo_hits: int
    memo_misses: int
    disk_hits: int
    disk_misses: int
    disk_stores: int
    disk_errors: int
    disk_entries: int
    disk_bytes: int

    @property
    def disk_hit_rate(self) -> float:
        total = self.disk_hits + self.disk_misses
        return self.disk_hits / total if total else 0.0


def _run_payload(key: RunKey) -> Dict[str, Any]:
    """Canonical JSON-able payload identifying one design run."""
    return {
        "workload": key.workload,
        "design": key.design.name,
        "angle_threshold": key.angle_threshold,
        "aniso_enabled": key.aniso_enabled,
        "mtu_share": key.mtu_share,
        "consolidation_enabled": key.consolidation_enabled,
        "memory_backend": key.memory_backend,
        "link_bandwidth_scale": key.link_bandwidth_scale,
    }


def _trace_pair(
    cache: DiskCache, workload: GameWorkload
) -> Tuple[Scene, FragmentTrace]:
    """Load (or generate and persist) a workload's scene + trace."""
    trace_key = cache.key("trace", workload=workload.name)
    hit, pair = cache.load(trace_key)
    if not hit:
        pair = workload.trace()
        cache.store_safe(trace_key, pair)
    return pair


def _worker_trace(
    workload_name: str, cache_root: str,
    ctx: Optional[FaultContext] = None,
) -> str:
    """Pool worker: ensure one workload's trace exists in the disk cache."""
    faults.enter_worker(ctx)
    cache = DiskCache(root=Path(cache_root))
    _trace_pair(cache, workload_by_name(workload_name))
    return workload_name


def _worker_run(
    key: RunKey, cache_root: str,
    ctx: Optional[FaultContext] = None,
) -> DesignRun:
    """Pool worker: simulate one grid point, reading/writing the cache."""
    faults.enter_worker(ctx)
    cache = DiskCache(root=Path(cache_root))
    run_key = cache.key("run", **_run_payload(key))
    hit, run = cache.load(run_key)
    if hit:
        return run
    workload = workload_by_name(key.workload)
    scene, trace = _trace_pair(cache, workload)
    config = workload.design_config(
        key.design,
        angle_threshold=key.angle_threshold,
        aniso_enabled=key.aniso_enabled,
        mtu_share=key.mtu_share,
        consolidation_enabled=key.consolidation_enabled,
        memory_backend=key.memory_backend,
        link_bandwidth_scale=key.link_bandwidth_scale,
    )
    run = simulate_frame(scene, trace, config)
    cache.store_safe(run_key, run)
    return run


def _worker_trace_traced(
    workload_name: str, cache_root: str,
    ctx: Optional[FaultContext] = None,
) -> Tuple[str, List[Dict[str, Any]]]:
    """Traced pool worker: trace generation plus this worker's span forest.

    Forked workers inherit the parent's half-built tracer state, so the
    tracer is reset before any spans are recorded here -- except when
    running in the parent itself (the degraded fallback under
    :func:`faults.suppress`, or a serial-backend attempt under
    :func:`faults.inline_execution`), where the parent's live tracer
    already covers the work and resetting it would destroy the run's
    span forest.
    """
    if faults.suppressed() or faults.inline():
        return _worker_trace(workload_name, cache_root, ctx), []
    obs.reset_tracer()
    with obs.span("worker.trace", workload=workload_name):
        result = _worker_trace(workload_name, cache_root, ctx)
    return result, obs.get_tracer().as_dicts()


def _worker_run_traced(
    key: RunKey, cache_root: str,
    ctx: Optional[FaultContext] = None,
) -> Tuple[DesignRun, List[Dict[str, Any]]]:
    """Traced pool worker: one grid point plus this worker's span forest."""
    if faults.suppressed() or faults.inline():
        return _worker_run(key, cache_root, ctx), []
    obs.reset_tracer()
    with obs.span(
        "worker.run", workload=key.workload, design=key.design.name
    ):
        result = _worker_run(key, cache_root, ctx)
    return result, obs.get_tracer().as_dicts()


def _graft_worker_spans(phase_span, forests: Sequence[List[Dict[str, Any]]]) -> None:
    """Attach each worker's span forest to a fan-out phase span."""
    if phase_span is None:
        return
    phase_span.attributes["worker_spans"] = [
        forest for forest in forests if forest
    ]


class ExperimentRunner:
    """Runs and memoises design simulations over the workload set."""

    def __init__(
        self,
        workload_names: Optional[Sequence[str]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        jobs: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if workload_names is None:
            self.workloads: List[GameWorkload] = list(WORKLOADS)
        else:
            self.workloads = [workload_by_name(name) for name in workload_names]
        self._traces: Dict[str, Tuple[Scene, FragmentTrace]] = {}
        self._runs: Dict[RunKey, DesignRun] = {}
        self._energy: Dict[RunKey, EnergyBreakdown] = {}
        self.energy_model = EnergyModel()
        self.jobs = jobs
        self.retry_policy = retry_policy or RetryPolicy()
        self.memo_hits = 0
        self.memo_misses = 0
        self._last_fanout = FanoutReport()
        if cache_dir is None:
            env = os.environ.get("REPRO_CACHE_DIR")
            cache_dir = Path(env) if env else None
        self._disk: Optional[DiskCache] = (
            DiskCache(root=Path(cache_dir)) if cache_dir is not None
            else None
        )

    @property
    def disk_cache(self) -> Optional[DiskCache]:
        """The persistent cache, or ``None`` when running memo-only."""
        return self._disk

    def fanout_report(self) -> FanoutReport:
        """Per-key robustness outcomes of the most recent :meth:`run_many`.

        Empty until the first ``run_many`` call; keys already served from
        the memo are not listed (they were never scheduled).
        """
        return self._last_fanout

    def trace(self, workload: GameWorkload) -> Tuple[Scene, FragmentTrace]:
        if workload.name in self._traces:
            self.memo_hits += 1
            return self._traces[workload.name]
        self.memo_misses += 1
        with obs.span("runner.trace", workload=workload.name):
            if self._disk is not None:
                pair = _trace_pair(self._disk, workload)
            else:
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
        """Simulate (memoised + disk-cached) one design point."""
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
        with obs.span(
            "runner.run", workload=workload.name, design=design.name
        ) as current:
            disk_key = None
            if self._disk is not None:
                disk_key = self._disk.key("run", **_run_payload(key))
                hit, run = self._disk.load(disk_key)
                if hit:
                    self._runs[key] = run
                    if current is not None:
                        current.attributes["source"] = "disk"
                    return run
            scene, trace = self.trace(workload)
            config = workload.design_config(
                design,
                angle_threshold=threshold.effective_radians,
                aniso_enabled=aniso_enabled,
                mtu_share=mtu_share,
                consolidation_enabled=consolidation_enabled,
            )
            run = simulate_frame(scene, trace, config)
            if current is not None:
                current.attributes["source"] = "simulated"
            self._runs[key] = run
            if self._disk is not None and disk_key is not None:
                self._disk.store_safe(disk_key, run)
            return run

    def _simulate_pending(self, key: RunKey) -> DesignRun:
        """Serially simulate one grid point ``run_many`` already accounted.

        Identical to the miss path of :meth:`run` except that it touches
        no memoisation counters: :meth:`run_many` charges exactly one
        memo miss per scheduled key in both its serial and parallel
        branches, so the two stay comparable.
        """
        with obs.span(
            "runner.run", workload=key.workload, design=key.design.name
        ) as current:
            disk_key = None
            if self._disk is not None:
                disk_key = self._disk.key("run", **_run_payload(key))
                hit, run = self._disk.load(disk_key)
                if hit:
                    self._runs[key] = run
                    if current is not None:
                        current.attributes["source"] = "disk"
                    return run
            workload = workload_by_name(key.workload)
            pair = self._traces.get(workload.name)
            if pair is None:
                with obs.span("runner.trace", workload=workload.name):
                    if self._disk is not None:
                        pair = _trace_pair(self._disk, workload)
                    else:
                        pair = workload.trace()
                self._traces[workload.name] = pair
            scene, trace = pair
            config = workload.design_config(
                key.design,
                angle_threshold=key.angle_threshold,
                aniso_enabled=key.aniso_enabled,
                mtu_share=key.mtu_share,
                consolidation_enabled=key.consolidation_enabled,
                memory_backend=key.memory_backend,
                link_bandwidth_scale=key.link_bandwidth_scale,
            )
            run = simulate_frame(scene, trace, config)
            if current is not None:
                current.attributes["source"] = "simulated"
            self._runs[key] = run
            if self._disk is not None and disk_key is not None:
                self._disk.store_safe(disk_key, run)
            return run

    def run_many(
        self,
        keys: Sequence[RunKey],
        jobs: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
        backend: Optional[str] = None,
    ) -> Dict[RunKey, DesignRun]:
        """Simulate a batch of grid points, fanning out across processes.

        Two phases: first every distinct workload's trace is generated
        (one worker each), then the design runs execute against the
        now-warm cache.  Workers exchange artefacts through the disk
        cache; when the runner has none configured, a temporary one
        scoped to this call is used.  With ``jobs=1`` (or a single key)
        everything runs in-process -- results are identical either way
        because the whole pipeline is deterministic.

        ``backend`` names an executor backend
        (:data:`repro.faults.BACKEND_NAMES`: ``serial`` or
        ``process-pool``); naming one routes scheduling through
        :func:`~repro.faults.executor.run_fanout` on that backend even
        when ``jobs`` would otherwise take the in-process shortcut, so
        cross-backend comparisons exercise the same code path.

        The parallel branch is fault tolerant (see
        :func:`repro.faults.executor.run_fanout`): failed attempts are
        retried under ``retry_policy`` (default: the runner's), tasks
        exceeding ``task_timeout`` seconds are requeued after a pool
        rebuild, and keys that exhaust their retries fall back to serial
        in-process execution.  The returned mapping contains every key
        that produced a result -- possibly a strict subset of ``keys``;
        consult :meth:`fanout_report` for per-key outcomes.
        """
        jobs = jobs if jobs is not None else self.jobs
        if jobs is None:
            jobs = os.cpu_count() or 1
        results: Dict[RunKey, DesignRun] = {}
        pending: List[RunKey] = []
        report = FanoutReport()
        self._last_fanout = report
        for key in keys:
            if key in self._runs:
                self.memo_hits += 1
                results[key] = self._runs[key]
            elif key not in pending:
                pending.append(key)
        if not pending:
            return results
        self.memo_misses += len(pending)

        if backend is None and (jobs <= 1 or len(pending) == 1):
            with obs.span(
                "runner.run_many", pending=len(pending), jobs=1
            ):
                for key in pending:
                    report.tasks[key] = TaskReport(
                        token=task_token(key), outcome=RunOutcome.OK,
                        attempts=1,
                    )
                    results[key] = self._simulate_pending(key)
            return results

        scratch: Optional[tempfile.TemporaryDirectory] = None
        if self._disk is not None:
            cache_root = str(self._disk.root)
        else:
            scratch = tempfile.TemporaryDirectory(prefix="repro-cache-")
            cache_root = scratch.name
        traced = obs.tracing_enabled()
        policy = retry_policy if retry_policy is not None else self.retry_policy
        trace_fn = _worker_trace_traced if traced else _worker_trace
        run_fn = _worker_run_traced if traced else _worker_run
        workload_names: List[str] = []
        for key in pending:
            if key.workload not in workload_names:
                workload_names.append(key.workload)
        try:
            with obs.span(
                "runner.run_many", pending=len(pending), jobs=jobs
            ) as many_span:
                with obs.span(
                    "runner.trace_phase", workloads=len(workload_names)
                ) as trace_phase:
                    trace_results, trace_report = run_fanout(
                        [
                            FanoutTask(
                                key=name, fn=trace_fn, args=(name, cache_root)
                            )
                            for name in workload_names
                        ],
                        jobs=min(jobs, len(workload_names)),
                        policy=policy,
                        task_timeout=task_timeout,
                        phase="faults.trace_fanout",
                        backend=backend,
                    )
                    if traced:
                        # Graft in submission order, not dict (completion)
                        # order, so the manifest span tree is bit-identical
                        # across runs.
                        _graft_worker_spans(
                            trace_phase,
                            [trace_results[name][1] for name in workload_names
                             if name in trace_results],
                        )
                report.merge(trace_report)
                with obs.span(
                    "runner.run_phase", runs=len(pending)
                ) as run_phase:
                    run_results, run_report = run_fanout(
                        [
                            FanoutTask(
                                key=key, fn=run_fn, args=(key, cache_root)
                            )
                            for key in pending
                        ],
                        jobs=jobs,
                        policy=policy,
                        task_timeout=task_timeout,
                        phase="faults.run_fanout",
                        backend=backend,
                    )
                    if traced:
                        _graft_worker_spans(
                            run_phase,
                            [run_results[key][1] for key in pending
                             if key in run_results],
                        )
                report.merge(run_report)
                for key in pending:
                    if key not in run_results:
                        continue  # FAILED: absent, labelled in the report
                    value = run_results[key]
                    run = value[0] if traced else value
                    self._runs[key] = run
                    results[key] = run
                if many_span is not None:
                    summary = report.as_dict()
                    del summary["tasks"]
                    many_span.attributes["fanout"] = summary
        finally:
            if scratch is not None:
                scratch.cleanup()
        return results

    def completed_runs(self) -> Dict[RunKey, DesignRun]:
        """Snapshot of every design run this runner has produced so far."""
        return dict(self._runs)

    def energy(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> EnergyBreakdown:
        """Frame energy (memoised + disk-cached) for one design point."""
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
        disk_key = None
        if self._disk is not None:
            disk_key = self._disk.key("energy", **_run_payload(key))
            hit, breakdown = self._disk.load(disk_key)
            if hit:
                self._energy[key] = breakdown
                return breakdown
        run = self.run(workload, design, threshold)
        breakdown = self.energy_model.frame_energy(design, run.frame)
        self._energy[key] = breakdown
        if self._disk is not None and disk_key is not None:
            self._disk.store_safe(disk_key, breakdown)
        return breakdown

    def cache_stats(self) -> RunnerCacheStats:
        """Memoisation and disk-cache effectiveness counters."""
        disk = self._disk
        return RunnerCacheStats(
            memo_hits=self.memo_hits,
            memo_misses=self.memo_misses,
            disk_hits=disk.stats.hits if disk else 0,
            disk_misses=disk.stats.misses if disk else 0,
            disk_stores=disk.stats.stores if disk else 0,
            disk_errors=disk.stats.errors if disk else 0,
            disk_entries=disk.entries() if disk else 0,
            disk_bytes=disk.total_bytes() if disk else 0,
        )

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
