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
  out over one ``spawn`` process pool -- traces first (one per distinct
  workload), then the design runs -- with workers communicating through
  the disk cache rather than shipping multi-megabyte traces back.

A failed worker fails the whole batch: the first exception (or a dead
worker's ``BrokenProcessPool``) cancels the remaining tasks, shuts the
pool down and re-raises naming the workload or :class:`RunKey` that
failed.  Memoisation counters advance identically in the serial and
parallel branches: one miss per scheduled grid point (trace memoisation
is only counted by direct :meth:`ExperimentRunner.trace` /
:meth:`ExperimentRunner.run` calls).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core import Design, simulate_frame
from repro.core.angle import DEFAULT_THRESHOLD, AngleThreshold
from repro.core.frontend import DesignRun
from repro.energy import EnergyBreakdown, EnergyModel
from repro.experiments.cache import DiskCache
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


def _simulate_key(
    workload: GameWorkload, pair: Tuple[Scene, FragmentTrace], key: RunKey
) -> DesignRun:
    """Simulate the grid point ``key`` on the workload's scene + trace."""
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
    return simulate_frame(scene, trace, config)


def _worker_trace(
    workload_name: str, cache_root: str
) -> List[Dict[str, Any]]:
    """Pool worker: ensure one workload's trace exists in the disk cache.

    Returns this task's span forest (empty unless ``REPRO_TRACE`` is set:
    a spawned worker learns that tracing is on only from the
    environment).  A worker runs several tasks, so the tracer is reset
    first to keep each forest to its own task's spans.
    """
    obs.reset_tracer()
    with obs.span("worker.trace", workload=workload_name):
        cache = DiskCache(root=Path(cache_root))
        _trace_pair(cache, workload_by_name(workload_name))
    return obs.get_tracer().as_dicts()


def _worker_run(
    key: RunKey, cache_root: str
) -> Tuple[DesignRun, List[Dict[str, Any]]]:
    """Pool worker: simulate one grid point, reading/writing the cache.

    Returns the run and this task's span forest (see :func:`_worker_trace`).
    """
    obs.reset_tracer()
    with obs.span(
        "worker.run", workload=key.workload, design=key.design.name
    ):
        cache = DiskCache(root=Path(cache_root))
        run_key = cache.key("run", **_run_payload(key))
        hit, run = cache.load(run_key)
        if not hit:
            workload = workload_by_name(key.workload)
            run = _simulate_key(workload, _trace_pair(cache, workload), key)
            cache.store_safe(run_key, run)
    return run, obs.get_tracer().as_dicts()


def _pool_results(
    pool: Any,
    fn: Callable[[Any, str], Any],
    items: Sequence[Any],
    cache_root: str,
) -> List[Any]:
    """``fn(item, cache_root)`` for every item on ``pool``, in item order.

    The first task to fail -- with its own exception, or with
    ``BrokenProcessPool`` when a worker died -- cancels every task not
    yet started, shuts the pool down and is re-raised naming its item.
    """
    from concurrent.futures import FIRST_EXCEPTION, wait

    futures = [pool.submit(fn, item, cache_root) for item in items]
    done, _pending = wait(futures, return_when=FIRST_EXCEPTION)
    for item, future in zip(items, futures):
        if future in done and future.exception() is not None:
            pool.shutdown(wait=True, cancel_futures=True)
            raise RuntimeError(
                f"run_many worker failed on {item!r}"
            ) from future.exception()
    return [future.result() for future in futures]


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
        self.memo_hits = 0
        self.memo_misses = 0
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
            run = _simulate_key(workload, pair, key)
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
    ) -> Dict[RunKey, DesignRun]:
        """Simulate a batch of grid points, fanning out across processes.

        Two phases share one ``spawn`` process pool of
        ``min(jobs, pending keys)`` workers: first every distinct
        workload's trace is generated (one task each), then the design
        runs execute against the now-warm cache.  Workers exchange
        artefacts through the disk cache; when the runner has none
        configured, a temporary one scoped to this call is used.  With
        ``jobs=1`` (or a single key) everything runs in-process --
        results are identical either way because the whole pipeline is
        deterministic.

        Spawned workers see only their arguments and the environment
        (``REPRO_TRACE``, ``REPRO_CHECK_INVARIANTS``), never state the
        parent set up in memory.  The first failed task fails the batch
        (see :func:`_pool_results`); no partial result is returned.
        """
        jobs = jobs if jobs is not None else self.jobs
        if jobs is None:
            jobs = os.cpu_count() or 1
        results: Dict[RunKey, DesignRun] = {}
        pending: List[RunKey] = []
        for key in keys:
            if key in self._runs:
                self.memo_hits += 1
                results[key] = self._runs[key]
            elif key not in pending:
                pending.append(key)
        if not pending:
            return results
        self.memo_misses += len(pending)

        if jobs <= 1 or len(pending) == 1:
            with obs.span(
                "runner.run_many", pending=len(pending), jobs=1
            ):
                for key in pending:
                    results[key] = self._simulate_pending(key)
            return results

        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        scratch: Optional[tempfile.TemporaryDirectory] = None
        if self._disk is not None:
            cache_root = str(self._disk.root)
        else:
            scratch = tempfile.TemporaryDirectory(prefix="repro-cache-")
            cache_root = scratch.name
        workload_names = list(dict.fromkeys(key.workload for key in pending))
        workers = min(jobs, len(pending))
        try:
            with obs.span(
                "runner.run_many", pending=len(pending), jobs=workers
            ), ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                with obs.span(
                    "runner.trace_phase", workloads=len(workload_names)
                ) as trace_phase:
                    forests = _pool_results(
                        pool, _worker_trace, workload_names, cache_root
                    )
                    _graft_worker_spans(trace_phase, forests)
                with obs.span(
                    "runner.run_phase", runs=len(pending)
                ) as run_phase:
                    outputs = _pool_results(
                        pool, _worker_run, pending, cache_root
                    )
                    _graft_worker_spans(
                        run_phase, [forest for _run, forest in outputs]
                    )
                for key, (run, _forest) in zip(pending, outputs):
                    self._runs[key] = run
                    results[key] = run
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
