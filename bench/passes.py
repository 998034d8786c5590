"""One benchmark pass in a fresh process, started as ``python -m bench.child``.

The parent process (:mod:`bench.cli`) starts one of these per pass, one at a
time, and reads the single JSON line it prints.  A pass builds the
workload's inputs (set-up), then runs every point once:

* ``timed`` -- each point as its public call, timed alone; checks and
  snapshots are taken after its timer stops;
* ``traced`` -- each point decomposed into layer calls under benchmark
  spans, then one extra untimed expansion under ``tracemalloc``;
* ``setup`` -- set-up only, for extra ``setup_s`` samples.

Timed and set-up passes report host-speed-scaled seconds
(:class:`bench.speed.ScaledTimer`), with the raw CPU and wall seconds
and the speed factor beside them.  Traced passes report raw CPU seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import tracemalloc
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from bench.layers import layer_metrics
from bench.points import (
    WORKLOADS,
    FramePoint,
    NoSpans,
    Point,
    SequencePoint,
    Spans,
)
from bench.speed import ScaledTimer, clock
from repro.core.expansion import RequestExpander
from repro.experiments.cache import source_version
from repro.obs import chrome_trace

MODES = ("timed", "traced", "setup")


def run_points(
    points: Sequence[Point], spans: Optional[Spans] = None
) -> Tuple[List[Dict[str, Any]], Dict[str, Dict[str, Any]]]:
    """Run every point once; returns per-point records and snapshots.

    A point that raises is recorded with its error as a problem and no
    ``seconds``; the pass carries on with the next point.
    """
    records: List[Dict[str, Any]] = []
    snapshots: Dict[str, Dict[str, Any]] = {}
    for point in points:
        record = point.meta()
        records.append(record)
        try:
            if spans is None:
                with ScaledTimer() as timer:
                    raw = point.call()
                record.update(seconds=timer.seconds, cpu_s=timer.cpu_s,
                              wall_s=timer.wall_s, speed=timer.speed,
                              probe_s=timer.probe_s)
                outcome = point.finish(raw, NoSpans())
            else:
                started = clock()
                with spans.span("bench.point", label=point.label):
                    outcome = point.finish(point.call_traced(spans), spans)
                record["seconds"] = clock() - started
        except Exception as error:  # a failing point is a result, not a crash
            record.update(
                requests=0,
                digest=None,
                problems=[f"{type(error).__name__}: {error}"],
            )
            continue
        record.update(
            requests=outcome.requests,
            digest=outcome.digest,
            problems=outcome.problems,
        )
        snapshots[point.label] = outcome.snapshot
    return records, snapshots


def expansion_retained_mb(points: Sequence[Point]) -> float:
    """MiB held by one expansion of the pass's first trace (0 if none)."""
    for point in points:
        if isinstance(point, FramePoint):
            scene, trace = point.scene, point.trace
        elif isinstance(point, SequencePoint):
            scene, trace = point.scene, point.traces[0]
        else:
            continue
        tracemalloc.start()
        try:
            expander = RequestExpander(scene)
            expanded = [expander.expand(request) for request in trace.requests]
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del expanded
        return retained / 2**20
    return 0.0


def execute(
    workload: str, seed: int, mode: str, spawned_at: float, setup: ScaledTimer
) -> Dict[str, Any]:
    """One pass; the returned dictionary is what the child prints.

    ``setup`` was started when the process started; it is stopped once
    the inputs are built (at once for a traced pass, which runs no
    probes).
    """
    result: Dict[str, Any] = {
        "mode": mode,
        "source_version": source_version(),
        "numpy": np.__version__,
    }
    spans = Spans() if mode == "traced" else None
    if spans is not None:
        setup.stop()
    started = clock()
    import_probe_s = sum(setup.samples)
    try:
        if spans is None:
            points = WORKLOADS[workload](seed, NoSpans())
        else:
            with spans.span("bench.setup", workload=workload, seed=seed):
                points = WORKLOADS[workload](seed, spans)
    except Exception:
        result["error"] = "set-up failed:\n" + traceback.format_exc()
        return result
    finally:
        if spans is None:
            setup.stop()
    # CPU seconds since the process started: interpreter, imports, inputs.
    setup_cpu_s = clock() - setup.probe_s
    result["setup_cpu_s"] = setup_cpu_s
    result["setup_wall_s"] = time.monotonic() - spawned_at
    if spans is None:
        result["setup_speed"] = setup.speed
        result["setup_s"] = setup_cpu_s * setup.speed
    else:
        result["setup_s"] = setup_cpu_s
    if mode == "setup":
        return result

    records, snapshots = run_points(points, spans)
    probe_s = (setup.probe_s - import_probe_s
               + sum(record.get("probe_s", 0.0) for record in records))
    result["pass_s"] = clock() - started - probe_s
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    result["points"] = records
    result["snapshots"] = snapshots
    if spans is not None:
        result["chrome_trace"] = chrome_trace(spans.roots)
        result["layers"] = layer_metrics(
            spans.roots, result["pass_s"], records, snapshots,
            expansion_retained_mb(points),
        )
    return result


def main(
    argv: Optional[Sequence[str]] = None, setup: Optional[ScaledTimer] = None
) -> int:
    """Run one pass and print its record; ``setup`` is the set-up clock
    :mod:`bench.child` started before the imports (one starts here if
    not given)."""
    if setup is None:
        setup = ScaledTimer()
        setup.start()
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="the parent's time.monotonic() just before it started us",
    )
    args = parser.parse_args(argv)
    result = execute(args.workload, args.seed, args.mode, args.spawned_at, setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
