"""End-to-end metrics and verdicts from pass records.

Pure arithmetic over what the pass children reported, with no simulator
import, so the parent process and ``compare`` stay light.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

TAIL_PERCENTILE = 75
"""``point_s_tail`` is p75 of the pooled point times on every workload.
A pass has 12 points in grid-fast and threshold-sweep, 4 in animation
and 18 in quality, and a run has one to five passes.  A higher
percentile would rest on one or two points."""


def load_spec(path: Path = SPEC_PATH) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), ``0 <= q <= 1``."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> List[float]:
    return [quantile(values, q) for q in (0.25, 0.5, 0.75)]


def mark_divergent(passes: Sequence[Mapping[str, Any]]) -> None:
    """Flag points whose simulated snapshot differs from the first pass's.

    The simulator is deterministic, so any difference between passes of
    one seed is a failure of the point in the later pass.
    """
    reference: Dict[str, str] = {}
    for record in passes:
        for point in record.get("points", ()):
            digest = point.get("digest")
            if digest is None:
                continue
            first = reference.setdefault(point["label"], digest)
            if digest != first:
                point["problems"].append(
                    f"simulated snapshot {digest} differs from the first "
                    f"pass's {first}"
                )


def attempted_failed(passes: Sequence[Mapping[str, Any]]) -> List[int]:
    """``[attempted, failed]`` points; a pass that died counts as a whole
    pass of failed points."""
    width = max((len(record.get("points", ())) for record in passes), default=0)
    attempted = failed = 0
    for record in passes:
        points = record.get("points")
        if points is None:
            attempted += max(width, 1)
            failed += max(width, 1)
            continue
        attempted += len(points)
        failed += sum(1 for point in points if point["problems"])
    return [attempted, failed]


def end_to_end(
    passes: Sequence[Mapping[str, Any]], setup_samples: Sequence[float]
) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric: its value and per-pass samples of it
    (``setup_s``: every set-up).  Units are BENCHMARK.json's.

    Times are the host-speed-scaled CPU seconds of :mod:`bench.speed`.
    ``requests_per_s`` divides by the sum of each point's median over
    the passes; ``point_s_p50`` and ``point_s_tail`` are quantiles of
    every point time of every pass, pooled.  The scaling leaves errors
    on both sides, so medians, not minima, and a run's value does not
    depend on how many passes fit in it.  The per-pass samples keep
    the spread visible.
    """
    timed = [
        [point for point in record["points"] if "seconds" in point]
        for record in passes if record.get("points")
    ]
    timed = [points for points in timed if points]
    if not timed or not setup_samples:
        raise ValueError("no pass finished a point")
    seconds: Dict[str, List[float]] = {}
    requests: Dict[str, int] = {}
    for points in timed:
        for point in points:
            seconds.setdefault(point["label"], []).append(point["seconds"])
            requests[point["label"]] = point["requests"]
    pooled = [value for values in seconds.values() for value in values]
    typical = sum(quantile(values, 0.5) for values in seconds.values())
    tail = TAIL_PERCENTILE / 100.0
    per_pass = [[point["seconds"] for point in points] for points in timed]
    rss = [record["peak_rss_mb"] for record in passes if "peak_rss_mb" in record]
    return {
        "requests_per_s": {
            "value": sum(requests.values()) / typical,
            "samples": [
                sum(point["requests"] for point in points)
                / sum(point["seconds"] for point in points)
                for points in timed
            ],
        },
        "point_s_p50": {
            "value": quantile(pooled, 0.5),
            "samples": [quantile(values, 0.5) for values in per_pass],
            "points": len(pooled),
        },
        "point_s_tail": {
            "value": quantile(pooled, tail),
            "samples": [quantile(values, tail) for values in per_pass],
            "points": len(pooled),
            "percentile": TAIL_PERCENTILE,
        },
        "setup_s": {
            "value": quantile(setup_samples, 0.5),
            "samples": list(setup_samples),
        },
        "peak_rss_mb": {"value": quantile(rss, 0.5), "samples": rss},
    }


def verdict(
    old: Mapping[str, Any], new: Mapping[str, Any], better: str, bound: float
) -> str:
    """better / same / worse / unresolved for one metric of two runs.

    Unresolved when either side's per-pass quartile spread exceeds
    ``bound`` (as a share of its value), unless every new sample beats
    every old one.  Otherwise the values decide, against the same bound
    both ways.
    """
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (new["value"] - old["value"]) / old["value"]
    spreads = []
    for side in (old, new):
        q1, _median, q3 = quartiles(side["samples"])
        spreads.append((q3 - q1) / side["value"])
    if max(spreads) > bound:
        if min(sign * v for v in new["samples"]) > max(
            sign * v for v in old["samples"]
        ):
            return "better"
        return "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "same"
