"""Per-layer metrics of one traced pass.

Three kinds, all computed from what the traced pass recorded:

* host time per layer -- the self time of the benchmark's spans around
  each layer call, summed by span name, with its share of the pass;
* work rates and ratios measured at the same spans (requests expanded
  per second, cache lines per request, parent-texel reuse);
* simulated results (``sim.*``, ``quality.psnr_db.*``) read from the
  points' snapshots.  These are deterministic: a change that only speeds
  the simulator up must leave every one of them identical.

A layer the workload never calls reports 0 (``quality`` never expands a
request; only ``grid-fast`` runs B-PIM and S-TFIM).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping

from repro.core import Design
from repro.core.angle import DEFAULT_THRESHOLD, THRESHOLD_SWEEP
from repro.experiments.paper import PAPER

DESIGNS = [design.value for design in Design]

STRUCTURAL_SPANS = ("bench.setup", "bench.point")
"""Spans that group layer calls; their own time is benchmark overhead."""

SPAN_LAYERS = (
    ["workloads.build", "render.trace_only", "core.expand", "core.make_path"]
    + [f"gpu.replay_warmup.{design}" for design in DESIGNS]
    + [f"gpu.replay_measured.{design}" for design in DESIGNS]
    + ["core.reset", "energy.frame_energy", "analysis.invariants",
       "render.rasterize", "render.render_exact", "render.render_atfim",
       "quality.psnr"]
)
"""Every span the traced pass records around a layer call."""

DERIVED_TIMES = ["render.shade_exact_s", "render.shade_atfim_s"]
"""Shading time, read off as render time minus rasterization time."""


def time_metric(span_name: str) -> str:
    """``core.expand`` -> ``core.expand_s``; the design stays a suffix."""
    if span_name.startswith("gpu.replay_"):
        base, design = span_name.rsplit(".", 1)
        return f"{base}_s.{design}"
    return f"{span_name}_s"


TIME_METRICS = [time_metric(name) for name in SPAN_LAYERS] + DERIVED_TIMES


def threshold_key(label: str) -> str:
    """``A-TFIM-001pi`` -> ``001pi``."""
    return label.replace("A-TFIM-", "")


def span_totals(roots: Iterable[Mapping[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Self seconds, call count and summed counts per layer span name."""
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def walk(span: Mapping[str, Any]) -> None:
        children = span["children"]
        if span["name"] not in STRUCTURAL_SPANS:
            entry = totals[span["name"]]
            entry["seconds"] += span["duration"] - sum(
                child["duration"] for child in children
            )
            entry["calls"] += 1
            for key, value in span["attributes"].items():
                entry[key] += value
        for child in children:
            walk(child)

    for root in roots:
        walk(root)
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_metrics(
    points: List[Mapping[str, Any]], snapshots: Mapping[str, Mapping[str, Any]]
) -> Dict[str, float]:
    """Simulated totals per design, A-TFIM speedups, paper error, PSNR."""
    metrics: Dict[str, float] = {}

    def total(selected: List[Mapping[str, Any]], key: str) -> float:
        return sum(snapshots[point["label"]][key] for point in selected)

    done = [point for point in points if point["label"] in snapshots]
    for design in DESIGNS:
        selected = [point for point in done if point["design"] == design]
        metrics[f"sim.frame_cycles.{design}"] = total(
            selected, "summary.frame_cycles")
        metrics[f"sim.texture_latency_mean.{design}"] = _ratio(
            total(selected, "summary.texture_latency_total"),
            total(selected, "summary.texture_requests"))
        metrics[f"sim.external_texture_bytes.{design}"] = total(
            selected, "summary.external_texture_bytes")
        metrics[f"sim.l1_hit_rate.{design}"] = _ratio(
            total(selected, "summary.l1_hits"),
            total(selected, "summary.l1_accesses"))
        metrics[f"sim.l2_hit_rate.{design}"] = _ratio(
            total(selected, "summary.l2_hits"),
            total(selected, "summary.l2_accesses"))

    atfim = [point for point in done if point["design"] == Design.A_TFIM.value]
    reuses = total(atfim, "summary.parent_reuses")
    metrics["sim.atfim.parent_reuse_ratio"] = _ratio(
        reuses, reuses + total(atfim, "summary.parent_recalculations"))

    # The Fig. 10 / Fig. 11 ratios, as ExperimentRunner.texture_speedup
    # and render_speedup form them: baseline over A-TFIM at the default
    # threshold, per shared trace, then averaged over traces.
    texture, render = [], []
    for group in dict.fromkeys(point["group"] for point in done):
        members = {
            (point["design"], point["threshold"]): snapshots[point["label"]]
            for point in done if point["group"] == group
        }
        base = members.get((Design.BASELINE.value, None))
        fast = members.get((Design.A_TFIM.value, DEFAULT_THRESHOLD.label))
        if base is None or fast is None:
            continue
        texture.append(base["summary.texture_latency_mean"]
                       / fast["summary.texture_latency_mean"])
        render.append(base["summary.frame_cycles"] / fast["summary.frame_cycles"])
    texture_speedup = _ratio(sum(texture), len(texture))
    render_speedup = _ratio(sum(render), len(render))
    metrics["sim.atfim_texture_speedup"] = texture_speedup
    metrics["sim.atfim_render_speedup"] = render_speedup
    if texture:
        errors = [
            abs(texture_speedup / PAPER["atfim_texture_speedup"].mean - 1.0),
            abs(render_speedup / PAPER["atfim_render_speedup"].mean - 1.0),
        ]
        metrics["sim.paper_err"] = sum(errors) / len(errors)
    else:
        metrics["sim.paper_err"] = 0.0

    for angle in THRESHOLD_SWEEP:
        values = [
            snapshots[point["label"]]["quality.psnr_db"]
            for point in done
            if point["design"] is None and point["threshold"] == angle.label
        ]
        metrics[f"quality.psnr_db.{threshold_key(angle.label)}"] = _ratio(
            sum(values), len(values))
    return metrics


def layer_metrics(
    roots: List[Mapping[str, Any]],
    pass_s: float,
    points: List[Mapping[str, Any]],
    snapshots: Mapping[str, Mapping[str, Any]],
    retained_mb: float,
) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead``, which needs an
    untraced pass to compare against."""
    totals = span_totals(roots)

    def count(span: str, key: str) -> float:
        return totals[span][key] if span in totals else 0.0

    metrics: Dict[str, float] = {
        time_metric(name): count(name, "seconds") for name in SPAN_LAYERS
    }
    per_raster = _ratio(count("render.rasterize", "seconds"),
                        count("render.rasterize", "calls"))
    metrics["render.shade_exact_s"] = (
        count("render.render_exact", "seconds")
        - count("render.render_exact", "calls") * per_raster)
    metrics["render.shade_atfim_s"] = (
        count("render.render_atfim", "seconds")
        - count("render.render_atfim", "calls") * per_raster)
    for name in TIME_METRICS:
        metrics[f"{name}.share"] = _ratio(metrics[name], pass_s)

    expand_items = count("core.expand", "items")
    metrics["core.expand.requests_per_s"] = _ratio(
        expand_items, count("core.expand", "seconds"))
    metrics["core.expand.lines_per_request"] = _ratio(
        count("core.expand", "lines"), expand_items)
    metrics["core.expand.child_lines_per_request"] = _ratio(
        count("core.expand", "child_lines"), expand_items)
    metrics["core.expand.retained_mb"] = retained_mb
    for design in DESIGNS:
        warmup, measured = (f"gpu.replay_warmup.{design}",
                            f"gpu.replay_measured.{design}")
        metrics[f"gpu.replay.requests_per_s.{design}"] = _ratio(
            count(warmup, "items") + count(measured, "items"),
            count(warmup, "seconds") + count(measured, "seconds"))
    metrics["render.trace_only.fragments_per_s"] = _ratio(
        count("render.trace_only", "items"),
        count("render.trace_only", "seconds"))
    metrics["render.atfim_parent_reuse_ratio"] = _ratio(
        count("render.render_atfim", "parent_reuses"),
        count("render.render_atfim", "parent_lookups"))

    metrics.update(sim_metrics(points, snapshots))
    metrics["trace.coverage"] = _ratio(
        sum(count(name, "seconds") for name in SPAN_LAYERS), pass_s)
    return metrics
