"""Run every experiment and write EXPERIMENTS.md.

``python -m repro report`` regenerates the full paper-vs-measured record.
"""

from __future__ import annotations

import io
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.experiments import (
    ablations,
    fig02,
    fig04,
    fig05,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    overhead_analysis,
    tables,
)
from repro.core import Design
from repro.core.angle import DEFAULT_THRESHOLD, THRESHOLD_SWEEP
from repro.experiments.common import FigureData
from repro.experiments.runner import FAST_WORKLOADS, ExperimentRunner, RunKey
from repro.experiments.validate import summarize, validate

HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in "Processing-in-Memory Enabled
Graphics Processors for 3D Rendering" (HPCA 2017).  Regenerate with
`python -m repro report` (add `--fast` for the 3-workload subset,
`--jobs N` to simulate grid points in parallel).  Results are
content-addressed: set `REPRO_CACHE_DIR` (or pass `--cache-dir`) to
persist traces and design runs on disk, making reruns incremental --
entries self-invalidate when the simulator source changes.  Host timing
of the simulator is measured by `python3 -m bench`.

Absolute magnitudes come from a cycle-approximate model over procedurally
generated miniature frames (see DESIGN.md sections 2 and 5), so the
claims to check are *shapes*: who wins, by roughly what factor, and where
the crossovers fall.  Paper-quoted numbers are repeated next to each
measurement.
"""


def grid_keys(runner: ExperimentRunner) -> List[RunKey]:
    """Every grid point the figure suite touches, for parallel prefetch.

    Mirrors the slices taken by fig02-fig14 and the ablations: all four
    designs at the default threshold, the fig04 aniso-off baseline, the
    A-TFIM threshold sweep, MTU sharing ratios, and consolidation off.
    """
    default = DEFAULT_THRESHOLD.effective_radians
    keys: List[RunKey] = []
    for workload in runner.workloads:
        name = workload.name
        for design in Design:
            keys.append(RunKey(name, design, default, True))
        keys.append(RunKey(name, Design.BASELINE, default, False))
        for threshold in THRESHOLD_SWEEP:
            keys.append(
                RunKey(name, Design.A_TFIM, threshold.effective_radians, True)
            )
        for ratio in (2, 4):
            keys.append(
                RunKey(name, Design.S_TFIM, default, True, mtu_share=ratio)
            )
        keys.append(
            RunKey(
                name, Design.A_TFIM, default, True, consolidation_enabled=False
            )
        )
    # The sweep includes the default threshold, duplicating the design
    # loop's A-TFIM point; dedup preserving first-seen order.
    return list(dict.fromkeys(keys))


def _cache_section(runner: ExperimentRunner) -> str:
    """Runner cache-effectiveness summary appended to the report."""
    stats = runner.cache_stats()
    out = io.StringIO()
    out.write("\n## Runner cache statistics\n\n")
    out.write("```\n")
    out.write(f"memoisation hits    {stats.memo_hits}\n")
    out.write(f"memoisation misses  {stats.memo_misses}\n")
    out.write(f"disk hits           {stats.disk_hits}\n")
    out.write(f"disk misses         {stats.disk_misses}\n")
    out.write(f"disk stores         {stats.disk_stores}\n")
    out.write(f"disk entries        {stats.disk_entries}\n")
    out.write(f"disk bytes          {stats.disk_bytes}\n")
    out.write(f"disk hit rate       {stats.disk_hit_rate:.2f}\n")
    out.write("```\n")
    if runner.disk_cache is None:
        out.write(
            "\n*No persistent cache configured (set `REPRO_CACHE_DIR` or"
            " pass `--cache-dir` to make reruns incremental).*\n"
        )
    return out.getvalue()


def _aggregate_spans(
    forest: Sequence[Dict[str, Any]], totals: Dict[str, List[float]]
) -> None:
    """Fold a span forest (including grafted worker forests) into
    per-name ``[count, total_seconds]`` aggregates."""
    for span in forest:
        entry = totals.setdefault(span["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += span.get("duration") or 0.0
        _aggregate_spans(span.get("children", ()), totals)
        for worker_forest in span.get("attributes", {}).get("worker_spans") or ():
            _aggregate_spans(worker_forest, totals)


def _timing_section(spans: Sequence[Dict[str, Any]]) -> str:
    """Per-phase host timing table sourced from the recorded span tree.

    Worker spans run concurrently across processes, so per-phase totals
    can exceed the elapsed wall time; they measure aggregate host work,
    not the critical path.
    """
    totals: Dict[str, List[float]] = {}
    _aggregate_spans(spans, totals)
    if not totals:
        return ""
    out = io.StringIO()
    out.write("\n## Host-phase timing (from the run manifest)\n\n")
    out.write("| phase | count | total (s) | mean (s) |\n")
    out.write("|---|---:|---:|---:|\n")
    for name, (count, total) in sorted(
        totals.items(), key=lambda item: -item[1][1]
    ):
        count = int(count)
        out.write(
            f"| {name} | {count} | {total:.3f} | {total / count:.3f} |\n"
        )
    out.write(
        "\nAggregate host-side seconds per traced phase (worker phases sum"
        " across processes, so totals can exceed the elapsed wall time)."
        "  Regenerate with `python -m repro report --manifest`.\n"
    )
    return out.getvalue()


def _figure_section(data: FigureData, precision: int = 3) -> str:
    out = io.StringIO()
    out.write(f"\n## {data.figure}: {data.title}\n\n")
    if data.paper_reference:
        out.write(f"**Paper:** {data.paper_reference}\n\n")
    out.write("```\n")
    out.write(data.format_table(precision=precision))
    out.write("\n```\n")
    for note in data.notes:
        out.write(f"\n*Measured:* {note}\n")
    checks = validate(data)
    if checks:
        out.write(f"\n*Claims:* {summarize(checks)}\n")
        for check in checks:
            out.write(f"* {check}\n")
    return out.getvalue()


def generate_with_runner(
    workload_names: Optional[Sequence[str]] = None,
    include_quality: bool = True,
    include_ablations: bool = True,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Tuple[str, ExperimentRunner]:
    """Build the full EXPERIMENTS.md text; also return the runner.

    With ``jobs > 1`` the whole design-point grid is prefetched through
    :meth:`ExperimentRunner.run_many` before any figure renders, so the
    expensive simulations run concurrently and the figures themselves
    only hit warm caches.  The returned runner carries the cache
    counters and completed runs the manifest records.
    """
    runner = ExperimentRunner(workload_names, cache_dir=cache_dir, jobs=jobs)
    with obs.span("report.generate", workloads=len(runner.workloads)):
        if jobs is not None and jobs > 1:
            runner.run_many(grid_keys(runner), jobs=jobs)
        sections: List[str] = [HEADER]

        sections.append("\n## Table I: simulator configuration\n\n```\n"
                        + tables.format_table1() + "\n```\n")
        sections.append("\n## Table II: gaming benchmarks\n\n```\n"
                        + tables.format_table2() + "\n```\n")

        with obs.span("report.figures"):
            sections.append(_figure_section(fig02.run(runner)))
            sections.append(_figure_section(fig04.run(runner)))
            sections.append(_figure_section(fig05.run(runner)))
            sections.append(_figure_section(fig10.run(runner)))
            sections.append(_figure_section(fig11.run(runner)))
            sections.append(_figure_section(fig12.run(runner)))
            sections.append(_figure_section(fig13.run(runner)))
            speedups = fig14.run(runner)
            sections.append(_figure_section(speedups))
        if include_quality:
            with obs.span("report.quality"):
                qualities = fig15.run(runner)
                sections.append(_figure_section(qualities, precision=1))
                sections.append(
                    _figure_section(
                        fig16.run(runner, speedups=speedups,
                                  qualities=qualities),
                        precision=2,
                    )
                )
        sections.append(_figure_section(overhead_analysis.run(), precision=4))

        if include_ablations:
            with obs.span("report.ablations"):
                names = [w.name for w in runner.workloads]
                sections.append(_figure_section(ablations.mtu_sharing(runner)))
                sections.append(
                    _figure_section(ablations.consolidation(runner))
                )
                sections.append(
                    _figure_section(ablations.anisotropy_cap(names[0]))
                )
                sections.append(
                    _figure_section(ablations.internal_bandwidth(names[0]))
                )

        sections.append(_cache_section(runner))

    if obs.tracing_enabled():
        sections.append(_timing_section(obs.get_tracer().as_dicts()))

    return "".join(sections), runner


def generate(
    workload_names: Optional[Sequence[str]] = None,
    include_quality: bool = True,
    include_ablations: bool = True,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> str:
    """Build the full EXPERIMENTS.md text."""
    text, _runner = generate_with_runner(
        workload_names, include_quality, include_ablations,
        jobs=jobs, cache_dir=cache_dir,
    )
    return text


def manifest_path_for(output: Union[str, Path]) -> Path:
    """Default manifest location for a report/figure output path."""
    return Path(output).with_suffix(".manifest.json")


def _carried_sections(output: Path) -> str:
    """Sections other tools maintain inside the report file.

    ``python -m repro sweep --update-experiments`` appends the A-TFIM
    crossover surface; a full regeneration must carry it over instead
    of clobbering it.  Returns the section text (trailing-newline
    normalised) or ``""`` when the file or section does not exist.
    """
    if not output.exists():
        return ""
    from repro.experiments.sweep import SURFACE_HEADING

    text = output.read_text()
    start = text.find(SURFACE_HEADING)
    if start < 0:
        return ""
    end = text.find("\n## ", start + len(SURFACE_HEADING))
    chunk = text[start:] if end < 0 else text[start:end]
    return chunk.rstrip("\n") + "\n"


def write_report(
    path: str = "EXPERIMENTS.md",
    workload_names: Optional[Sequence[str]] = None,
    include_quality: bool = True,
    include_ablations: bool = True,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    manifest: Optional[str] = None,
) -> Path:
    """Generate and write the report; return the output path.

    ``manifest`` requests a :class:`~repro.obs.manifest.RunManifest`
    alongside the report: a path, or ``""`` to derive one from ``path``
    (``EXPERIMENTS.md`` -> ``EXPERIMENTS.manifest.json``).  Requesting a
    manifest turns tracing on for the duration of the run so the span
    tree and the per-phase timing table are populated.
    """
    # Timing the report generator itself (not simulated time) is the one
    # legitimate wall-clock read in the package; the elapsed note below
    # is informational and excluded from every measured quantity.
    started = time.time()  # repro: noqa(REP102) -- wall-clock timing of report generation, not sim time
    was_tracing = obs.tracing_enabled()
    if manifest is not None and not was_tracing:
        obs.set_tracing(True)
    try:
        text, runner = generate_with_runner(
            workload_names, include_quality, include_ablations,
            jobs=jobs, cache_dir=cache_dir,
        )
        elapsed = time.time() - started  # repro: noqa(REP102) -- wall-clock timing of report generation, not sim time
        text += f"\n---\nGenerated in {elapsed:.0f} s.\n"
        output = Path(path)
        carried = _carried_sections(output)
        if carried:
            text += "\n" + carried
        output.write_text(text)
        if manifest is not None:
            from repro.obs.manifest import build_manifest

            record = build_manifest(
                command="report",
                config={
                    "path": str(path),
                    "workloads": [w.name for w in runner.workloads],
                    "include_quality": include_quality,
                    "include_ablations": include_ablations,
                    "jobs": jobs,
                    "cache_dir": str(cache_dir) if cache_dir else None,
                },
                runner=runner,
            )
            record.write(manifest if manifest else manifest_path_for(output))
    finally:
        if manifest is not None and not was_tracing:
            obs.set_tracing(False)
    return output


if __name__ == "__main__":
    print(write_report(workload_names=FAST_WORKLOADS))
