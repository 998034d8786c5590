"""Run every experiment and write EXPERIMENTS.md.

``python -m repro report`` regenerates the full paper-vs-measured record.
"""

from __future__ import annotations

import io
import sys
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
from repro.core.angle import THRESHOLD_SWEEP
from repro.experiments.common import FigureData
from repro.experiments.runner import (
    FAST_WORKLOADS,
    ExperimentRunner,
    Key,
    RenderKey,
    run_key,
)
from repro.experiments.validate import summarize, validate
from repro.render.renderer import SamplingMode

HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in "Processing-in-Memory Enabled
Graphics Processors for 3D Rendering" (HPCA 2017).  Regenerate with
`python -m repro report` (add `--fast` for the 3-workload subset,
`--jobs N` to simulate the workloads on N processes).  The text is the
same either way: it depends only on the simulator source.  Host timing
of the simulator is measured by `python3 -m bench`.

Absolute magnitudes come from a cycle-approximate model over procedurally
generated miniature frames (see DESIGN.md sections 2 and 5), so the
claims to check are *shapes*: who wins, by roughly what factor, and where
the crossovers fall.  Paper-quoted numbers are repeated next to each
measurement.
"""


def grid_keys(
    runner: ExperimentRunner, include_quality: bool = True
) -> List[Key]:
    """Every point the report reads, for the prefetch.

    Mirrors the points the figures read: on every workload all four
    designs at the default threshold, the fig04 aniso-off baseline, the
    A-TFIM threshold sweep, S-TFIM with two and four clusters per MTU
    and A-TFIM with consolidation off; with ``include_quality`` Fig.
    15's exact render and its A-TFIM render at each threshold; and on
    the first workload the baseline and A-TFIM at each anisotropy cap
    and A-TFIM at each HMC internal-bandwidth multiplier.  Points repeat
    (the sweep holds the default threshold, and an ablation point at the
    workload's defaults has the default key), so the list is
    deduplicated, first seen first.
    """
    keys: List[Key] = []
    for workload in runner.workloads:
        for design in Design:
            keys.append(run_key(workload, design))
        keys.append(run_key(workload, Design.BASELINE, aniso_enabled=False))
        for threshold in THRESHOLD_SWEEP:
            keys.append(run_key(workload, Design.A_TFIM, threshold))
        if include_quality:
            keys.append(RenderKey(workload.name, SamplingMode.EXACT))
            for threshold in THRESHOLD_SWEEP:
                keys.append(RenderKey(
                    workload.name, SamplingMode.ATFIM,
                    threshold.effective_radians,
                ))
        for ratio in (2, 4):
            keys.append(run_key(workload, Design.S_TFIM, mtu_share=ratio))
        keys.append(
            run_key(workload, Design.A_TFIM, consolidation_enabled=False)
        )
    first = runner.workloads[0]
    for cap in ablations.ANISOTROPY_CAPS:
        for design in (Design.BASELINE, Design.A_TFIM):
            keys.append(run_key(first, design, max_anisotropy=cap))
    for multiplier in ablations.INTERNAL_BANDWIDTH_MULTIPLIERS:
        keys.append(run_key(
            first, Design.A_TFIM, internal_bandwidth_multiplier=multiplier
        ))
    return list(dict.fromkeys(keys))


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


def _timing_table(spans: Sequence[Dict[str, Any]]) -> str:
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
    out.write("host-phase timing (aggregate seconds; worker phases sum"
              " across processes)\n")
    out.write(f"{'phase':<32} {'count':>6} {'total (s)':>10} {'mean (s)':>9}\n")
    for name, (count, total) in sorted(
        totals.items(), key=lambda item: -item[1][1]
    ):
        count = int(count)
        out.write(
            f"{name:<32} {count:>6} {total:>10.3f} {total / count:>9.3f}\n"
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


def figure_tables(
    runner: ExperimentRunner, include_quality: bool = True
) -> List[Tuple[FigureData, int]]:
    """Every figure table of the report, in report order.

    Each entry is ``(data, precision)``: the figure and the number of
    decimals EXPERIMENTS.md prints it with.
    """
    figures: List[Tuple[FigureData, int]] = []
    with obs.span("report.figures"):
        for module in (fig02, fig04, fig05, fig10, fig11, fig12, fig13):
            figures.append((module.run(runner), 3))
        speedups = fig14.run(runner)
        figures.append((speedups, 3))
    if include_quality:
        with obs.span("report.quality"):
            qualities = fig15.run(runner)
            figures.append((qualities, 1))
            figures.append(
                (fig16.run(runner, speedups=speedups, qualities=qualities), 2)
            )
    figures.append((overhead_analysis.run(), 4))

    with obs.span("report.ablations"):
        figures.append((ablations.mtu_sharing(runner), 3))
        figures.append((ablations.consolidation(runner), 3))
        figures.append((ablations.anisotropy_cap(runner), 3))
        figures.append((ablations.internal_bandwidth(runner), 3))
    return figures


def generate_with_runner(
    workload_names: Optional[Sequence[str]] = None,
    include_quality: bool = True,
    jobs: Optional[int] = None,
) -> Tuple[str, ExperimentRunner]:
    """Build the full EXPERIMENTS.md text; also return the runner.

    The text is a pure function of the source and the arguments: how
    the run went (its host time, the runner's memo counters) is left
    to the manifest and stderr, so the same report reads the same
    whether it ran serially or with ``jobs``.

    Every point the report reads (:func:`grid_keys`) is prefetched
    through :meth:`ExperimentRunner.run_many` before any figure is
    built, one workload after another and, with ``jobs > 1``, on that
    many processes; each workload's trace is then expanded once per
    anisotropy setting, and the figures only read the memo.  The
    returned runner carries the memo counters, completed runs and
    renders the manifest records.
    """
    runner = ExperimentRunner(workload_names)
    with obs.span("report.generate", workloads=len(runner.workloads)):
        runner.run_many(
            grid_keys(runner, include_quality), jobs=jobs
        )
        sections: List[str] = [HEADER]

        sections.append("\n## Table I: simulator configuration\n\n```\n"
                        + tables.format_table1() + "\n```\n")
        sections.append("\n## Table II: gaming benchmarks\n\n```\n"
                        + tables.format_table2() + "\n```\n")

        for data, precision in figure_tables(runner, include_quality):
            sections.append(_figure_section(data, precision))

    return "".join(sections), runner


def generate(
    workload_names: Optional[Sequence[str]] = None,
    include_quality: bool = True,
    jobs: Optional[int] = None,
) -> str:
    """Build the full EXPERIMENTS.md text."""
    text, _runner = generate_with_runner(
        workload_names, include_quality, jobs=jobs
    )
    return text


def manifest_path_for(output: Union[str, Path]) -> Path:
    """Default manifest location for a report/figure output path."""
    return Path(output).with_suffix(".manifest.json")


def write_report(
    path: str = "EXPERIMENTS.md",
    workload_names: Optional[Sequence[str]] = None,
    include_quality: bool = True,
    jobs: Optional[int] = None,
    manifest: Optional[str] = None,
) -> Path:
    """Generate and write the report; return the output path.

    ``manifest`` requests a :class:`~repro.obs.manifest.RunManifest`
    alongside the report: a path, or ``""`` to derive one from ``path``
    (``EXPERIMENTS.md`` -> ``EXPERIMENTS.manifest.json``).  Requesting a
    manifest turns tracing on for the duration of the run so the span
    tree is populated.  The elapsed time, and with tracing on a
    per-phase timing table of the spans, go to stderr, not the report.
    """
    # Timing the report generator itself (not simulated time) is the one
    # legitimate wall-clock read in the package; the elapsed note it
    # writes to stderr is informational and excluded from the report.
    started = time.time()  # repro: noqa(REP102) -- wall-clock timing of report generation, not sim time
    was_tracing = obs.tracing_enabled()
    if manifest is not None and not was_tracing:
        obs.set_tracing(True)
    try:
        text, runner = generate_with_runner(
            workload_names, include_quality, jobs=jobs
        )
        elapsed = time.time() - started  # repro: noqa(REP102) -- wall-clock timing of report generation, not sim time
        output = Path(path)
        output.write_text(text)
        if obs.tracing_enabled():
            sys.stderr.write(_timing_table(obs.get_tracer().as_dicts()))
        sys.stderr.write(f"generated {output} in {elapsed:.0f} s\n")
        if manifest is not None:
            from repro.obs.manifest import build_manifest

            record = build_manifest(
                command="report",
                config={
                    "path": str(path),
                    "workloads": [w.name for w in runner.workloads],
                    "include_quality": include_quality,
                    "jobs": jobs,
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
