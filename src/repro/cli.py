"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands:

* ``list`` -- list the Table II workloads.
* ``simulate <workload>`` -- run all four designs on one workload and
  print the comparison.
* ``fig <id>`` -- regenerate one figure's table (e.g. ``fig 10``).
* ``render <workload>`` -- render one frame to a PPM image.
* ``report`` -- run every experiment and write EXPERIMENTS.md.
* ``trace <manifest.json>`` -- convert a run manifest's span tree to
  Chrome trace-event JSON (load in ``chrome://tracing`` / Perfetto).

``report`` accepts ``--jobs N`` to simulate the workloads on one
``spawn`` process pool, one task per workload (see
:meth:`~repro.experiments.runner.ExperimentRunner.run_many`): workers
see only their arguments and the environment, and the first failed
worker fails the run.  ``fig`` runs serially: it reads only its own
figure's points, so prefetching the report grid would cost more than
it saves.  ``report`` and ``fig`` accept ``--manifest [PATH]`` to record a
:class:`~repro.obs.manifest.RunManifest` (tracing is switched on for
the run); ``REPRO_TRACE=1`` enables span recording everywhere else.
Host speed is measured by the ``bench`` package at the repository root
(``python3 -m bench``), not by this CLI.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.core import Design
from repro.core.angle import DEFAULT_THRESHOLD
from repro.experiments.runner import FAST_WORKLOADS, ExperimentRunner
from repro.workloads import workload_by_name, workload_names

FIGURES = {
    "2": "fig02",
    "4": "fig04",
    "5": "fig05",
    "10": "fig10",
    "11": "fig11",
    "12": "fig12",
    "13": "fig13",
    "14": "fig14",
    "15": "fig15",
    "16": "fig16",
    "overhead": "overhead_analysis",
}


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in workload_names():
        workload = workload_by_name(name)
        print(
            f"{name:24s} {workload.library:7s} {workload.engine:16s} "
            f"aniso {workload.max_anisotropy}x  sim {workload.sim_width}x{workload.sim_height}"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    runner = ExperimentRunner([args.workload])
    workload = runner.workloads[0]
    baseline = runner.baseline(workload).frame
    print(f"{workload.name}: {baseline.num_requests} texture requests")
    print(f"{'design':14s} {'render x':>9s} {'texture x':>10s} {'traffic x':>10s} {'energy x':>9s}")
    for design in Design:
        frame = runner.run(workload, design, DEFAULT_THRESHOLD).frame
        print(
            f"{design.value:14s} "
            f"{frame.speedup_over(baseline):9.2f} "
            f"{frame.texture_speedup_over(baseline):10.2f} "
            f"{runner.texture_traffic_ratio(workload, design, DEFAULT_THRESHOLD):10.2f} "
            f"{runner.energy_ratio(workload, design, DEFAULT_THRESHOLD):9.2f}"
        )
    if args.verbose:
        for design in Design:
            frame = runner.run(workload, design, DEFAULT_THRESHOLD).frame
            print(f"\n--- {design.value}")
            print(frame.summary())
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    if args.id not in FIGURES:
        print(f"unknown figure {args.id!r}; known: {sorted(FIGURES)}")
        return 1
    import importlib

    module = importlib.import_module(f"repro.experiments.{FIGURES[args.id]}")
    names = FAST_WORKLOADS if args.fast else None
    manifest_requested = args.manifest is not None
    was_tracing = obs.tracing_enabled()
    if manifest_requested and not was_tracing:
        obs.set_tracing(True)
    runner = None
    try:
        with obs.span("cli.fig", figure=args.id):
            if args.id == "overhead":
                data = module.run()
            elif manifest_requested:
                runner = ExperimentRunner(names)
                data = module.run(runner)
            else:
                data = module.run(workload_names=names)
        print(data.title)
        print(data.format_table())
        for note in data.notes:
            print(note)
        if manifest_requested:
            from repro.obs.manifest import build_manifest

            record = build_manifest(
                command="fig",
                config={"figure": args.id, "fast": args.fast},
                runner=runner,
            )
            path = args.manifest or f"FIG{args.id}.manifest.json"
            record.write(path)
            print(f"wrote {path}")
    finally:
        if manifest_requested and not was_tracing:
            obs.set_tracing(False)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    """Render a workload's frame to a PPM image (exact or A-TFIM)."""
    from repro.render.renderer import SamplingMode

    workload = workload_by_name(args.workload)
    built = workload.build()
    renderer = workload.make_renderer()
    mode = SamplingMode(args.mode)
    output = renderer.render(
        built.scene, built.camera, mode, angle_threshold=args.threshold
    )
    image = output.image
    height, width = image.shape[:2]
    with open(args.output, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode())
        handle.write(
            (image * 255.0).clip(0, 255).astype("uint8").tobytes()
        )
    print(f"wrote {args.output} ({width}x{height}, mode={mode.value})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import manifest_path_for, write_report

    names = FAST_WORKLOADS if args.fast else None
    path = write_report(
        path=args.output,
        workload_names=names,
        include_quality=not args.no_quality,
        jobs=args.jobs,
        manifest=args.manifest,
    )
    print(f"wrote {path}")
    if args.manifest is not None:
        print(f"wrote {args.manifest or manifest_path_for(path)}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.manifest import write_chrome_trace

    output = args.output
    if output is None:
        output = str(Path(args.manifest).with_suffix(".trace.json"))
    path = write_chrome_trace(args.manifest, output)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPCA'17 PIM-enabled GPU 3D rendering reproduction",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="validate every simulated frame against the conservation "
        "invariants of repro.analysis.invariants (exits with a traceback "
        "on the first violation)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads").set_defaults(func=_cmd_list)

    simulate = sub.add_parser("simulate", help="compare designs on one workload")
    simulate.add_argument("workload", choices=workload_names())
    simulate.add_argument("--verbose", action="store_true",
                          help="print per-design stage/traffic summaries")
    simulate.set_defaults(func=_cmd_simulate)

    fig = sub.add_parser("fig", help="regenerate one figure")
    fig.add_argument("id", help="figure id (2,4,5,10-16,overhead)")
    fig.add_argument("--fast", action="store_true", help="3-workload subset")
    fig.add_argument("--manifest", nargs="?", const="", default=None,
                     help="record a run manifest (optional path; default "
                     "FIG<id>.manifest.json); enables tracing for the run")
    fig.set_defaults(func=_cmd_fig)

    render = sub.add_parser("render", help="render a frame to a PPM image")
    render.add_argument("workload", choices=workload_names())
    render.add_argument("--mode", default="exact",
                        choices=["exact", "reordered", "atfim", "isotropic"])
    render.add_argument("--threshold", type=float, default=0.0314159,
                        help="angle threshold in radians (atfim mode)")
    render.add_argument("--output", default="frame.ppm")
    render.set_defaults(func=_cmd_render)

    report = sub.add_parser("report", help="write EXPERIMENTS.md")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--fast", action="store_true", help="3-workload subset")
    report.add_argument("--no-quality", action="store_true",
                        help="skip the (slow) PSNR study")
    report.add_argument("--jobs", type=int, default=None,
                        help="simulate the workloads over N processes")
    report.add_argument("--manifest", nargs="?", const="", default=None,
                        help="record a run manifest next to the report "
                        "(optional path; default <output>.manifest.json); "
                        "enables tracing and the per-phase timing table")
    report.set_defaults(func=_cmd_report)

    trace = sub.add_parser(
        "trace", help="convert a run manifest to Chrome trace-event JSON"
    )
    trace.add_argument("manifest", help="path to a *.manifest.json file")
    trace.add_argument("--output", default=None,
                       help="output path (default: <manifest>.trace.json)")
    trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The switch threads through simulation layers (runner, report, pool
    # workers) via the environment variable those layers consult; restore
    # it afterwards so embedding callers see no side effects.
    restores = []
    if args.check_invariants:
        from repro.analysis.invariants import ENV_FLAG as invariants_flag

        restores.append((invariants_flag, os.environ.get(invariants_flag)))
        os.environ[invariants_flag] = "1"
    try:
        return args.func(args)
    finally:
        for flag, previous in restores:
            if previous is None:
                os.environ.pop(flag, None)
            else:
                os.environ[flag] = previous


if __name__ == "__main__":
    sys.exit(main())
