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
* ``chaos`` -- run the design grid under an injected fault plan and
  verify the results stay bit-identical to a clean serial run.
* ``sweep`` -- run a (sampled) design-space sweep over threshold x
  workload x link-scale x memory-backend through a chosen executor
  backend; optionally cross-check against serial execution for
  bit-identity and write the A-TFIM crossover surface into
  EXPERIMENTS.md.

``report`` and ``fig`` accept ``--jobs N`` to fan design-point
simulations out over processes; ``report`` persists results under
``--cache-dir`` (or ``$REPRO_CACHE_DIR``) so reruns are incremental.
``report``, ``fig`` and ``chaos`` accept ``--manifest [PATH]`` to record
a :class:`~repro.obs.manifest.RunManifest` (tracing is switched on for
the run); ``REPRO_TRACE=1`` enables span recording everywhere else.
Host speed is measured by the ``bench`` package at the repository root
(``python3 -m bench``), not by this CLI.

The top-level ``--faults SPEC`` switch (equivalent: the ``REPRO_FAULTS``
environment variable) activates a deterministic fault-injection plan for
any subcommand -- see :mod:`repro.faults`.
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
            elif (args.jobs and args.jobs > 1) or manifest_requested:
                from repro.experiments.report import grid_keys

                runner = ExperimentRunner(names, jobs=args.jobs)
                if args.jobs and args.jobs > 1:
                    runner.run_many(grid_keys(runner), jobs=args.jobs)
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
                config={"figure": args.id, "fast": args.fast,
                        "jobs": args.jobs},
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
        cache_dir=args.cache_dir,
        manifest=args.manifest,
    )
    print(f"wrote {path}")
    if args.manifest is not None:
        print(f"wrote {args.manifest or manifest_path_for(path)}")
    return 0


DEFAULT_CHAOS_SPEC = "seed=7,crash=0.2,fail=0.2,corrupt=0.2,store=0.1"
"""The ``chaos`` subcommand's default fault plan: every injection site
exercised at rates high enough to fire on a 12-point grid."""


def _run_signature(run) -> tuple:
    """The fields two runs must agree on to count as bit-identical."""
    return (
        run.frame_cycles,
        run.texture_cycles,
        run.external_texture_bytes,
        run.frame.num_requests,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Prove the fault-tolerant fan-out: clean serial vs faulted parallel."""
    import tempfile

    from repro import faults
    from repro.experiments.runner import RunKey
    from repro.faults import FAST_RETRIES, FaultPlan

    spec = args.faults if getattr(args, "faults", None) else DEFAULT_CHAOS_SPEC
    plan = FaultPlan.parse(spec)
    names = [args.workload] if args.workload else list(FAST_WORKLOADS)
    keys = [
        RunKey(name, design, DEFAULT_THRESHOLD.effective_radians, True)
        for name in names
        for design in Design
    ]
    jobs = args.jobs or 2
    manifest_requested = args.manifest is not None
    was_tracing = obs.tracing_enabled()
    if manifest_requested and not was_tracing:
        obs.set_tracing(True)
    runner = None
    try:
        with obs.span("cli.chaos", plan=plan.describe(), jobs=jobs):
            print(f"chaos: plan [{plan.describe()}] over {len(keys)} grid "
                  f"points, jobs={jobs}")
            with tempfile.TemporaryDirectory(
                prefix="repro-chaos-clean-"
            ) as clean_dir, faults.suppress():
                clean_runner = ExperimentRunner(names, cache_dir=clean_dir)
                clean = clean_runner.run_many(keys, jobs=1)
            previous = os.environ.get(faults.ENV_FLAG)
            os.environ[faults.ENV_FLAG] = spec
            faults.activate(plan)
            try:
                with tempfile.TemporaryDirectory(
                    prefix="repro-chaos-"
                ) as chaos_dir:
                    runner = ExperimentRunner(
                        names, cache_dir=chaos_dir, retry_policy=FAST_RETRIES
                    )
                    faulted = runner.run_many(keys, jobs=jobs)
            finally:
                faults.reset()
                if previous is None:
                    os.environ.pop(faults.ENV_FLAG, None)
                else:
                    os.environ[faults.ENV_FLAG] = previous
            report = runner.fanout_report()
            counts = report.outcome_counts()
            print(
                "outcomes: "
                + " ".join(f"{name}={count}" for name, count in counts.items())
                + f"  retries={report.total_retries}"
                + f" pool_rebuilds={report.pool_rebuilds}"
            )
            missing = [key for key in keys if key not in faulted]
            mismatched = [
                key
                for key in keys
                if key in faulted
                and _run_signature(faulted[key]) != _run_signature(clean[key])
            ]
            for key in missing:
                print(f"MISSING: {key}")
            for key in mismatched:
                print(f"MISMATCH: {key}")
            identical = not missing and not mismatched
            print("bit-identical to clean serial run: "
                  + ("yes" if identical else "NO"))
        if manifest_requested:
            from repro.obs.manifest import build_manifest

            record = build_manifest(
                command="chaos",
                config={"plan": plan.as_dict(), "jobs": jobs,
                        "workloads": names},
                runner=runner,
            )
            # The injector is already deactivated (the comparison runs
            # clean), so record the exercised plan explicitly.
            record.faults.setdefault("plan", plan.as_dict())
            record.faults["bit_identical"] = identical
            # Attest that the REP300-series static pass is clean: the
            # chaos gate's bit-identity claim rests on the worker paths
            # being free of nondeterminism sources.
            from repro.analysis import static_determinism_attestation

            attestation = static_determinism_attestation()
            record.faults["static_determinism"] = attestation
            print(
                "static determinism pass "
                + f"({', '.join(attestation['rules'])}): "
                + ("clean" if attestation["clean"]
                   else f"{len(attestation['findings'])} finding(s)")
            )
            path = args.manifest or "CHAOS.manifest.json"
            record.write(path)
            print(f"wrote {path}")
    finally:
        if manifest_requested and not was_tracing:
            obs.set_tracing(False)
    return 0 if identical else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run a sampled design-space sweep through an executor backend."""
    import tempfile

    from repro.experiments.sweep import (
        SweepDefinition,
        run_sweep,
        surface_markdown,
        update_experiments_md,
    )
    from repro.faults import FAST_RETRIES

    names = FAST_WORKLOADS if args.fast else workload_names()
    definition = SweepDefinition(
        name=args.name, workloads=tuple(names), seed=args.seed
    )
    points = (
        definition.points()
        if args.points <= 0 or args.points >= definition.size
        else definition.sample(args.points)
    )
    print(
        f"sweep {definition.name!r}: {len(points)} points "
        f"({definition.size} in the full product), "
        f"backend={args.backend}, jobs={args.jobs}"
    )

    def execute(backend, cache_dir):
        return run_sweep(
            definition,
            points=points,
            cache_dir=cache_dir,
            jobs=args.jobs,
            backend=backend,
            retry_policy=FAST_RETRIES,
        )

    with obs.span("cli.sweep", points=len(points), backend=args.backend):
        if args.cache_dir is not None:
            result = execute(args.backend, args.cache_dir)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
                result = execute(args.backend, scratch)
        identical = True
        if args.check:
            with tempfile.TemporaryDirectory(
                prefix="repro-sweep-check-"
            ) as scratch:
                reference = execute("serial", scratch)
            identical = result.signatures() == reference.signatures()
            print(
                "bit-identical to serial execution: "
                + ("yes" if identical else "NO")
            )
    counts = result.fanout.get("outcomes", {})
    if counts:
        print("outcomes: "
              + " ".join(f"{name}={count}" for name, count in counts.items()))
    if result.missing:
        for point in result.missing:
            print(f"MISSING: {point.token}")
    print(f"{len(result.records)} records over {result.unique_runs} "
          "unique simulations")
    if args.output:
        path = result.write_json(args.output)
        print(f"wrote {path}")
    if args.update_experiments is not None:
        target = args.update_experiments or "EXPERIMENTS.md"
        path = update_experiments_md(surface_markdown(result), target)
        print(f"wrote {path}")
    else:
        print(surface_markdown(result))
    return 0 if identical and not result.missing else 1


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
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="activate a deterministic fault-injection plan for this run "
        "(e.g. 'seed=7,crash=0.2,corrupt=0.2'); equivalent to setting "
        "REPRO_FAULTS",
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
    fig.add_argument("--jobs", type=int, default=None,
                     help="prefetch the design grid over N processes")
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
                        help="simulate design grid points over N processes")
    report.add_argument("--cache-dir", default=None,
                        help="persist traces/runs here (default: "
                        "$REPRO_CACHE_DIR if set, else no disk cache)")
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

    chaos = sub.add_parser(
        "chaos",
        help="run the design grid under injected faults; verify results "
        "stay bit-identical to a clean serial run",
    )
    chaos.add_argument("--workload", choices=workload_names(), default=None,
                       help="single workload (default: the fast subset, a "
                       "12-point grid)")
    chaos.add_argument("--jobs", type=int, default=None,
                       help="parallel workers for the faulted run "
                       "(default: 2)")
    chaos.add_argument("--manifest", nargs="?", const="", default=None,
                       help="record a run manifest with the fault plan and "
                       "per-key outcomes (optional path; default "
                       "CHAOS.manifest.json)")
    chaos.set_defaults(func=_cmd_chaos)

    sweep = sub.add_parser(
        "sweep",
        help="run a sampled design-space sweep (threshold x workload x "
        "link scale x memory backend) through an executor backend",
    )
    sweep.add_argument("--name", default="design-space",
                       help="sweep name (seeds the deterministic sampler)")
    sweep.add_argument("--points", type=int, default=64,
                       help="sampled point budget (<= 0: the full "
                       "Cartesian product)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="sampling seed (default: 0)")
    sweep.add_argument("--backend", default="process-pool",
                       choices=["serial", "process-pool"],
                       help="executor backend for the fan-out "
                       "(default: process-pool)")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: cpu count)")
    sweep.add_argument("--fast", action="store_true",
                       help="3-workload subset instead of all of Table II")
    sweep.add_argument("--check", action="store_true",
                       help="re-run the sweep serially in a separate cache "
                       "and fail unless results are bit-identical")
    sweep.add_argument("--cache-dir", default=None,
                       help="persist traces/runs here (default: a "
                       "per-invocation temporary directory)")
    sweep.add_argument("--output", default=None,
                       help="write the full sweep result as JSON here")
    sweep.add_argument("--update-experiments", nargs="?", const="",
                       default=None,
                       help="rewrite the crossover-surface section of "
                       "EXPERIMENTS.md (optional path) instead of printing "
                       "it")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Both switches thread through simulation layers (runner, report,
    # pool workers) via the environment variables those layers consult;
    # restore them afterwards so embedding callers see no side effects.
    restores = []
    faults_activated = False
    if args.check_invariants:
        from repro.analysis.invariants import ENV_FLAG as invariants_flag

        restores.append((invariants_flag, os.environ.get(invariants_flag)))
        os.environ[invariants_flag] = "1"
    if args.faults:
        from repro import faults

        plan = faults.FaultPlan.parse(args.faults)
        restores.append((faults.ENV_FLAG, os.environ.get(faults.ENV_FLAG)))
        os.environ[faults.ENV_FLAG] = args.faults
        faults.activate(plan)
        faults_activated = True
    try:
        return args.func(args)
    finally:
        if faults_activated:
            from repro import faults

            faults.reset()
        for flag, previous in restores:
            if previous is None:
                os.environ.pop(flag, None)
            else:
                os.environ[flag] = previous


if __name__ == "__main__":
    sys.exit(main())
