"""Benchmark entry point: ``python -m bench`` and ``python -m bench compare``.

Runs one workload (or ``all``) for ``--seconds``, one pass child at a
time, and prints every metric by name with its unit.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that BENCHMARK.json declares.  The full record -- every
pass's raw samples, quartiles, the simulated snapshot of every point and
the machine it ran on -- goes to ``bench/out/<label>.json``; a traced
run also writes ``bench/out/<workload>.trace.json`` (Chrome trace).
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench.stats import (
    attempted_failed,
    end_to_end,
    load_spec,
    mark_divergent,
    quartiles,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 7
"""Set-ups per run: every pass contributes one, set-up-only children
make up the rest, and ``setup_s`` is their median."""

RUN_DEADLINE_S = 170.0
"""A run stops starting children, and kills a running one, after this."""

CLEARED_ENV = ("REPRO_TRACE", "REPRO_CHECK_INVARIANTS", "REPRO_CACHE_DIR",
               "REPRO_FAULTS")


def child_env() -> Dict[str, str]:
    """One thread per child, and no environment switch that changes what
    the simulator does or memoises."""
    env = {key: value for key, value in os.environ.items()
           if key not in CLEARED_ENV}
    env.update(
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> Dict[str, Any]:
    """Run one pass child to completion and return what it reported."""
    spawned_at = time.monotonic()
    command = [
        sys.executable, "-m", "bench.child", "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--spawned-at", repr(spawned_at),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"{mode} pass killed at the run deadline"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {
            "mode": mode,
            "error": f"{mode} pass exited {done.returncode}:\n"
                     + done.stderr[-4000:],
        }
    return json.loads(lines[-1])


def git_commit() -> str:
    """HEAD of the checkout's own repository, or ``unknown`` outside one."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine() -> Dict[str, Any]:
    """Where and when the run started, so a noisy run can be spotted."""
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def run_timed(workload: str, seed: int, seconds: float,
              deadline: float) -> Dict[str, Any]:
    """Timed passes until the next one would overrun ``seconds``, then
    set-up-only children until there are SETUP_SAMPLES set-ups.

    There is always one timed pass, and no more are forced: on a slow
    host a second pass would double the run's length.  One pass has no
    other to compare its simulated snapshots with, but its points are
    still checked against the invariants."""
    started = time.monotonic()
    passes: List[Dict[str, Any]] = []
    while True:
        passes.append(spawn(workload, seed, "timed", deadline))
        elapsed = time.monotonic() - started
        if "error" in passes[-1]:
            break
        if elapsed * (1 + 1 / len(passes)) > seconds:
            break
    setups = [record["setup_s"] for record in passes if "setup_s" in record]
    while passes[-1].get("error") is None and len(setups) < SETUP_SAMPLES:
        record = spawn(workload, seed, "setup", deadline)
        if "setup_s" not in record:
            passes.append(record)
            break
        setups.append(record["setup_s"])
    mark_divergent(passes)
    attempted, failed = attempted_failed(passes)
    result: Dict[str, Any] = {
        "passes": passes,
        "setup_samples": setups,
        "attempted": attempted,
        "failed": failed,
    }
    try:
        result["metrics"] = end_to_end(passes, setups)
    except ValueError as error:
        result["error"] = str(error)
    return result


def run_traced(workload: str, seed: int, deadline: float) -> Dict[str, Any]:
    """One untraced pass, then one traced pass of the same seed."""
    untraced = spawn(workload, seed, "timed", deadline)
    traced = spawn(workload, seed, "traced", deadline)
    passes = [untraced, traced]
    mark_divergent(passes)
    attempted, failed = attempted_failed(passes)
    result: Dict[str, Any] = {
        "passes": passes, "attempted": attempted, "failed": failed,
    }
    if "layers" in traced and "pass_s" in untraced:
        layers = dict(traced["layers"])
        layers["trace.overhead"] = traced["pass_s"] / untraced["pass_s"] - 1.0
        result["metrics"] = {
            name: {"value": value} for name, value in layers.items()
        }
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"{workload}.trace.json", "w") as handle:
            json.dump(traced.pop("chrome_trace"), handle)
    else:
        result["error"] = "the untraced or the traced pass did not finish"
    return result


def finish_workload(result: Dict[str, Any], declared: Dict[str, str]) -> None:
    """Attach units and quartiles; fail the workload on a metric-set mismatch."""
    errors = [
        record["error"] for record in result["passes"] if "error" in record
    ]
    if "error" in result:
        errors.append(result["error"])
    metrics = result.get("metrics", {})
    if metrics and set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        errors.append(f"metric set differs from BENCHMARK.json: "
                      f"missing {missing}, undeclared {extra}")
    for name, entry in metrics.items():
        entry["unit"] = declared.get(name, "?")
        if "samples" in entry:
            entry["q1"], entry["median"], entry["q3"] = quartiles(entry["samples"])
    result["errors"] = errors
    result["correct"] = not errors and result["failed"] == 0 and bool(metrics)


def print_workload(name: str, result: Dict[str, Any]) -> None:
    passes = [r for r in result["passes"] if r.get("mode") != "setup"]
    print(f"== {name}: {len(passes)} pass(es), "
          f"{result['attempted']} points attempted, {result['failed']} failed")
    for metric, entry in result.get("metrics", {}).items():
        line = f"  {metric:<44} {entry['value']:.6g} {entry['unit']}"
        if "samples" in entry:
            line += (f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                     f"n={len(entry['samples'])}]")
        print(line)
    error_rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  error_rate {error_rate:.6g}")
    for error in result["errors"]:
        print(f"  error: {error}", file=sys.stderr)
    for record in result["passes"]:
        for point in record.get("points", ()):
            for problem in point["problems"]:
                print(f"  failed {point['label']}: {problem}", file=sys.stderr)


def parse_args(argv: Sequence[str], spec: Dict[str, Any]) -> argparse.Namespace:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Whole-frame simulator benchmark (see bench/README.md). "
                    "'python -m bench compare OLD.json NEW.json' compares "
                    "two results.",
    )
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="offsets every scene seed; 1 is held out for "
                             "validating claims")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed-pass budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced pass, "
                             "reporting the per-layer metrics")
    parser.add_argument("--label", default=None,
                        help="result file name (default <workload>-seed<N>)")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    group = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in spec[group]}
    names = ([workload["name"] for workload in spec["workloads"]]
             if args.workload == "all" else [args.workload])

    record: Dict[str, Any] = {
        "schema": "repro-bench/1",
        "args": {"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace},
        "machine": machine(),
        "workloads": {},
    }
    # Warm the bytecode once, so no pass pays for compiling it.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1)

    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        if args.trace:
            result = run_traced(name, args.seed, deadline)
        else:
            result = run_timed(name, args.seed, args.seconds, deadline)
        finish_workload(result, declared)
        record["workloads"][name] = result
        print_workload(name, result)
    first = next(
        (r for result in record["workloads"].values()
         for r in result["passes"] if "source_version" in r), {},
    )
    record["machine"]["source_version"] = first.get("source_version", "unknown")
    record["machine"]["numpy"] = first.get("numpy", "unknown")

    label = args.label or (f"{args.workload}-seed{args.seed}"
                           + ("-trace" if args.trace else ""))
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{label}.json"
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"result: {out_path.relative_to(ROOT)}")

    results = record["workloads"].values()
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, result in record["workloads"].items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, entry in result.get("metrics", {}).items():
            metrics[prefix + metric] = {"value": entry["value"],
                                        "unit": entry["unit"]}
    correct = all(result["correct"] for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1
