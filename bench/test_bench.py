"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest bench -q`` from the repository
root (about a minute: two short benchmark runs plus a few points).
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
from typing import Any, Dict, List

import pytest

from bench import stats
from bench.cli import OUT_DIR, ROOT
from bench.compare import compare
from bench.layers import sim_metrics
from bench.passes import run_points
from bench.points import WORKLOADS, NoSpans, Outcome, Point, Spans
from bench.speed import ScaledTimer, clock

SPEC = stats.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_names_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    workloads, end_to_end, per_layer = (
        SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"])
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [entry["name"] for entry in workloads + end_to_end + per_layer]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert {entry["name"] for entry in workloads} == set(WORKLOADS)
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in end_to_end:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in per_layer:
        assert set(entry) == {"name", "unit", "better"}
    for entry in end_to_end + per_layer:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    setup = next(entry for entry in end_to_end if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in end_to_end)
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["bench"]


def _run(*args: str) -> Any:
    done = subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=175,
    )
    return done, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture
def label():
    name = "test-bench"
    yield name
    (OUT_DIR / f"{name}.json").unlink(missing_ok=True)


def test_one_pass_quality_run_on_held_out_seed_prints_every_metric(label):
    done, result = _run("--workload", "quality", "--seconds", "1",
                        "--seed", "1", "--label", label)
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 18  # one pass fits in a second
    declared = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b",
                         done.stdout, re.MULTILINE), name
        assert result["metrics"][name]["value"] > 0
    record = json.loads((OUT_DIR / f"{label}.json").read_text())
    machine = record["machine"]
    for key in ("commit", "source_version", "python", "numpy", "nproc",
                "loadavg_1m"):
        assert key in machine
    # Every time is CPU seconds, less the probes', scaled by the speed
    # the probes measured while it ran.
    for timed in record["workloads"]["quality"]["passes"]:
        assert timed["setup_s"] == pytest.approx(
            timed["setup_cpu_s"] * timed["setup_speed"])
        for point in timed["points"]:
            assert point["speed"] > 0 and 0 < point["probe_s"] < point["cpu_s"]
            assert point["seconds"] == pytest.approx(point["cpu_s"] * point["speed"])


def test_traced_quality_run_prints_every_layer_metric(label):
    done, result = _run("--workload", "quality", "--trace", "1",
                        "--label", label)
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {entry["name"] for entry in SPEC["per_layer"]}
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["render.render_atfim_s"] > 0
    # The control workload never reaches the expansion or the replay.
    assert metrics["core.expand_s"] == 0 and metrics["sim.frame_cycles.baseline"] == 0


def _point(workload: str, label: str, seed: int = 0) -> Point:
    points = WORKLOADS[workload](seed, NoSpans())
    return next(point for point in points if point.label == label)


@pytest.mark.parametrize("workload, label", [
    ("grid-fast", "riddick-640x480/a-tfim@A-TFIM-001pi"),
    ("animation", "doom3-640x480/strafe/baseline"),
])
def test_decomposed_point_reproduces_the_public_call(workload, label):
    point = _point(workload, label)
    composite = point.finish(point.call(), NoSpans())
    spans = Spans()
    decomposed = point.finish(point.call_traced(spans), spans)
    assert composite.problems == [] and decomposed.problems == []
    assert decomposed.snapshot == composite.snapshot
    assert decomposed.digest == composite.digest
    layers = {span["name"] for span in spans.roots}
    assert {"core.expand", "core.make_path", "analysis.invariants"} <= layers


def test_held_out_seed_reaches_the_simulated_inputs():
    label = "fear-640x480/baseline"
    results: List[Dict[str, float]] = []
    for seed in (0, 1):
        point = _point("threshold-sweep", label, seed)
        outcome = point.finish(point.call(), NoSpans())
        assert outcome.problems == []
        results.append(sim_metrics([point.meta()], {label: outcome.snapshot}))
    changed = [name for name in results[0] if results[0][name] != results[1][name]]
    assert any(name.startswith("sim.") for name in changed)


def test_scaled_timer_probes_during_the_block_and_disarms():
    previous = signal.getsignal(signal.SIGALRM)
    with ScaledTimer() as timer:
        deadline = clock() + 0.2
        while clock() < deadline:
            pass
    assert len(timer.samples) > 1  # the start probe, then the timer's
    assert 0 < timer.probe_s < timer.cpu_s
    assert timer.seconds == pytest.approx(timer.cpu_s * timer.speed)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


class _Fine(Point):
    def call(self) -> int:
        return 100

    def finish(self, raw: int, spans: Any) -> Outcome:
        return Outcome(requests=raw, snapshot={"value": 1}, problems=[])


class _Raising(Point):
    def call(self) -> int:
        raise RuntimeError("injected")


def test_raising_point_counts_as_failed():
    records, snapshots = run_points([_Fine("fine", "g"), _Raising("bad", "g")])
    assert "bad" not in snapshots
    assert records[1]["problems"] == ["RuntimeError: injected"]
    record = {"points": records, "snapshots": snapshots, "peak_rss_mb": 1.0}
    assert stats.attempted_failed([record]) == [2, 1]
    metrics = stats.end_to_end([record], [0.5])
    assert metrics["requests_per_s"]["value"] > 0
    assert metrics["point_s_p50"]["points"] == 1


def test_snapshot_divergence_between_passes_counts_as_failed():
    passes = []
    for digest in ("aaaa", "bbbb"):
        records, _ = run_points([_Fine("fine", "g")])
        records[0]["digest"] = digest
        passes.append({"points": records})
    stats.mark_divergent(passes)
    assert stats.attempted_failed(passes) == [2, 1]
    assert passes[0]["points"][0]["problems"] == []


def _result(seed: int, snapshot: Dict[str, Any],
            **samples: List[float]) -> Dict[str, Any]:
    metrics = {
        name: {"value": stats.quantile(values, 0.5), "samples": values}
        for name, values in samples.items()
    }
    return {
        "args": {"seed": seed},
        "workloads": {"grid-fast": {
            "metrics": metrics,
            "passes": [{"snapshots": {"point": snapshot}}],
        }},
    }


def _verdicts(old: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, str]:
    rows, _ = compare([old], [new], SPEC)
    return {row["metric"]: row["verdict"] for row in rows}


def test_compare_verdicts_and_sim_identity():
    old = _result(0, {"cycles": 10.0},
                  requests_per_s=[1000.0, 1010.0, 990.0],
                  point_s_p50=[1.0, 1.01, 0.99],
                  setup_s=[0.5, 0.5, 0.5])
    new = _result(0, {"cycles": 10.0},
                  requests_per_s=[1300.0, 1310.0, 1290.0],   # 30 % faster
                  point_s_p50=[1.3, 1.31, 1.29],             # 30 % slower
                  setup_s=[0.52, 0.51, 0.5])                 # within 25 %
    assert _verdicts(old, new) == {
        "requests_per_s": "better", "point_s_p50": "worse", "setup_s": "same",
    }
    _, sim_identical = compare([old], [new], SPEC)
    assert sim_identical

    noisy = _result(0, {"cycles": 10.0},
                    requests_per_s=[600.0, 1000.0, 1400.0],
                    point_s_p50=[0.5, 1.0, 1.5],
                    setup_s=[0.4, 0.6, 0.8])
    assert set(_verdicts(old, noisy).values()) == {"unresolved"}
    # Spread wider than the bound, but every new sample beats every old one.
    clean_win = _result(0, {"cycles": 10.0}, requests_per_s=[1500.0, 2000.0, 2500.0])
    assert _verdicts(noisy, clean_win) == {"requests_per_s": "better"}

    _, sim_identical = compare([old], [_result(0, {"cycles": 11.0}, setup_s=[0.5])], SPEC)
    assert not sim_identical
    _, sim_identical = compare([old], [_result(1, {"cycles": 10.0}, setup_s=[0.5])], SPEC)
    assert not sim_identical


def test_compare_sets_of_runs_use_the_spread_between_runs():
    # Each run's passes disagree wildly, but the runs' values agree.
    def run(seed: int, value: float) -> Dict[str, Any]:
        result = _result(seed, {"cycles": float(seed)},
                         requests_per_s=[value / 2, value, value * 2])
        result["workloads"]["grid-fast"]["metrics"]["requests_per_s"]["value"] = value
        return result

    old = [run(seed, 1000.0 + seed) for seed in range(4)]
    new = [run(seed, 1010.0 - seed) for seed in range(4)]
    rows, sim_identical = compare(old, new, SPEC)
    assert [row["verdict"] for row in rows] == ["same"]
    assert rows[0]["old"]["samples"] == [1000.0, 1001.0, 1002.0, 1003.0]
    assert sim_identical
    assert _verdicts(old[0], new[0]) == {"requests_per_s": "unresolved"}
