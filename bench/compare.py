"""``python -m bench compare OLD NEW``: a verdict per workload x
end-to-end metric, and whether every simulated counter came out the same.

OLD and NEW are result files, or quoted glob patterns matching several
(a set of runs, e.g. ``'bench/out/parent-*.json'``).  With one run on a
side, a metric's spread comes from that run's passes; with several, from
the runs' values, whose median is then the side's value.  Verdicts use
the bounds in BENCHMARK.json (see :func:`bench.stats.verdict`).  Exit
status 0 means no metric got worse and the simulation is identical.
"""

from __future__ import annotations

import argparse
import glob
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from bench.stats import load_spec, quantile, quartiles, verdict


def _metric(runs: Sequence[Mapping[str, Any]], workload: str,
            name: str) -> Optional[Dict[str, Any]]:
    entries = [
        run["workloads"][workload]["metrics"][name]
        for run in runs
        if name in run["workloads"].get(workload, {}).get("metrics", {})
    ]
    if not entries:
        return None
    if len(entries) == 1:
        return dict(entries[0])
    values = [entry["value"] for entry in entries]
    return {"value": quantile(values, 0.5), "samples": values}


def snapshots(result: Mapping[str, Any]) -> Dict[str, Any]:
    """label -> simulated snapshot, from the first pass that finished it."""
    found: Dict[str, Any] = {}
    for record in result["passes"]:
        for label, snapshot in record.get("snapshots", {}).items():
            found.setdefault(label, snapshot)
    return found


def _by_seed(runs: Sequence[Mapping[str, Any]]) -> Dict[Tuple[int, str], Any]:
    return {
        (run["args"]["seed"], workload): snapshots(result)
        for run in runs for workload, result in run["workloads"].items()
    }


def compare(
    old: Sequence[Mapping[str, Any]],
    new: Sequence[Mapping[str, Any]],
    spec: Mapping[str, Any],
) -> Tuple[List[Dict[str, Any]], bool]:
    """Verdict rows for the workloads both sides ran, plus
    ``sim_identical``: every (seed, workload) both sides ran has equal
    simulated snapshots, and there is at least one."""
    rows: List[Dict[str, Any]] = []
    workloads = [name for run in old for name in run["workloads"]]
    present = {name for run in new for name in run["workloads"]}
    for workload in dict.fromkeys(name for name in workloads if name in present):
        for metric in spec["end_to_end"]:
            before = _metric(old, workload, metric["name"])
            after = _metric(new, workload, metric["name"])
            if before is None or after is None:
                continue
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "old": before,
                "new": after,
                "verdict": verdict(before, after, metric["better"],
                                   metric["bound"]),
            })
    old_sims, new_sims = _by_seed(old), _by_seed(new)
    common = [key for key in old_sims if key in new_sims]
    sim_identical = bool(common) and all(
        old_sims[key] == new_sims[key] for key in common
    )
    return rows, sim_identical


def _load(pattern: str) -> List[Dict[str, Any]]:
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise SystemExit(f"no result file matches {pattern!r}")
    runs = []
    for path in paths:
        with open(path) as handle:
            runs.append(json.load(handle))
    return runs


def _describe(entry: Mapping[str, Any]) -> str:
    q1, _median, q3 = quartiles(entry["samples"])
    return f"{entry['value']:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("old", help="result file or glob: the parent commit")
    parser.add_argument("new", help="result file or glob: the change")
    args = parser.parse_args(argv)
    rows, sim_identical = compare(_load(args.old), _load(args.new), load_spec())
    print(f"{'workload':<16} {'metric':<15} {'old value [q1, q3]':<34} "
          f"{'new value [q1, q3]':<34} verdict")
    for row in rows:
        print(f"{row['workload']:<16} {row['metric']:<15} "
              f"{_describe(row['old']):<34} {_describe(row['new']):<34} "
              f"{row['verdict']}")
    print(f"sim_identical: {str(sim_identical).lower()}")
    worse = any(row["verdict"] == "worse" for row in rows)
    return 0 if rows and sim_identical and not worse else 1
