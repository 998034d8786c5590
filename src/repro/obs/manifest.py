"""Run manifests: the provenance record written next to experiment output.

A :class:`RunManifest` captures everything needed to trust -- or
reproduce -- one invocation of the experiment tooling: the command and
configuration (with a content digest), the simulator source version the
results were computed from, the runner's cache effectiveness counters,
the span tree recorded by :mod:`repro.obs.tracer`, and the flattened
:class:`~repro.sim.stats.StatGroup` metrics of every completed design
run.  Serialized as strict JSON (``allow_nan=False``: the PR-1 JSON
safety rule -- non-finite values are a bug, not a serialization detail).

``python -m repro trace <manifest.json>`` converts the embedded span
tree to Chrome trace-event format (see :mod:`repro.obs.chrome`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.chrome import chrome_trace
from repro.obs.tracer import get_tracer, tracing_enabled

MANIFEST_SCHEMA = "repro-run-manifest/1"


def config_digest(config: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of a config mapping
    (first 16 hex chars, mirroring the cache's key digests)."""
    canonical = json.dumps(dict(config), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    """One tool invocation's provenance + telemetry record."""

    command: str
    config: Dict[str, Any]
    digest: str
    source: str
    created_unix: float
    tracing: bool
    cache: Dict[str, float] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    stats: Dict[str, Optional[float]] = field(default_factory=dict)
    faults: Dict[str, Any] = field(default_factory=dict)
    """Robustness record: the active fault plan (if any) and the last
    fan-out's per-key outcomes.  Empty when the run never fanned out."""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "command": self.command,
            "config": self.config,
            "digest": self.digest,
            "source": self.source,
            "created_unix": self.created_unix,
            "tracing": self.tracing,
            "cache": self.cache,
            "spans": self.spans,
            "stats": self.stats,
            "faults": self.faults,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        """Inverse of :meth:`as_dict`; validates the schema marker."""
        schema = payload.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise ValueError(
                f"not a run manifest (schema {schema!r}, "
                f"expected {MANIFEST_SCHEMA!r})"
            )
        return cls(
            command=payload["command"],
            config=dict(payload.get("config", {})),
            digest=payload["digest"],
            source=payload["source"],
            created_unix=payload["created_unix"],
            tracing=bool(payload.get("tracing", False)),
            cache=dict(payload.get("cache", {})),
            spans=list(payload.get("spans", [])),
            stats=dict(payload.get("stats", {})),
            faults=dict(payload.get("faults", {})),
        )

    def chrome_trace(self) -> Dict[str, Any]:
        """The embedded span tree as a Chrome trace-event object."""
        return chrome_trace(self.spans)

    def write(self, path: Union[str, Path]) -> Path:
        """Write strict JSON (non-finite values are a bug, not data)."""
        output = Path(path)
        output.write_text(
            json.dumps(self.as_dict(), indent=2, allow_nan=False) + "\n",
            encoding="utf-8",
        )
        return output


def load_manifest(path: Union[str, Path]) -> RunManifest:
    """Read and validate a manifest written by :meth:`RunManifest.write`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return RunManifest.from_dict(payload)


def build_manifest(
    command: str,
    config: Optional[Mapping[str, Any]] = None,
    runner: Optional[Any] = None,
) -> RunManifest:
    """Assemble a manifest from the current process state.

    ``runner`` (an :class:`~repro.experiments.runner.ExperimentRunner`)
    contributes its cache counters and the flattened per-run StatGroup
    metrics, plus its most recent fan-out record; the span tree is
    drained from the process-wide tracer.
    """
    # Imported lazily: the cache module itself records spans through
    # repro.obs, so a top-level import would be circular.
    from repro.experiments.cache import source_version

    config = dict(config or {})
    cache: Dict[str, float] = {}
    stats: Dict[str, Optional[float]] = {}
    faults: Dict[str, Any] = {}
    from repro.faults.injector import active_injector

    injector = active_injector()
    if injector is not None:
        faults["plan"] = injector.plan.as_dict()
    if runner is not None:
        from repro.obs.snapshot import runner_stat_group

        report = getattr(runner, "fanout_report", None)
        fanout = report() if callable(report) else None
        if fanout is not None and fanout.tasks:
            faults["fanout"] = fanout.as_dict()
        counters = runner.cache_stats()
        cache = {
            "memo_hits": float(counters.memo_hits),
            "memo_misses": float(counters.memo_misses),
            "disk_hits": float(counters.disk_hits),
            "disk_misses": float(counters.disk_misses),
            "disk_stores": float(counters.disk_stores),
            "disk_errors": float(counters.disk_errors),
            "disk_entries": float(counters.disk_entries),
            "disk_bytes": float(counters.disk_bytes),
            "disk_hit_rate": counters.disk_hit_rate,
        }
        stats = runner_stat_group(runner).as_dict()
    return RunManifest(
        command=command,
        config=config,
        digest=config_digest(config),
        source=source_version(),
        created_unix=time.time(),  # repro: noqa(REP300) -- provenance timestamp; excluded from the bit-identity comparison
        tracing=tracing_enabled(),
        cache=cache,
        spans=get_tracer().as_dicts(),
        stats=stats,
        faults=faults,
    )


def write_chrome_trace(manifest: Union[RunManifest, str, Path],
                       path: Union[str, Path]) -> Path:
    """Write the Chrome trace of a manifest (object or file) to ``path``."""
    if not isinstance(manifest, RunManifest):
        manifest = load_manifest(manifest)
    output = Path(path)
    output.write_text(
        json.dumps(manifest.chrome_trace(), indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    return output
