"""Run manifests: the provenance record written next to experiment output.

A :class:`RunManifest` captures everything needed to trust -- or
reproduce -- one invocation of the experiment tooling: the command and
configuration (with a content digest), the simulator source version the
results were computed from, the span tree recorded by
:mod:`repro.obs.tracer`, and the flattened
:class:`~repro.sim.stats.StatGroup` metrics of the runner: its memo
counters, every completed design run and every render.  Serialized as
strict JSON (``allow_nan=False``: non-finite values are a bug, not a
serialization detail).

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
    (first 16 hex chars, like the source version)."""
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
    spans: List[Dict[str, Any]] = field(default_factory=list)
    stats: Dict[str, Optional[float]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "command": self.command,
            "config": self.config,
            "digest": self.digest,
            "source": self.source,
            "created_unix": self.created_unix,
            "tracing": self.tracing,
            "spans": self.spans,
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        """Inverse of :meth:`as_dict`; validates the schema marker.

        Keys this version does not know are ignored, so manifests
        written by older versions (for example with a ``faults`` or a
        ``cache`` block) still load.
        """
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
            spans=list(payload.get("spans", [])),
            stats=dict(payload.get("stats", {})),
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
    contributes its flattened StatGroup metrics: the memo counters,
    every completed run and every render; the span tree is drained from
    the process-wide tracer.
    """
    # Imported lazily: importing repro.experiments loads the runner,
    # which records spans through repro.obs, so a top-level import
    # would be circular.
    from repro.experiments.cache import source_version

    config = dict(config or {})
    stats: Dict[str, Optional[float]] = {}
    if runner is not None:
        from repro.obs.snapshot import runner_stat_group

        stats = runner_stat_group(runner).as_dict()
    return RunManifest(
        command=command,
        config=config,
        digest=config_digest(config),
        source=source_version(),
        # A provenance timestamp, not part of any result.
        created_unix=time.time(),
        tracing=tracing_enabled(),
        spans=get_tracer().as_dicts(),
        stats=stats,
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
