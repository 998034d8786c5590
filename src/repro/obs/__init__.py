"""``repro.obs``: tracing spans, run manifests and metrics export.

The observability layer for the reproduction's *host-side* phases:

* :class:`~repro.obs.tracer.Span` / :class:`~repro.obs.tracer.Tracer` --
  context-manager spans (wall-clock start, monotonic duration, nesting,
  attributes, attached StatGroup snapshots), off by default and
  zero-overhead while off; enable with ``REPRO_TRACE=1`` or
  :func:`set_tracing`.
* :class:`~repro.obs.manifest.RunManifest` -- the JSON provenance record
  (config digest, source version, span tree, flattened metrics with the
  runner's memo counters) written next to experiment output by the
  ``--manifest`` flag of ``report``/``fig``.  Spans recorded by
  ``report --jobs`` pool workers are grafted under the parent's
  ``runner.run_many`` span, so a parallel run still yields one tree.
* :mod:`~repro.obs.chrome` -- Chrome trace-event export of the span
  tree (``python -m repro trace <manifest.json>``).
* :mod:`~repro.obs.snapshot` -- StatGroup snapshots of drained frames,
  design runs and whole runners.
"""

from repro.obs.chrome import chrome_trace
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    build_manifest,
    config_digest,
    load_manifest,
    write_chrome_trace,
)
from repro.obs.snapshot import frame_stat_group, run_stat_group, runner_stat_group
from repro.obs.tracer import (
    ENV_FLAG,
    Span,
    Tracer,
    annotate,
    attach_stats,
    get_tracer,
    reset_tracer,
    set_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "ENV_FLAG",
    "MANIFEST_SCHEMA",
    "RunManifest",
    "Span",
    "Tracer",
    "annotate",
    "attach_stats",
    "build_manifest",
    "chrome_trace",
    "config_digest",
    "frame_stat_group",
    "get_tracer",
    "load_manifest",
    "reset_tracer",
    "run_stat_group",
    "runner_stat_group",
    "set_tracing",
    "span",
    "tracing_enabled",
    "write_chrome_trace",
]
