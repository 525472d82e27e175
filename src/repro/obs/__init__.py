"""Observability: span tracing, decision audit, and run telemetry.

The paper's argument is entirely about *where time goes inside a
stage* (Eq. (1)–(3) split each stage into shuffle-read, compute, and
disk-write phases) and *why Algorithm 1 picked each delay* (the
candidate scan of Sec. 4.1).  This package makes both inspectable
after a run:

* :mod:`repro.obs.tracer` — a low-overhead span tracer with explicit
  (simulation-clock) timestamps, a null implementation for the off
  state, and a counters/gauges registry.
* :mod:`repro.obs.manifest` — run manifests (seeds, config hash,
  package versions, workload fingerprints) attached to every export.
* :mod:`repro.obs.export` — Chrome trace-event JSON loadable in
  Perfetto / ``chrome://tracing``, JSON-lines span dumps, and the
  schema validator CI runs against emitted traces.
* :mod:`repro.obs.inspect` — offline span-tree / decision-audit
  summaries (the ``repro inspect`` subcommand).
* :mod:`repro.obs.metrics` — aggregate interleaving analytics (stage
  overlap, CPU/network complementarity, delay-wait shares, utilization
  bands) with markdown / OpenMetrics / CSV exporters (``repro
  report``).
* :mod:`repro.obs.critical` — critical-path extraction with an exact
  (bit-for-bit) per-category blame decomposition of every JCT and the
  makespan, plus cross-run diffing (``repro why``).
* :mod:`repro.obs.progress` — the throttled stderr heartbeat behind
  the ``--progress`` flag (a renderer over the live bus).
* :mod:`repro.obs.live` — the live telemetry plane: thread-safe
  metrics registry, run-event bus, OpenMetrics HTTP server
  (``--serve``), streaming ``/events``, structured JSON logs, and the
  ``repro tail`` client.

The simulator emits one span per stage with ``delay-wait`` /
``shuffle-read`` / ``compute`` / ``disk-write`` phase children;
Algorithm 1 emits one decision-audit span per scanned stage recording
the scan bounds, every candidate delay evaluated with its predicted
makespan, and the chosen delay — enough to replay the algorithm's
reasoning offline.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    CounterRegistry,
    CounterSample,
    Instant,
    NullTracer,
    Span,
    Tracer,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    build_manifest,
    canonical_json,
    config_hash,
    workload_fingerprint,
)
from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    read_chrome_trace,
    read_spans_jsonl,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.inspect import (
    counter_track_summary,
    decision_audits,
    delay_tables,
    render_counter_summary,
    render_summary,
    span_nodes,
)
from repro.obs.metrics import (
    DEFAULT_BAND_EDGES,
    InterleavingReport,
    PathDelayShare,
    UtilizationBands,
    band_fractions,
    fraction_below,
    interleaving_report,
    render_markdown_report,
    reports_to_csv,
    reports_to_openmetrics,
)
from repro.obs.critical import (
    CATEGORIES,
    BlameDiff,
    JobBlame,
    RunBlame,
    StageBlame,
    blame_diff,
    render_blame_markdown,
    render_diff_markdown,
    run_blame,
    validate_blame_payload,
)
from repro.obs.progress import ProgressReporter
from repro.obs.live import (
    LiveHub,
    LiveServer,
    MetricsRegistry,
    StructuredLogger,
    TelemetryBus,
    TelemetryPublisher,
    validate_openmetrics_text,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Instant",
    "CounterSample",
    "CounterRegistry",
    "RunManifest",
    "build_manifest",
    "canonical_json",
    "config_hash",
    "workload_fingerprint",
    "MANIFEST_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "to_chrome_trace",
    "write_chrome_trace",
    "read_chrome_trace",
    "validate_chrome_trace",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "span_nodes",
    "decision_audits",
    "delay_tables",
    "render_summary",
    "counter_track_summary",
    "render_counter_summary",
    "DEFAULT_BAND_EDGES",
    "UtilizationBands",
    "PathDelayShare",
    "InterleavingReport",
    "band_fractions",
    "fraction_below",
    "interleaving_report",
    "render_markdown_report",
    "reports_to_csv",
    "reports_to_openmetrics",
    "CATEGORIES",
    "StageBlame",
    "JobBlame",
    "RunBlame",
    "BlameDiff",
    "run_blame",
    "blame_diff",
    "render_blame_markdown",
    "render_diff_markdown",
    "validate_blame_payload",
    "ProgressReporter",
    "TelemetryBus",
    "TelemetryPublisher",
    "LiveHub",
    "LiveServer",
    "MetricsRegistry",
    "StructuredLogger",
    "validate_openmetrics_text",
]
