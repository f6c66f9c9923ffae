"""Zero-dependency observability: spans, metrics, logging, run reports.

The pipeline's window into itself.  Four pieces, stdlib-only:

* **Spans and the event log** (:mod:`repro.obs.spans`,
  :mod:`repro.obs.events`) — hierarchical wall/CPU timings
  (``with span("kmeans.restart", restart=3): ...``) logged as open and
  close events into the observation's one event log, together with
  stage, progress, heartbeat and metric events.  Worker-side events
  travel back with task results and are replayed under the parent
  span exactly once, in submission order.  An attached
  :class:`EventBus` writes the log live as JSONL.
* **Metrics** (:mod:`repro.obs.metrics`) — a thread-safe registry of
  counters, gauges and fixed-bucket histograms absorbing the signals
  the pipeline computes anyway (k-means skipped-row ratio, GA
  fitness-cache hit rate, feature-block cache hits, per-meter
  throughput, PCA retention, BIC per restart).
* **Logging** (:mod:`repro.obs.log`) — stdlib ``logging`` with run-id
  stamped JSON and console formatters, replacing bare ``print()`` in
  library code.
* **Run reports** (:mod:`repro.obs.report`) — one JSON document per
  ``characterize`` invocation (config digest, git SHA, platform, span
  tree, final metrics), written via ``--run-report`` and rendered by
  ``repro report``.  The span tree is one fold of the event log, the
  same fold ``repro report --from-events`` and ``repro watch``
  (:mod:`repro.obs.live`) apply to a log on disk.  :class:`recorded_run`
  (:mod:`repro.obs.run`) is the one scaffold that brackets a run's log
  with ``run.start`` and ``run.end`` around its observation.

Everything is inert until :func:`observe` installs an observation:
with none active, :func:`span` and :func:`metrics` return shared
no-ops, results are bit-identical either way, and the enabled-path
overhead is gated under 2% by ``benchmarks/bench_obs_overhead.py``.
Naming conventions and the report schema live in
``docs/observability.md``.
"""

from .bench import emit_bench
from .events import (
    EVENT_SCHEMA_VERSION,
    EventBus,
    JsonlSink,
    ProgressEstimator,
    emit_event,
    emit_progress,
    read_events,
)
from .history import (
    HISTORY_SCHEMA_VERSION,
    HistoryStore,
    default_history_dir,
    diff_records,
    flatten_span_walls,
    render_diff,
)
from .live import render_live, summarize_events, watch
from .log import (
    ConsoleFormatter,
    JsonFormatter,
    RunIdFilter,
    configure_logging,
    get_logger,
)
from .metrics import DEFAULT_BUCKETS, NOOP_REGISTRY, MetricsRegistry, NoopMetricsRegistry
from .proc import peak_rss_children_mb, peak_rss_mb, record_peak_rss
from .report import (
    REQUIRED_KEYS,
    SCHEMA_VERSION,
    STAGES,
    STREAMING_STAGES,
    build_report,
    git_sha,
    load_report,
    missing_stages,
    render_report,
    report_from_events,
    validate_report,
    write_report,
)
from .run import recorded_run
from .spans import (
    Observation,
    Snapshot,
    Span,
    active,
    capture,
    current,
    metrics,
    new_run_id,
    observe,
    span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "EVENT_SCHEMA_VERSION",
    "HISTORY_SCHEMA_VERSION",
    "NOOP_REGISTRY",
    "REQUIRED_KEYS",
    "SCHEMA_VERSION",
    "STAGES",
    "STREAMING_STAGES",
    "ConsoleFormatter",
    "EventBus",
    "HistoryStore",
    "JsonFormatter",
    "JsonlSink",
    "MetricsRegistry",
    "NoopMetricsRegistry",
    "Observation",
    "ProgressEstimator",
    "RunIdFilter",
    "Snapshot",
    "Span",
    "active",
    "build_report",
    "capture",
    "configure_logging",
    "current",
    "default_history_dir",
    "diff_records",
    "emit_bench",
    "emit_event",
    "emit_progress",
    "flatten_span_walls",
    "get_logger",
    "git_sha",
    "load_report",
    "metrics",
    "missing_stages",
    "new_run_id",
    "observe",
    "peak_rss_children_mb",
    "peak_rss_mb",
    "read_events",
    "record_peak_rss",
    "recorded_run",
    "render_diff",
    "render_live",
    "render_report",
    "report_from_events",
    "span",
    "summarize_events",
    "validate_report",
    "watch",
    "write_report",
]
