"""Zero-dependency observability: spans, metrics, logging, run reports.

The pipeline's window into itself.  Four pieces, stdlib-only:

* **Spans and the event log** (:mod:`repro.obs.spans`,
  :mod:`repro.obs.events`) — hierarchical wall/CPU timings
  (``with span("kmeans.restart", restart=3): ...``) logged as open and
  close events into the observation's one event log, together with
  the run's ``run.start`` and ``run.end`` and its stage, progress,
  heartbeat and metric events.  Worker-side events, and with them the
  worker's metrics, travel back with task results and are replayed
  under the parent span exactly once, in submission order.  An
  attached :class:`EventBus` writes the same log live as JSONL.
* **Metrics** (:mod:`repro.obs.metrics`) — a thread-safe registry of
  counters and gauges absorbing the signals the pipeline computes
  anyway (k-means skipped-row ratio, GA fitness-cache hit rate,
  feature-block cache hits, per-meter throughput, PCA retention).  The
  log is their only carrier: each ``span.close`` takes what no earlier
  event carried as its ``metrics`` field, so a log read mid-run or
  left by a killed run has the counters of every span that closed,
  and the registry reads the fold of the log plus what is pending.
* **Logging** (:mod:`repro.obs.log`) — stdlib ``logging`` with run-id
  stamped JSON and console formatters, replacing bare ``print()`` in
  library code.
* **Run reports** (:mod:`repro.obs.report`) — one JSON document per
  ``characterize`` invocation (config digest, git SHA, platform, span
  tree, final metrics), written via ``--run-report`` and rendered by
  ``repro report``.  Every view of a run is a view of one fold of its
  event log (:class:`~repro.obs.spans.EventFold`): the live report,
  ``repro report --from-events``, ``repro watch``
  (:mod:`repro.obs.live`) and ``Observation.root``, so a live report
  equals the report rebuilt from its written log.
  :class:`recorded_run` (:mod:`repro.obs.run`) is the one scaffold
  that opens a run's log with ``run.start`` and closes it with
  ``run.end``.

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
    ledger_row,
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
from .metrics import NOOP_REGISTRY, MetricsRegistry, NoopMetricsRegistry
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
    "get_logger",
    "git_sha",
    "ledger_row",
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
