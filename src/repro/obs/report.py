"""The run report: one JSON document per pipeline invocation.

A run report captures everything needed to compare two runs after the
fact — what was run (config digest and fields, git SHA, platform),
where the time went (the full span tree), and what the counters saw
(final metric values).  ``repro characterize --run-report PATH`` writes
one; ``repro report PATH`` renders it as a text summary.

The report is a view of one fold of the run's event log
(:class:`repro.obs.spans.EventFold`), whether the log is an
observation's in-memory one (:func:`build_report`) or one read back
from disk (:func:`report_from_events`).  The in-memory log and the
written one are the same event sequence, so a live report equals the
report rebuilt from its written log, key for key.

Schema (version 1), top-level keys — all required
(:data:`REQUIRED_KEYS`, checked by :func:`validate_report` and the CI
schema smoke step):

``schema_version``
    integer, currently ``1``.
``run_id``
    the observation's run id.
``created``
    unix timestamp of the log's first event (its ``run.start``).
``command``
    what produced the report (e.g. ``"characterize"``), from
    ``run.start``.
``config``
    ``{"digest": AnalysisConfig.full_key(), "fields": {...}}``, from
    ``run.start`` — the digest excludes execution knobs, so two
    reports with one digest computed the same result.
``environment``
    python/numpy versions, platform string, and the git SHA when the
    working tree is a repository (else ``null``), from ``run.start``.
``spans``
    the root span as nested ``{name, attrs, wall_s, cpu_s, children}``
    dicts (see :class:`repro.obs.Span`); the root's durations are the
    run's clocks.
``metrics``
    ``{"counters", "gauges"}``: counter totals and last gauge values
    folded from the metrics the log's ``span.close`` and ``metric``
    events carry.  Always includes the
    process-memory gauges recorded at report build time
    (``proc.peak_rss_mb``, and ``proc.peak_rss_children_mb`` when
    worker processes ran) — see :mod:`repro.obs.proc` — so memory
    joins wall/CPU in every run report.  Reports written before the
    histogram instrument was retired also carry ``histograms``; they
    still validate.

Two optional keys mark a report whose log is incomplete: ``partial``
(``true`` when the log lacks ``run.end``, ends with spans open, or lost
worker events) and ``dropped_events`` (how many worker events were
dropped).

The six methodology stages appear in every complete characterization
report as span names :data:`STAGES` = ``mica``, ``sampling``, ``pca``,
``kmeans``, ``prominent``, ``ga``; :func:`missing_stages` checks for
them.
"""

from __future__ import annotations

import json
import math
import platform as _platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .proc import record_peak_rss
from .spans import EventFold, Observation, Span

__all__ = [
    "REQUIRED_KEYS",
    "SCHEMA_VERSION",
    "STAGES",
    "STREAMING_STAGES",
    "build_report",
    "git_sha",
    "load_report",
    "missing_stages",
    "render_report",
    "report_from_events",
    "validate_report",
    "write_report",
]

SCHEMA_VERSION = 1

#: Required top-level keys, in rendering order.
REQUIRED_KEYS = (
    "schema_version",
    "run_id",
    "created",
    "command",
    "config",
    "environment",
    "spans",
    "metrics",
)

#: Span names of the paper's six methodology stages.
STAGES = ("mica", "sampling", "pca", "kmeans", "prominent", "ga")

#: Span names a streaming (``--streaming``) run records instead.
STREAMING_STAGES = ("streaming.pca", "streaming.kmeans", "streaming.score")

#: Root span name marking a streaming run's report.
_STREAMING_ROOT = "characterize.streaming"

PathLike = Union[str, Path]


def git_sha(cwd: Optional[PathLike] = None) -> Optional[str]:
    """The current git commit SHA, or None outside a repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=str(cwd) if cwd is not None else None,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _environment() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": _platform.platform(),
        "git_sha": git_sha(),
    }


def _document(fold: EventFold, *, incomplete: bool = False) -> Dict[str, Any]:
    """The report document of a folded log.

    Spans the log left open are flagged (:meth:`EventFold.close_open`).
    The document is ``partial`` when any were, when the log is
    ``incomplete``, or when it records dropped worker events — then
    ``dropped_events`` gives their number.
    """
    left_open = fold.close_open()
    start = fold.start or {}
    config: Dict[str, Any] = {"digest": None, "fields": {}}
    if isinstance(start.get("config"), dict):
        config.update(start["config"])
    environment: Dict[str, Any] = dict.fromkeys(("python", "numpy", "platform", "git_sha"))
    if isinstance(start.get("environment"), dict):
        environment.update(start["environment"])
    doc = {
        "schema_version": SCHEMA_VERSION,
        "run_id": fold.run_id or "unknown",
        "created": fold.first_ts if fold.first_ts is not None else time.time(),
        "command": start.get("command") or "characterize",
        "config": config,
        "environment": environment,
        "spans": fold.root.to_dict(),
        "metrics": {"counters": fold.counters, "gauges": fold.gauges},
    }
    if incomplete or left_open or fold.dropped:
        doc["partial"] = True
    if fold.dropped:
        doc["dropped_events"] = fold.dropped
    return doc


def build_report(observation: Observation) -> Dict[str, Any]:
    """The report document of a live observation.

    Stops the observation's clocks (unless they already have stopped),
    logs its peak-RSS gauges and the metrics still pending, and folds its
    event log; the clocks are the only input the log does not carry
    yet (``run.end`` follows the report).  A run recorded by
    :class:`~repro.obs.recorded_run` has ``run.start`` at the head of
    its log, which supplies the command, config and environment.
    """
    observation.finish()
    record_peak_rss(observation.metrics)
    observation.emit_metric_deltas()
    return _document(observation.fold())


def report_from_events(
    events: List[Dict[str, Any]], *, truncated: bool = False
) -> Dict[str, Any]:
    """Rebuild a (possibly partial) run report from a written event log.

    The same fold as :func:`build_report`, over a log read back from
    disk; ``run.end`` supplies the root's ``wall_s`` and ``cpu_s`` (the
    live report's).  Spans still open when the log ends — the residue
    of a SIGKILL — are kept and flagged ``partial: true``; the report
    itself carries ``partial: true`` whenever the log lacks ``run.end``.
    The result passes :func:`validate_report`.
    """
    fold = EventFold()
    for event in events:
        fold.feed(event)
    return _document(fold, incomplete=truncated or fold.end is None)


def write_report(path: PathLike, report: Dict[str, Any]) -> Path:
    """Write a report as indented JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: PathLike) -> Dict[str, Any]:
    """Read a report written by :func:`write_report`."""
    return json.loads(Path(path).read_text())


def validate_report(report: Dict[str, Any]) -> List[str]:
    """Structural problems with a report document; empty means valid.

    Checks the required top-level keys, the schema version, and that
    the span/metric sections have the expected shape.  This is the
    check CI's schema smoke step runs against the tiny-preset report.
    """
    problems = []
    for key in REQUIRED_KEYS:
        if key not in report:
            problems.append(f"missing required key {key!r}")
    if problems:
        return problems
    if report["schema_version"] != SCHEMA_VERSION:
        problems.append(
            f"schema_version {report['schema_version']!r} != {SCHEMA_VERSION}"
        )
    spans = report["spans"]
    if not isinstance(spans, dict) or "name" not in spans or "children" not in spans:
        problems.append("spans is not a span tree")
    metrics = report["metrics"]
    if not isinstance(metrics, dict):
        problems.append("metrics is not a mapping")
    else:
        for section in ("counters", "gauges"):
            if section not in metrics:
                problems.append(f"metrics missing section {section!r}")
    if not isinstance(report["config"], dict) or "digest" not in report["config"]:
        problems.append("config missing digest")
    return problems


def missing_stages(report: Dict[str, Any]) -> List[str]:
    """Methodology stages absent from the span tree.

    A batch run is checked against :data:`STAGES`; a streaming run —
    recognized by its ``characterize.streaming`` span or any
    ``streaming.*`` stage span — against :data:`STREAMING_STAGES`,
    since the streaming engine replaces the six batch stages with its
    own pass structure.
    """
    names = Span.from_dict(report["spans"]).names()
    streaming = _STREAMING_ROOT in names or any(
        name.startswith("streaming.") for name in names
    )
    expected = STREAMING_STAGES if streaming else STAGES
    return [stage for stage in expected if stage not in names]


# --- text rendering ------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


def _render_span(node: Span, lines: List[str], depth: int, max_children: int) -> None:
    attrs = ""
    if node.attrs:
        attrs = " [" + ", ".join(f"{k}={_fmt(v)}" for k, v in node.attrs.items()) + "]"
    lines.append(
        f"  {'  ' * depth}{node.name:<{max(1, 28 - 2 * depth)}s} "
        f"{node.wall_s * 1e3:9.1f} {node.cpu_s * 1e3:9.1f}{attrs}"
    )
    shown = node.children[:max_children]
    for child in shown:
        _render_span(child, lines, depth + 1, max_children)
    hidden = len(node.children) - len(shown)
    if hidden > 0:
        lines.append(f"  {'  ' * (depth + 1)}... {hidden} more spans elided")


def render_report(report: Dict[str, Any], *, max_children: int = 12) -> str:
    """A terminal-friendly summary: header, span tree, metric tables.

    Sibling spans beyond ``max_children`` are elided with a count (a
    paper-scale run has one span per benchmark per stage).
    """
    from ..io import format_table  # local import: io is a sibling package

    env = report["environment"]
    lines = [
        f"run report {report['run_id']}  ({report['command']}, schema v{report['schema_version']})",
        f"config digest {report['config'].get('digest') or '-'}  "
        f"git {env.get('git_sha') or '-'}  "
        f"python {env.get('python') or '-'}  numpy {env.get('numpy') or '-'}",
        "",
        "spans" + " " * 25 + "  wall ms    cpu ms",
    ]
    _render_span(Span.from_dict(report["spans"]), lines, 0, max_children)

    metrics = report["metrics"]
    counters = metrics.get("counters", {})
    if counters:
        rows = [[name, _fmt(value)] for name, value in sorted(counters.items())]
        lines += ["", "counters", format_table(["name", "value"], rows)]
    gauges = metrics.get("gauges", {})
    if gauges:
        rows = [[name, _fmt(value)] for name, value in sorted(gauges.items())]
        lines += ["", "gauges", format_table(["name", "value"], rows)]
    stages = missing_stages(report)
    if stages:
        lines += ["", "note: missing methodology stages: " + ", ".join(stages)]
    return "\n".join(lines) + "\n"
