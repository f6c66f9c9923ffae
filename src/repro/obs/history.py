"""The run-history store and the one comparer of run reports.

A :class:`HistoryStore` is an append-only directory (``repro
characterize --history-dir``) where every completed run report lands
as one checksummed JSON record, stamped with
the git SHA, a wall-clock timestamp, and a monotonic sequence number
allocated under the artifact store's cross-process advisory lock.
``repro runs list|show|diff`` reads it back (from ``--history-dir``,
default ``$REPRO_HISTORY_DIR``, else ``~/.repro/history``).

A run report compares through its *ledger row*
(:func:`ledger_row`): per span name the summed ``wall_s`` and
``cpu_s`` and the span count, plus every counter and gauge.
:func:`diff_records` compares two rows, for ``repro runs diff`` and
for the committed perf ledger (``benchmarks/bench_layers.py``) alike.
Timings and memory (names ending ``_s``, ``.seconds``, ``_mb`` or
``bytes``) may grow within a tolerance; every other number (counts,
span counts, result quantities) must be equal.

Layout::

    <root>/
      COUNTER                 # last allocated sequence number
      .locks/                 # artifact_lock residue
      runs/run-000007-<run_id>.json

Every record file is one JSON *envelope*::

    {"schema": "history:run", "version": 1,
     "seq": 7, "run_id": "...", "name": null,
     "created": <unix time>, "git_sha": "..." | null,
     "sha256": <hex digest of the canonical record payload>,
     "record": {...}}            # the run report itself

The store is one :class:`repro.io.records.RecordLog`, so records are
published atomically, verified against their embedded digest on every
read, and quarantined (never silently deleted) when they fail.  A
``bench/`` directory that older versions wrote beside ``runs/`` is no
longer read; its sequence numbers are still never reused.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "HistoryStore",
    "diff_records",
    "ledger_row",
    "render_diff",
]

PathLike = Union[str, Path]

#: The record envelope version (:data:`repro.io.records.RECORD_SCHEMA_VERSION`).
HISTORY_SCHEMA_VERSION = 1


class HistoryStore:
    """Append-only, checksummed store of completed run reports."""

    def __init__(self, root: PathLike) -> None:
        # Lazy import: repro.io imports from repro.obs at module scope,
        # and this module is part of repro.obs.
        from ..io.records import RecordLog

        self.root = Path(root)
        self._log = RecordLog(self.root, schema="history:run", prefix="run", directory="runs")

    def append_run(self, report: Dict[str, Any]) -> Path:
        """Append one completed run report; returns the record path."""
        run_id = report.get("run_id")
        git_sha = (report.get("environment") or {}).get("git_sha")
        if git_sha is None:
            from .report import git_sha as _git_sha

            git_sha = _git_sha()
        # History file names have always carried at most 64 tag characters.
        envelope = self._log.append(
            report, tag=(run_id or "run")[:64], run_id=run_id, name=None, git_sha=git_sha
        )
        return Path(envelope["path"])

    def records(self) -> List[Dict[str, Any]]:
        """All verified records, oldest first (by ``seq``)."""
        return self._log.read()

    def get(self, ref: str) -> Optional[Dict[str, Any]]:
        """Resolve one record by ``latest``, sequence number, or run-id prefix."""
        records = self.records()
        if not records:
            return None
        if ref in ("latest", "-1", ""):
            return records[-1]
        if re.fullmatch(r"\d+", ref):
            seq = int(ref)
            for envelope in records:
                if envelope.get("seq") == seq:
                    return envelope
        for envelope in reversed(records):
            run_id = envelope.get("run_id") or ""
            if run_id.startswith(ref):
                return envelope
        return None


# --- the ledger row and its comparer ---------------------------------------


def _numeric_items(mapping: Any) -> Dict[str, float]:
    if not isinstance(mapping, dict):
        return {}
    return {
        str(key): float(value)
        for key, value in mapping.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def ledger_row(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Fold one run report into its ledger row.

    ``spans`` maps each span name to its summed ``wall_s`` and ``cpu_s``
    and its ``count`` over the whole span tree; ``counters`` and
    ``gauges`` are the report's metrics.
    """
    spans: Dict[str, Dict[str, float]] = {}

    def visit(node: Dict[str, Any]) -> None:
        totals = spans.setdefault(
            str(node.get("name", "")), {"wall_s": 0.0, "cpu_s": 0.0, "count": 0}
        )
        totals["wall_s"] += float(node.get("wall_s", 0.0))
        totals["cpu_s"] += float(node.get("cpu_s", 0.0))
        totals["count"] += 1
        for child in node.get("children") or []:
            visit(child)

    if report.get("spans"):
        visit(report["spans"])
    metrics = report.get("metrics") or {}
    return {
        "spans": spans,
        "counters": _numeric_items(metrics.get("counters")),
        "gauges": _numeric_items(metrics.get("gauges")),
    }


#: Name suffixes of timings and memory: the numbers that may move
#: within a tolerance.  Every other number must stay equal.
_MEASURED_SUFFIXES = ("_s", ".seconds", "_mb", "bytes")


def _flag(
    name: str, old: Optional[float], new: Optional[float], tolerance: float, floor: float
) -> Optional[str]:
    """``"regression"``, ``"changed"`` or None for one ``old -> new`` value.

    A timing or memory value is a regression when it grew by more than
    ``tolerance`` (relative) *and* by more than ``floor`` (absolute);
    any other value, or a value present on one side only, is changed
    when it differs at all.
    """
    if old is None or new is None:
        return "changed"
    if name.endswith(_MEASURED_SUFFIXES):
        grew = new > old * (1.0 + tolerance) and new - old > floor
        return "regression" if grew else None
    return "changed" if new != old else None


def _flatten(row: Dict[str, Any]) -> Dict[tuple, float]:
    flat = {
        ("span", f"{name}.{key}"): float(value)
        for name, totals in (row.get("spans") or {}).items()
        for key, value in totals.items()
    }
    for section in ("counter", "gauge"):
        for name, value in (row.get(f"{section}s") or {}).items():
            flat[(section, name)] = float(value)
    return flat


def diff_records(
    a: Dict[str, Any], b: Dict[str, Any], *, tolerance: float = 0.10, floor: float = 0.0
) -> Dict[str, Any]:
    """Compare two ledger rows (older ``a`` vs newer ``b``).

    Every span total, counter and gauge on either side is an entry,
    flagged by :func:`_flag`: a timing or memory value (name ending in
    ``_s``, ``.seconds``, ``_mb`` or ``bytes``) that grew beyond ``tolerance`` and
    ``floor`` is a ``regression``; any other difference is ``changed``.
    ``flagged`` names every flagged entry.
    """
    flat_a, flat_b = _flatten(a), _flatten(b)
    entries = []
    for section, name in sorted(set(flat_a) | set(flat_b)):
        old, new = flat_a.get((section, name)), flat_b.get((section, name))
        entries.append(
            {
                "section": section,
                "name": name,
                "a": old,
                "b": new,
                "flag": _flag(name, old, new, tolerance, floor),
            }
        )
    return {
        "tolerance": tolerance,
        "floor": floor,
        "entries": entries,
        "flagged": [e["name"] for e in entries if e["flag"]],
    }


def render_diff(diff: Dict[str, Any]) -> str:
    """Terminal-friendly rendering of a :func:`diff_records` result."""

    def cell(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.6g}"

    lines = [f"{'section':<8} {'name':<44} {'a':>12} {'b':>12}  flag"]
    for entry in diff["entries"]:
        lines.append(
            f"{entry['section']:<8} {entry['name'][:44]:<44} "
            f"{cell(entry['a']):>12} {cell(entry['b']):>12}  {(entry['flag'] or '').upper()}"
        )
    policy = f"timings/memory up to {1.0 + diff['tolerance']:g}x"
    if diff["floor"]:
        policy += f" or +{diff['floor']:g}"
    if diff["flagged"]:
        lines.append(
            f"{len(diff['flagged'])} flagged ({policy}, everything else equal): "
            + ", ".join(diff["flagged"])
        )
    else:
        lines.append(f"nothing flagged ({policy}, everything else equal)")
    return "\n".join(lines) + "\n"
