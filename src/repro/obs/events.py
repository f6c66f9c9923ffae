"""The run's event log and its live JSONL writer.

An observation (:class:`repro.obs.Observation`) records a run as one
ordered event log: ``run.start``, span open/close, stage checkpoints,
progress updates, metric deltas and ``run.end``.  Each fact is logged
once: an executor task's label is its ``task`` span's close, and a
``progress`` event carries only ``stage``, ``done`` and ``total`` —
the fraction, elapsed time and ETA are derived by the fold.  The log
is the only record of the run — the run report, ``repro watch`` and
``repro report --from-events`` are all views of one fold over it
(:class:`repro.obs.spans.EventFold`).  An attached :class:`EventBus`
writes each event as a JSON line the moment it is logged, so the log
in memory and the JSONL on disk are the same sequence — ``repro
characterize --telemetry PATH`` attaches one, ``repro watch PATH``
follows it, and ``repro report --from-events PATH`` reconstructs a
(partial) run report from whatever made it to disk.

**Event schema** (version :data:`EVENT_SCHEMA_VERSION`, one JSON object
per line).  Every event carries ``ts`` (unix time) and ``type``; the
bus adds ``v`` (schema version), ``seq`` (strictly monotonic) and
``run_id``.  The fields of each type are tabled in
``docs/observability.md`` ("Event schema"); the one
reader of all of them is :class:`repro.obs.spans.EventFold`, which
also folds version 1 logs.

**Crash tolerance.**  The bus flushes after every line, so a
SIGKILL'd run leaves a parseable prefix (at worst one truncated final
line, which :func:`read_events` tolerates).  Nothing is buffered for
later: the log on disk *is* the live state.

**Workers.**  Executor tasks never write to the bus: a task's bounded
log, which carries its metrics, is appended to the parent's log (and so
to the bus) once per task, in submission order
(:meth:`repro.obs.Observation.merge_snapshot`), so the stream is the
same in-process and through the fork pool.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EventBus",
    "emit_event",
    "emit_progress",
    "read_events",
]

#: Bump when the event layout changes incompatibly (mirrors the
#: run-report ``SCHEMA_VERSION`` discipline).  Version 2 dropped the
#: per-task event that repeated each ``task`` close, and the fields
#: ``progress`` events derived from ``done``, ``total`` and ``ts``.
EVENT_SCHEMA_VERSION = 2

#: Events a worker task's log keeps before later ones are dropped
#: (closes of kept spans and ``metric`` events excepted; the drop is
#: logged as an ``events.dropped`` event).
MAX_WORKER_EVENTS = 10_000

PathLike = Union[str, Path]


def _json_default(value: Any) -> Any:
    return str(value)


# One encoder for every line: ``json.dumps`` with ``default=`` builds a
# new encoder per call, a measurable share of a small event's cost.
_encode = json.JSONEncoder(default=_json_default).encode


class EventBus:
    """Thread-safe JSONL writer of one run's event log.

    ``target`` is a path (its directory is created), ``-`` for stdout,
    or an open text stream (borrowed: :meth:`close` leaves it open).
    An :class:`repro.obs.Observation` with the bus attached passes every
    event it logs to :meth:`write`, which adds the envelope — ``v``,
    the next ``seq`` and ``run_id`` — and writes and flushes the line
    under one lock, so the stream is strictly monotonic and a reader
    (or a post-mortem) always sees a valid prefix of it.
    """

    def __init__(self, target: Union[PathLike, TextIO], run_id: str) -> None:
        self.run_id = run_id
        self._owns = False
        if hasattr(target, "write"):
            self._fh: TextIO = target  # type: ignore[assignment]
        elif str(target) == "-":
            self._fh = sys.stdout
        else:
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
            self._owns = True
        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False

    def write(self, event: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Write one logged event with the envelope fields added.

        The logged timestamp is kept (a replayed worker event keeps its
        worker's; ``seq`` is the order authority).  Returns the written
        event, or None after close.
        """
        with self._lock:
            if self._closed:
                return None
            line = {"v": EVENT_SCHEMA_VERSION, "seq": self._seq, "run_id": self.run_id, **event}
            self._seq += 1
            self._fh.write(_encode(line) + "\n")
            self._fh.flush()
            return line

    def close(self) -> None:
        """Close the target if the bus opened it; later writes are
        dropped.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._owns:
                try:
                    self._fh.close()
                except OSError:  # pragma: no cover - best-effort close
                    pass


# --- emitting from library code ------------------------------------------


def emit_event(type: str, **fields: Any) -> None:
    """Log one event in the active observation.

    A no-op when no observation is active — library code can call this
    unconditionally, just like :func:`repro.obs.span`.
    """
    from .spans import current

    ob = current()
    if ob is not None:
        ob.emit(type, **fields)


def emit_progress(stage: str, done: int, total: int) -> None:
    """Log a ``progress`` event: ``done`` of ``total`` units of ``stage``
    are finished (no-op when inert).  ``total`` may change between
    calls (the streamed-batch ledger refines it); the fold derives the
    fraction, elapsed time and ETA."""
    emit_event("progress", stage=stage, done=int(done), total=int(total))


# --- reading --------------------------------------------------------------


def read_events(path: PathLike) -> Tuple[List[Dict[str, Any]], bool]:
    """Parse a (possibly truncated) event log.

    Returns ``(events, truncated)``: every leading line that parses as
    a JSON object, and whether the log ended mid-line — the expected
    residue of a SIGKILL'd writer.  Parsing stops at the first bad
    line, so a reader never acts on bytes written after corruption.
    """
    events: List[Dict[str, Any]] = []
    truncated = False
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return events, False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            truncated = True
            break
        if not isinstance(event, dict):
            truncated = True
            break
        events.append(event)
    return events, truncated
