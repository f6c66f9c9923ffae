"""The run's event log and its live JSONL writer.

An observation (:class:`repro.obs.Observation`) records a run as one
ordered event log: ``run.start``, span open/close, stage checkpoints,
progress updates, worker heartbeats, metric deltas and ``run.end``.
The log is the only record of the run — the run report, ``repro
watch`` and ``repro report --from-events`` are all views of one fold
over it (:class:`repro.obs.spans.EventFold`).  An attached
:class:`EventBus` writes each event as a JSON line to a sink the moment
it is logged, so the log in memory and the JSONL on disk are the same
sequence — ``repro characterize --telemetry PATH`` attaches one,
``repro watch PATH`` follows it, and ``repro report --from-events
PATH`` reconstructs a (partial) run report from whatever made it to
disk.

**Event schema** (version :data:`EVENT_SCHEMA_VERSION`, one JSON object
per line).  Every event carries ``ts`` (unix time) and ``type``; the
bus adds ``v`` (schema version), ``seq`` (strictly monotonic) and
``run_id``.  The fields of each type are tabled in
``docs/observability.md`` ("Event schema"); the one
reader of all of them is :class:`repro.obs.spans.EventFold`.

**Crash tolerance.**  The sink flushes after every line, so a
SIGKILL'd run leaves a parseable prefix (at worst one truncated final
line, which :func:`read_events` tolerates).  Nothing is buffered for
later: the log on disk *is* the live state.

**Workers.**  Executor tasks never write to the sink: a task's bounded
log, which carries its metrics, is appended to the parent's log (and so
to the bus) once per task, in submission order
(:meth:`repro.obs.Observation.merge_snapshot`), so the stream is the
same in-process and through the fork pool.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EventBus",
    "JsonlSink",
    "ProgressEstimator",
    "emit_event",
    "emit_progress",
    "read_events",
]

#: Bump when the event layout changes incompatibly (mirrors the
#: run-report ``SCHEMA_VERSION`` discipline).
EVENT_SCHEMA_VERSION = 1

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


class JsonlSink:
    """Line-per-event JSON sink over a path or ``-`` (stdout).

    Every line is flushed as soon as it is written — the crash-
    tolerance contract — so a reader (or a post-mortem) always sees a
    valid prefix of the stream.
    """

    def __init__(self, target: Union[PathLike, TextIO]) -> None:
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

    def write_event(self, event: Dict[str, Any]) -> None:
        self._fh.write(_encode(event) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._owns:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - best-effort close
                pass


class ProgressEstimator:
    """Fraction-complete and ETA for one stage's unit stream.

    The totals come from quantities the pipeline already knows before
    the stage starts — benchmarks in the sampling plan, k-means restart
    count, streamed-batch ledger — so the estimate needs no model: with
    ``done`` of ``total`` units finished in ``elapsed`` seconds, the
    remaining ``total - done`` units cost ``elapsed * (total - done) /
    done`` more.
    """

    def __init__(self, stage: str, total: int, *, clock=time.monotonic) -> None:
        self.stage = stage
        self.total = max(int(total), 0)
        self.done = 0
        self._clock = clock
        self._start = clock()

    def update(self, done: int) -> Dict[str, Any]:
        """Advance to ``done`` finished units; returns the progress fields."""
        self.done = max(0, min(int(done), self.total) if self.total else int(done))
        elapsed = self._clock() - self._start
        fraction = (self.done / self.total) if self.total else 0.0
        eta: Optional[float] = None
        if self.done > 0 and self.total:
            eta = elapsed * (self.total - self.done) / self.done
        return {
            "stage": self.stage,
            "done": self.done,
            "total": self.total,
            "fraction": round(fraction, 6),
            "elapsed_s": round(elapsed, 6),
            "eta_s": round(eta, 6) if eta is not None else None,
        }


class EventBus:
    """Thread-safe JSONL writer of one run's event log.

    An :class:`repro.obs.Observation` with the bus attached passes every
    event it logs to :meth:`write`, which adds the envelope — ``v``,
    the next ``seq`` and ``run_id`` — and writes the line under one
    lock, so the stream is strictly monotonic.
    """

    def __init__(self, sink: JsonlSink, run_id: str) -> None:
        self.sink = sink
        self.run_id = run_id
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
            self.sink.write_event(line)
            return line

    def close(self) -> None:
        """Close the sink; later writes are dropped.  Idempotent."""
        with self._lock:
            self._closed = True
        self.sink.close()


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
    """Log a ``progress`` event for ``stage`` (no-op when inert)."""
    from .spans import current

    ob = current()
    if ob is not None:
        ob.progress(stage, done, total)


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
