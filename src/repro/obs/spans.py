"""Spans, the run's event log, its fold, and the active observation.

A :class:`Span` is one timed region of a run — a pipeline stage, a
k-means restart, one benchmark's characterization — with monotonic
wall-clock (``time.perf_counter``) and CPU (``time.process_time``)
durations and free-form attributes.  Spans nest through the context
manager returned by :func:`span`.

**One record.**  An :class:`Observation` keeps one in-memory event log.
A span logs a ``span.open`` event when it starts and a ``span.close``
event, with its durations and final attributes, when it ends; the
run's ``run.start`` and ``run.end``, stage, progress, heartbeat and
metric events go into the same log.  Nothing else is recorded while
the run executes: the close also carries, as ``metrics``, what no
earlier event carried (:mod:`repro.obs.metrics`), so a log read
mid-run or left by a killed run has every closed span's counters.
An attached :class:`repro.obs.events.EventBus` writes each event to
its JSONL sink as it is logged.  :class:`EventFold` is the one reader
of the log: the run report
(:func:`repro.obs.report.build_report`), ``repro report
--from-events``, ``repro watch`` and :attr:`Observation.root` are all
views of it, so a report built live and one rebuilt from the written
log are the same document.

Collection is opt-in and inert by default.  :func:`observe` installs an
:class:`Observation` — the event log plus a
:class:`~repro.obs.metrics.MetricsRegistry` — as the *current*
observation; while none is installed, :func:`span` returns a shared
no-op context manager and :func:`metrics` a shared no-op registry, so
instrumented library code pays a dictionary lookup and nothing else.

**Executors.**  Worker tasks (in-process or forked) run inside
:func:`capture`: an isolated observation whose log holds a ``task``
span (attribute ``label``) around the task and keeps its first
:data:`~repro.obs.events.MAX_WORKER_EVENTS` events plus the closes of
the spans those opened; later events are dropped, so an overflowing
task keeps its ``task`` node and never re-parents a span (a dropped
close takes no metrics: the ``task`` close carries them).
Its :class:`Snapshot` — events and drop count — travels back with
the task result, and :meth:`Observation.merge_snapshot` replays the
events, and so the metrics they carry, under the caller's current
span, exactly once per task, in submission order.  An in-process
and a forked run therefore log the same spans.  Dropped
events are logged as one ``events.dropped`` event, so a report folded
from the log says ``partial: true`` and how many were lost.  The
streaming prefetch producer (:func:`repro.parallel.prefetch_iter`)
takes the same path, one ``task`` per batch, merged as the consumer
takes the batch, so no thread logs into an observation it does not
own.

The *current* observation resolves thread-locally first and then
globally: :func:`observe` (main thread, long-lived) sets both, while
:func:`capture` (worker task, short-lived) overrides only its own
thread.  A forked worker inherits the global slot, which is how it
knows collection is on.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Any, Dict, List, NamedTuple, Optional

from .events import MAX_WORKER_EVENTS, ProgressEstimator
from .metrics import NOOP_REGISTRY, MetricsRegistry, fold_metrics

__all__ = [
    "EventFold",
    "Observation",
    "Snapshot",
    "Span",
    "active",
    "capture",
    "current",
    "metrics",
    "new_run_id",
    "observe",
    "span",
]


def new_run_id() -> str:
    """A fresh 12-hex-digit run identifier."""
    return uuid.uuid4().hex[:12]


def _json_safe(value: Any) -> Any:
    """Coerce a span attribute to a JSON-serializable scalar."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class Span:
    """One timed region: name, attributes, durations, children."""

    __slots__ = ("name", "attrs", "wall_s", "cpu_s", "children")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.wall_s: float = 0.0
        self.cpu_s: float = 0.0
        self.children: List["Span"] = []

    def set(self, **attrs: Any) -> None:
        """Attach attributes (e.g. results known only at span exit)."""
        for key, value in attrs.items():
            self.attrs[key] = _json_safe(value)

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first descendant named ``name``."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def names(self) -> set:
        """All span names in this subtree (including this span's)."""
        out = {self.name}
        for child in self.children:
            out |= child.names()
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of the subtree."""
        return {
            "name": self.name,
            "attrs": {k: _json_safe(v) for k, v in self.attrs.items()},
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a subtree from :meth:`to_dict` output."""
        node = cls(str(data["name"]), dict(data.get("attrs") or {}))
        node.wall_s = float(data.get("wall_s", 0.0))
        node.cpu_s = float(data.get("cpu_s", 0.0))
        node.children = [cls.from_dict(c) for c in data.get("children") or []]
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.wall_s * 1e3:.2f}ms, {len(self.children)} children)"


class EventFold:
    """One run's state, folded from its event log one event at a time.

    The one reader of the log: every event type is read here and
    nowhere else.  The run report (:func:`repro.obs.report.build_report`
    and :func:`~repro.obs.report.report_from_events`), ``repro watch``
    (:func:`repro.obs.live.summarize_events`) and
    :attr:`Observation.root` are views of this fold.

    Spans fold into :attr:`root` by log order: a ``span.open`` hangs
    under the innermost span still open.  Only the observing thread
    logs, so that order is the nesting.  A ``thread`` field, which
    older logs carry on the prefetch producer's spans, is ignored:
    those spans nest by order too.  ``run.end``'s clocks become the
    root's (:meth:`clock`).
    """

    def __init__(self, root_name: str = "run", run_id: Optional[str] = None) -> None:
        self.root = Span(root_name)
        #: The run id: the one given, else the first event's.
        self.run_id = run_id
        self.events = 0
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        #: The ``run.start`` and ``run.end`` events, once folded.
        self.start: Optional[Dict[str, Any]] = None
        self.end: Optional[Dict[str, Any]] = None
        #: Counter totals (summed deltas) and last gauge values.
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: Latest progress fields per stage; latest heartbeat; stage
        #: checkpoints in order; events dropped by worker logs.
        self.progress: Dict[str, Dict[str, Any]] = {}
        self.heartbeat: Optional[Dict[str, Any]] = None
        self.stages: List[Dict[str, Any]] = []
        self.dropped = 0
        self._clocked = False
        #: Open spans, outermost first, and their open timestamps.
        self._stack: List[Span] = [self.root]
        self._opened: List[Optional[float]] = [None]

    def feed(self, event: Dict[str, Any]) -> None:
        """Fold one event."""
        self.events += 1
        etype = event.get("type")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            ts = None
        else:
            if self.first_ts is None:
                self.first_ts = ts
            self.last_ts = ts
        if self.run_id is None and event.get("run_id"):
            self.run_id = event["run_id"]
        if etype == "span.open":
            stack = self._stack
            node = Span(str(event.get("span", "?")), dict(event.get("attrs") or {}))
            stack[-1].children.append(node)
            stack.append(node)
            self._opened.append(ts)
        elif etype == "span.close":
            stack = self._stack
            name = str(event.get("span", "?"))
            # Close the innermost open span with this name; spans close
            # in LIFO order, so scanning from the top is exact.
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].name == name:
                    node = stack[i]
                    node.wall_s = float(event.get("wall_s", 0.0) or 0.0)
                    node.cpu_s = float(event.get("cpu_s", 0.0) or 0.0)
                    attrs = event.get("attrs")
                    if isinstance(attrs, dict):
                        node.attrs.update(attrs)
                    del stack[i]
                    del self._opened[i]
                    break
            fold_metrics(self.counters, self.gauges, event.get("metrics"))
        elif etype == "metric":
            fold_metrics(self.counters, self.gauges, event)
        elif etype == "progress":
            self.progress[str(event.get("stage", "?"))] = {
                k: event.get(k) for k in ("done", "total", "fraction", "elapsed_s", "eta_s")
            }
        elif etype == "heartbeat":
            self.heartbeat = {k: event.get(k) for k in ("label", "completed", "total", "ts")}
        elif etype == "stage":
            self.stages.append({"stage": event.get("stage"), "action": event.get("action")})
        elif etype == "events.dropped":
            self.dropped += int(event.get("count", 0) or 0)
        elif etype == "run.start":
            self.start = event
        elif etype == "run.end":
            self.end = event
            clocks = (event.get("wall_s"), event.get("cpu_s"))
            if all(isinstance(c, (int, float)) for c in clocks):
                self.clock(*clocks)

    def clock(self, wall_s: float, cpu_s: float) -> None:
        """Set the run's clocks: the root span's durations."""
        self.root.wall_s, self.root.cpu_s = float(wall_s), float(cpu_s)
        self._clocked = True

    def open_spans(self) -> List[Span]:
        """Spans opened but not closed, outermost first."""
        return self._stack[1:]

    def close_open(self) -> bool:
        """Flag every still-open span ``partial``; whether there were any.

        An open span's wall time is estimated from its open timestamp
        to the last event folded, so a killed run's tree says which
        stage died rather than pretending it took zero time.  A root
        without the run's clocks is estimated the same way, from the
        first event.
        """
        if not self._clocked and self.first_ts is not None:
            self.root.wall_s = max(0.0, self.last_ts - self.first_ts)
        for node, opened in zip(self._stack[1:], self._opened[1:]):
            node.attrs.setdefault("partial", True)
            if node.wall_s == 0.0 and opened is not None and self.last_ts is not None:
                node.wall_s = max(0.0, self.last_ts - opened)
        return bool(self.open_spans())


class _ActiveSpan:
    """Context manager logging one span's open and close events."""

    __slots__ = ("_ob", "_span", "_depth", "_wall0", "_cpu0")

    def __init__(self, ob: "Observation", node: Span) -> None:
        self._ob = ob
        self._span = node

    def __enter__(self) -> Span:
        self._ob._depth += 1
        self._depth = self._ob._depth
        self._log({"type": "span.open", "attrs": dict(self._span.attrs)})
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        node = self._span
        node.wall_s = time.perf_counter() - self._wall0
        node.cpu_s = time.process_time() - self._cpu0
        if exc_type is not None:
            node.attrs.setdefault("error", exc_type.__name__)
        self._ob._depth -= 1
        self._log(
            {
                "type": "span.close",
                "wall_s": node.wall_s,
                "cpu_s": node.cpu_s,
                "attrs": dict(node.attrs),
            },
            take=True,
        )
        return False

    def _log(self, event: Dict[str, Any], take: bool = False) -> None:
        event["ts"] = time.time()
        event["span"] = self._span.name
        event["depth"] = self._depth
        self._ob._record(event, take)


class _NoopSpanHandle:
    """What a no-op span yields: accepts ``set()`` calls, keeps nothing."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


class _NoopSpan:
    """Reusable no-op context manager for when no observation is active."""

    __slots__ = ()
    _HANDLE = _NoopSpanHandle()

    def __enter__(self) -> _NoopSpanHandle:
        return self._HANDLE

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Snapshot(NamedTuple):
    """A worker observation in the form that crosses the executor boundary.

    Its logged events (which carry its metrics) and the count its
    bounded log dropped — plain data, so it pickles across the process
    boundary.  A live :class:`Observation` pickles *into* one (via
    ``__reduce__``).
    """

    events: List[Dict[str, Any]]
    events_dropped: int


class Observation:
    """One run's telemetry: an event log plus a metrics registry.

    Args:
        run_id: identifier stamped on the run report and log records;
            generated when omitted.
        root_name: name of the root span the log folds under.
        emitter: optional :class:`repro.obs.events.EventBus` that
            writes every logged event to its sink as it is logged.
        max_events: bound on the log (later events dropped past it,
            except the closes of kept spans; counted in
            :attr:`dropped`); unbounded when None.

    The log is :attr:`events`, oldest first.
    """

    def __init__(
        self,
        run_id: Optional[str] = None,
        root_name: str = "run",
        emitter: Optional[Any] = None,
        max_events: Optional[int] = None,
    ) -> None:
        self.run_id = run_id or new_run_id()
        self.root_name = root_name
        self.metrics = MetricsRegistry()
        self.emitter = emitter
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._finished = False
        self._max_events = max_events
        self._kept_depth = 0
        #: Spans open now; only the thread that owns the observation logs.
        self._depth = 0
        self._lock = threading.Lock()
        self._estimators: Dict[str, ProgressEstimator] = {}
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def _record(self, event: Dict[str, Any], take: bool = False) -> None:
        # One lock orders the log and the bus alike, so the written
        # stream folds to the same tree as the log, and the registry's
        # logged totals to the same metrics.
        with self._lock:
            if self._max_events is not None and not self._admit(event):
                self.dropped += 1
                return
            metric = event.get("type") == "metric"
            if take:
                # A dropped event took nothing: the next one kept will.
                carried = self.metrics.take()
                if metric:
                    if carried is None:
                        return
                    event.update(carried)
                elif carried is not None:
                    event["metrics"] = carried
            else:
                self.metrics.carry(event if metric else event.get("metrics"))
            self.events.append(event)
            if self.emitter is not None:
                self.emitter.write(event)

    def _admit(self, event: Dict[str, Any]) -> bool:
        """Whether a bounded log keeps ``event``: its first ``max_events``
        events, then only ``metric`` events and the ``span.close`` of
        each span whose open it kept (the kept opens still open are its
        depths ``1..kept``).  It overshoots by at most the open depth
        plus one ``metric`` per snapshot, and a span opened past the
        bound is dropped whole."""
        full = len(self.events) >= self._max_events
        etype = event.get("type")
        if etype == "span.open" and not full:
            self._kept_depth += 1
        elif etype == "span.close" and (not full or event.get("depth", 0) <= self._kept_depth):
            self._kept_depth -= 1
            return True
        return not full or etype == "metric"

    def emit(self, type: str, **fields: Any) -> None:
        """Log one event (and write it through the bus, if attached)."""
        self._record({"ts": time.time(), "type": type, **fields})

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """A context manager timing ``name`` under the current span."""
        return _ActiveSpan(self, Span(name, {k: _json_safe(v) for k, v in attrs.items()}))

    def progress(self, stage: str, done: int, total: int) -> None:
        """Log a ``progress`` event with fraction and ETA for ``stage``.

        The first call for a stage starts its clock; ``total`` may be
        updated by later calls (the streamed-batch ledger refines it).
        """
        with self._lock:
            estimator = self._estimators.get(stage)
            if estimator is None:
                estimator = self._estimators[stage] = ProgressEstimator(stage, total)
            else:
                estimator.total = int(total)
        self.emit("progress", **estimator.update(done))

    def emit_metric_deltas(self) -> None:
        """Log what is pending as one ``metric`` event, if anything is.

        Counter deltas and gauge values no logged event carries yet;
        a counter added with 0 is pending too, so the fold of the log
        has every counter the registry has.
        """
        self._record({"ts": time.time(), "type": "metric"}, take=True)

    def finish(self) -> None:
        """Stop the run's clocks; later calls keep the first reading."""
        if self._finished:
            return
        self._finished = True
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0

    def fold(self) -> EventFold:
        """Fold the log so far; the root carries the run's clocks."""
        with self._lock:
            events = list(self.events)
        fold = EventFold(self.root_name, run_id=self.run_id)
        for event in events:
            fold.feed(event)
        fold.clock(self.wall_s, self.cpu_s)
        return fold

    @property
    def root(self) -> Span:
        """The span tree of the log so far (a fresh fold on each access)."""
        return self.fold().root

    def snapshot(self) -> Snapshot:
        """The observation's events and drop count, after logging what
        metrics are still pending (a finished task has none: its
        ``task`` close took them)."""
        self.emit_metric_deltas()
        with self._lock:
            return Snapshot(list(self.events), self.dropped)

    def __reduce__(self):
        # Crossing a process boundary turns a live observation into its
        # Snapshot, so executor workers can return the observation
        # object itself.
        return (Snapshot, tuple(self.snapshot()))

    def merge_snapshot(self, snap: "Snapshot | Observation") -> None:
        """Replay a worker's events, and so its metrics, under the current span.

        Callers (the executor, the prefetch consumer) invoke this
        exactly once per completed task, in submission order, so counter totals and the log are
        deterministic for any backend or worker count.  The worker's
        span depths are re-based onto the caller's open spans.  Worker
        timestamps are kept.
        """
        if isinstance(snap, Observation):
            snap = snap.snapshot()
        if snap.events_dropped:
            self.emit("events.dropped", count=snap.events_dropped)
        for event in snap.events:
            if event.get("type") in ("span.open", "span.close"):
                event = dict(event, depth=event.get("depth", 0) + self._depth)
            self._record(event)


# --- current-observation resolution -------------------------------------

_TLS = threading.local()
_GLOBAL: Optional[Observation] = None
_GLOBAL_LOCK = threading.Lock()


def current() -> Optional[Observation]:
    """The active observation: thread-local override first, then global."""
    ob = getattr(_TLS, "observation", None)
    if ob is not None:
        return ob
    return _GLOBAL


def active() -> bool:
    """Whether any observation is collecting right now."""
    return current() is not None


def span(name: str, **attrs: Any):
    """Time a region under the active observation (no-op when inactive).

    Usage::

        with span("kmeans.restart", restart=3) as sp:
            ...
            sp.set(bic=bic)   # attrs known at exit
    """
    ob = current()
    if ob is None:
        return _NOOP_SPAN
    return ob.span(name, **attrs)


def metrics() -> MetricsRegistry:
    """The active observation's registry, or the shared no-op one."""
    ob = current()
    if ob is None:
        return NOOP_REGISTRY
    return ob.metrics


class observe:
    """Install an observation as current for a ``with`` block.

    Sets both the thread-local and the global slot (restoring the
    previous values on exit), so forked executor workers and the
    prefetch producer thread see that collection is on.  Yields the
    :class:`Observation` for building a run report.
    """

    def __init__(
        self,
        run_id: Optional[str] = None,
        root_name: str = "run",
        emitter: Optional[Any] = None,
    ) -> None:
        self.observation = Observation(
            run_id=run_id, root_name=root_name, emitter=emitter
        )
        self._prev_tls: Optional[Observation] = None
        self._prev_global: Optional[Observation] = None

    def __enter__(self) -> Observation:
        global _GLOBAL
        self._prev_tls = getattr(_TLS, "observation", None)
        _TLS.observation = self.observation
        with _GLOBAL_LOCK:
            self._prev_global = _GLOBAL
            _GLOBAL = self.observation
        return self.observation

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _GLOBAL
        self.observation.finish()
        _TLS.observation = self._prev_tls
        with _GLOBAL_LOCK:
            _GLOBAL = self._prev_global
        return False


class capture:
    """Isolated per-task observation for executor workers.

    Unlike :class:`observe`, only the worker thread's local slot is
    touched — concurrent tasks log into disjoint observations and the
    parent's log is never written from a worker.  The task runs inside
    a ``root_name`` span carrying ``label``; the log is bounded by
    :data:`~repro.obs.events.MAX_WORKER_EVENTS` events.  The parent
    replays it with :meth:`Observation.merge_snapshot`.
    """

    def __init__(self, label: str, root_name: str = "task") -> None:
        self.observation = Observation(run_id="worker", max_events=MAX_WORKER_EVENTS)
        self._task = self.observation.span(root_name, label=label)
        self._prev: Optional[Observation] = None

    def __enter__(self) -> Observation:
        self._prev = getattr(_TLS, "observation", None)
        _TLS.observation = self.observation
        self._task.__enter__()
        return self.observation

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._task.__exit__(exc_type, exc, tb)
        _TLS.observation = self._prev
        return False
