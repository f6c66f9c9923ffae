"""Spans, the run's event log, and the active observation context.

A :class:`Span` is one timed region of a run — a pipeline stage, a
k-means restart, one benchmark's characterization — with monotonic
wall-clock (``time.perf_counter``) and CPU (``time.process_time``)
durations and free-form attributes.  Spans nest through the context
manager returned by :func:`span`.

**One record.**  An :class:`Observation` keeps one in-memory event log.
A span logs a ``span.open`` event when it starts and a ``span.close``
event, with its durations and final attributes, when it ends; stage,
progress, heartbeat and metric events go into the same log.  Nothing
else is recorded while the run executes.  An attached
:class:`repro.obs.events.EventBus` writes each event to its JSONL sink
as it is logged.  :class:`SpanFold` is the one place events become a
span tree: the run report (:func:`repro.obs.report.build_report`),
``repro report --from-events``, ``repro watch`` and
:attr:`Observation.root` all fold with it, so a report built live and
one rebuilt from the written log have the same tree.

Collection is opt-in and inert by default.  :func:`observe` installs an
:class:`Observation` — the event log plus a
:class:`~repro.obs.metrics.MetricsRegistry` — as the *current*
observation; while none is installed, :func:`span` returns a shared
no-op context manager and :func:`metrics` a shared no-op registry, so
instrumented library code pays a dictionary lookup and nothing else.

**Executors.**  Worker tasks (threads or forked processes) run inside
:func:`capture`: an isolated observation whose log holds a ``task``
span (attribute ``label``) around the task and keeps its first
:data:`~repro.obs.events.MAX_WORKER_EVENTS` events plus the closes of
the spans those opened; later events are dropped, so an overflowing
task keeps its ``task`` node and never re-parents a span.
Its :class:`Snapshot` — events, drop count, metrics — travels back with
the task result, and :meth:`Observation.merge_snapshot` replays the
events under the caller's current span and adds the metrics, exactly
once per task, in submission order.  A serial, threaded, and forked run
therefore log the same spans.  Dropped events are logged as one
``events.dropped`` event, so a report folded from the log says
``partial: true`` and how many were lost.

The *current* observation resolves thread-locally first and then
globally: :func:`observe` (main thread, long-lived) sets both, while
:func:`capture` (worker task, short-lived) overrides only its own
thread.  A forked worker inherits the global slot, which is how it
knows collection is on.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

from .events import MAX_WORKER_EVENTS, ProgressEstimator
from .metrics import NOOP_REGISTRY, MetricsRegistry

__all__ = [
    "Observation",
    "Snapshot",
    "Span",
    "SpanFold",
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


class SpanFold:
    """The span tree of an event log, folded one event at a time.

    One stack per thread: the observing thread's (key ``None``) starts
    at the root; another thread's starts at the span the observing
    thread has open when that thread's first span opens, which is where
    it hangs.  Spans of two threads that interleave in the log
    therefore never nest into each other.  Of the other event types
    only ``events.dropped`` counts, into :attr:`dropped`.
    """

    def __init__(self, root_name: str = "run") -> None:
        self.root = Span(root_name)
        self.dropped = 0
        self.last_ts: Optional[float] = None
        self._stacks: Dict[Optional[str], List[Span]] = {None: [self.root]}
        self._opened: Dict[Optional[str], List[Optional[float]]] = {None: [None]}

    def feed(self, event: Dict[str, Any]) -> None:
        """Fold one event."""
        etype = event.get("type")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            ts = None
        else:
            self.last_ts = ts
        if etype == "span.open":
            thread = event.get("thread")
            stack = self._stacks.get(thread)
            if stack is None:
                stack = self._stacks[thread] = [self._stacks[None][-1]]
                self._opened[thread] = [None]
            node = Span(str(event.get("span", "?")), dict(event.get("attrs") or {}))
            stack[-1].children.append(node)
            stack.append(node)
            self._opened[thread].append(ts)
        elif etype == "span.close":
            thread = event.get("thread")
            stack = self._stacks.get(thread, [])
            name = str(event.get("span", "?"))
            # Close the thread's innermost open span with this name; a
            # thread's spans close in LIFO order, so scanning from the
            # top of its stack is exact.
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].name == name:
                    node = stack[i]
                    node.wall_s = float(event.get("wall_s", 0.0) or 0.0)
                    node.cpu_s = float(event.get("cpu_s", 0.0) or 0.0)
                    attrs = event.get("attrs")
                    if isinstance(attrs, dict):
                        node.attrs.update(attrs)
                    del stack[i]
                    del self._opened[thread][i]
                    break
        elif etype == "events.dropped":
            self.dropped += int(event.get("count", 0) or 0)

    def open_spans(self) -> List[Span]:
        """Spans opened but not closed: the observing thread's first,
        outermost first, then each other thread's."""
        return [node for stack in self._stacks.values() for node in stack[1:]]

    def close_open(self) -> bool:
        """Flag every still-open span ``partial``; whether there were any.

        An open span's wall time is estimated from its open timestamp
        to the last event folded, so a killed run's tree says which
        stage died rather than pretending it took zero time.
        """
        for thread, stack in self._stacks.items():
            for node, opened in zip(stack[1:], self._opened[thread][1:]):
                node.attrs.setdefault("partial", True)
                if node.wall_s == 0.0 and opened is not None and self.last_ts is not None:
                    node.wall_s = max(0.0, self.last_ts - opened)
        return bool(self.open_spans())


class _ThreadState:
    """Per-thread span bookkeeping: the thread's tag and open-span count."""

    __slots__ = ("tag", "depth")

    def __init__(self, tag: Optional[str]) -> None:
        self.tag = tag
        self.depth = 0


class _ActiveSpan:
    """Context manager logging one span's open and close events."""

    __slots__ = ("_ob", "_span", "_state", "_depth", "_wall0", "_cpu0")

    def __init__(self, ob: "Observation", node: Span) -> None:
        self._ob = ob
        self._span = node

    def __enter__(self) -> Span:
        state = self._state = self._ob._thread()
        state.depth += 1
        self._depth = state.depth
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
        self._state.depth -= 1
        self._log(
            {
                "type": "span.close",
                "wall_s": node.wall_s,
                "cpu_s": node.cpu_s,
                "attrs": dict(node.attrs),
            }
        )
        return False

    def _log(self, event: Dict[str, Any]) -> None:
        event["ts"] = time.time()
        event["span"] = self._span.name
        event["depth"] = self._depth
        if self._state.tag is not None:
            event["thread"] = self._state.tag
        self._ob._record(event)


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


class Snapshot:
    """A worker observation in the form that crosses the executor boundary.

    Its logged events, the count its bounded log dropped, and its
    metrics snapshot — plain data, so it pickles across the process
    boundary.  A live :class:`Observation` pickles *into* one (via
    ``__reduce__``).
    """

    __slots__ = ("events", "events_dropped", "metrics")

    def __init__(
        self,
        events: List[Dict[str, Any]],
        events_dropped: int,
        metrics_dict: Dict[str, Any],
    ) -> None:
        self.events = events
        self.events_dropped = events_dropped
        self.metrics = metrics_dict

    def __reduce__(self):
        return (Snapshot, (self.events, self.events_dropped, self.metrics))


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
        self._kept_depth: Dict[Optional[str], int] = {}
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._main = _ThreadState(None)
        self._foreign = threading.local()
        self._thread_ids = itertools.count(1)
        self._estimators: Dict[str, ProgressEstimator] = {}
        self._last_counters: Dict[str, float] = {}
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def _thread(self) -> _ThreadState:
        """The calling thread's tag and open-span count.

        Span events of this observation's own thread carry no tag.
        Another thread (the streaming prefetch producer) gets a tag
        unique within the observation, fixed on its first span, which
        :class:`SpanFold` keys that thread's stack by.
        """
        if threading.get_ident() == self._owner:
            return self._main
        state = getattr(self._foreign, "state", None)
        if state is None:
            name = threading.current_thread().name
            state = self._foreign.state = _ThreadState(f"{name}#{next(self._thread_ids)}")
        return state

    def _record(self, event: Dict[str, Any]) -> None:
        # One lock orders the log and the bus alike, so the written
        # stream folds to the same tree as the log.
        with self._lock:
            if self._max_events is not None and not self._admit(event):
                self.dropped += 1
                return
            self.events.append(event)
            if self.emitter is not None:
                self.emitter.write(event)

    def _admit(self, event: Dict[str, Any]) -> bool:
        """Whether a bounded log keeps ``event``: its first ``max_events``
        events, then only the ``span.close`` of each span whose open it
        kept (the kept opens still open on a thread are its depths
        ``1..kept``).  It overshoots by at most the open depth, and a
        span opened past the bound is dropped whole."""
        full = len(self.events) >= self._max_events
        thread, etype = event.get("thread"), event.get("type")
        kept = self._kept_depth.get(thread, 0)
        if etype == "span.open" and not full:
            self._kept_depth[thread] = kept + 1
        elif etype == "span.close" and (not full or event.get("depth", 0) <= kept):
            self._kept_depth[thread] = kept - 1
            return True
        return not full

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
        """Log counter deltas (and current gauges) since the last call.

        A counter is logged the first time it exists even when it is
        still 0, so the fold of the log has every counter the live
        registry has.
        """
        snap = self.metrics.snapshot()
        counters = snap["counters"]
        with self._lock:
            deltas = {
                name: value - self._last_counters.get(name, 0.0)
                for name, value in counters.items()
                if value != self._last_counters.get(name)
            }
            self._last_counters = dict(counters)
        self.emit("metric", counters=deltas, gauges=snap["gauges"])

    def finish(self) -> None:
        """Stop the run's clocks; later calls keep the first reading."""
        if self._finished:
            return
        self._finished = True
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0

    def fold(self) -> SpanFold:
        """Fold the log so far; the root carries the run's clocks."""
        with self._lock:
            events = list(self.events)
        fold = SpanFold(self.root_name)
        for event in events:
            fold.feed(event)
        fold.root.wall_s, fold.root.cpu_s = self.wall_s, self.cpu_s
        return fold

    @property
    def root(self) -> Span:
        """The span tree of the log so far (a fresh fold on each access)."""
        return self.fold().root

    def snapshot(self) -> Snapshot:
        """The observation's events, drop count and metrics."""
        with self._lock:
            events, dropped = list(self.events), self.dropped
        return Snapshot(events, dropped, self.metrics.snapshot())

    def __reduce__(self):
        # Crossing a process boundary turns a live observation into its
        # Snapshot, so executor workers can return the observation
        # object itself.
        return self.snapshot().__reduce__()

    def merge_snapshot(self, snap: "Snapshot | Observation") -> None:
        """Replay a worker's events under the current span and add its metrics.

        Callers (the executor) invoke this exactly once per completed
        task, in submission order, so counter totals and the log are
        deterministic for any backend or worker count.  The worker's
        span events are re-based onto the calling thread: its tag, and
        depths counted from the caller's open spans.  Worker timestamps
        are kept.
        """
        if isinstance(snap, Observation):
            snap = snap.snapshot()
        state = self._thread()
        if snap.events_dropped:
            self.emit("events.dropped", count=snap.events_dropped)
        for event in snap.events:
            if event.get("type") in ("span.open", "span.close"):
                event = dict(event, depth=event.get("depth", 0) + state.depth)
                if state.tag is not None:
                    event.setdefault("thread", state.tag)
            self._record(event)
        self.metrics.merge(snap.metrics)


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
    previous values on exit), so executor workers — pool threads and
    forked processes alike — see that collection is on.  Yields the
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
