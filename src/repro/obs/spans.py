"""Hierarchical spans and the active observation context.

A :class:`Span` is one timed region of a run — a pipeline stage, a
k-means restart, one benchmark's characterization — with monotonic
wall-clock (``time.perf_counter``) and CPU (``time.process_time``)
durations, free-form attributes, and child spans.  Spans nest through
the context manager returned by :func:`span`; the tree they form is the
backbone of the run report (:mod:`repro.obs.report`).

Collection is opt-in and inert by default.  :func:`observe` installs an
:class:`Observation` — a root span plus a
:class:`~repro.obs.metrics.MetricsRegistry` — as the *current*
observation; while none is installed, :func:`span` returns a shared
no-op context manager and :func:`metrics` a shared no-op registry, so
instrumented library code pays a dictionary lookup and nothing else.

**Executors.**  Worker tasks (threads or forked processes) do not share
the caller's span stack.  Instead the executor wraps each task in
:func:`capture` — an isolated per-task observation whose serializable
:class:`Snapshot` travels back with the task result — and merges it
under the parent's current span with
:meth:`Observation.merge_snapshot`, in submission order, exactly once
per task.  A serial, threaded, and forked run therefore produce the
same span tree.

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
from typing import Any, Dict, List, Optional

from .metrics import NOOP_REGISTRY, MetricsRegistry

__all__ = [
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


class _ActiveSpan:
    """Context manager recording one span on an observation's stack."""

    __slots__ = ("_ob", "_span", "_stack", "_wall0", "_cpu0")

    def __init__(self, ob: "Observation", node: Span) -> None:
        self._ob = ob
        self._span = node

    def __enter__(self) -> Span:
        ob = self._ob
        stack = self._stack = ob._thread_stack()
        stack[-1].children.append(self._span)
        stack.append(self._span)
        emitter = ob.emitter
        if emitter is not None:
            emitter.span_open(self._span, len(stack) - 1)
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.wall_s = time.perf_counter() - self._wall0
        self._span.cpu_s = time.process_time() - self._cpu0
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        ob = self._ob
        popped = self._stack.pop()
        assert popped is self._span, "span stack corrupted"
        emitter = ob.emitter
        if emitter is not None:
            emitter.span_close(self._span, len(self._stack))
        return False


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
    """A worker observation serialized for the trip back to the parent.

    Plain dicts throughout, so it pickles across the process boundary.
    Only the process backend ever materializes one: a live
    :class:`Observation` pickles *into* a Snapshot (via ``__reduce__``),
    while serial and thread executors hand the observation object
    itself to :meth:`Observation.merge_snapshot` and skip the dict
    round-trip entirely.

    ``events`` carries the task's buffered telemetry events (plus the
    count any bounded buffer dropped) when the parent run has an event
    bus attached; the parent replays them — exactly once, in submission
    order — as part of the same merge that grafts the span tree.
    """

    __slots__ = ("span", "metrics", "events", "events_dropped")

    def __init__(
        self,
        span_dict: Dict[str, Any],
        metrics_dict: Dict[str, Any],
        events: Optional[List[Dict[str, Any]]] = None,
        events_dropped: int = 0,
    ) -> None:
        self.span = span_dict
        self.metrics = metrics_dict
        self.events = events
        self.events_dropped = events_dropped

    def __reduce__(self):
        return (Snapshot, (self.span, self.metrics, self.events, self.events_dropped))


class Observation:
    """One run's telemetry: a span tree plus a metrics registry.

    Args:
        run_id: identifier stamped on the run report and log records;
            generated when omitted.
        root_name: name of the implicit root span.
        emitter: optional live-event destination — an
            :class:`repro.obs.events.EventBus` for the main run, an
            :class:`repro.obs.events.EventBuffer` for a worker task
            (:class:`capture`), or None (the default) for report-only
            collection.  The span layer notifies it on every span
            open/close.
    """

    def __init__(
        self,
        run_id: Optional[str] = None,
        root_name: str = "run",
        emitter: Optional[Any] = None,
    ) -> None:
        self.run_id = run_id or new_run_id()
        self.root = Span(root_name)
        self.metrics = MetricsRegistry()
        self.emitter = emitter
        self._stack: List[Span] = [self.root]
        self._owner = threading.get_ident()
        self._foreign = threading.local()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def _thread_stack(self) -> List[Span]:
        """The open spans of the calling thread, innermost last.

        Another thread (the streaming prefetch producer) keeps a stack
        of its own, based at the span this observation's thread has
        open when that thread opens its first span, so neither thread
        ever pops a span the other opened.
        """
        if threading.get_ident() == self._owner:
            return self._stack
        stack = getattr(self._foreign, "stack", None)
        if stack is None:
            stack = self._foreign.stack = [self._stack[-1]]
        return stack

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """A context manager timing ``name`` under the current span."""
        return _ActiveSpan(self, Span(name, {k: _json_safe(v) for k, v in attrs.items()}))

    def finish(self) -> None:
        """Close the root span's clocks (idempotent enough for reports)."""
        self.root.wall_s = time.perf_counter() - self._wall0
        self.root.cpu_s = time.process_time() - self._cpu0

    def snapshot(self) -> Snapshot:
        """Serialize the whole observation (root span + metrics + events)."""
        self.finish()
        events, dropped = None, 0
        if self.emitter is not None and hasattr(self.emitter, "drain"):
            events, dropped = self.emitter.drain()
        return Snapshot(self.root.to_dict(), self.metrics.snapshot(), events, dropped)

    def __reduce__(self):
        # Crossing a process boundary turns a live observation into its
        # plain-dict Snapshot, so executor workers can return the
        # observation object itself and only the fork backend pays for
        # serialization.
        snap = self.snapshot()
        return (Snapshot, (snap.span, snap.metrics, snap.events, snap.events_dropped))

    def merge_snapshot(self, snap: "Snapshot | Observation") -> None:
        """Graft a worker observation under the current span, once.

        The worker's root span becomes a child of whatever span is
        active here, and its metrics are added into this registry.
        Callers (the executor) invoke this exactly once per completed
        task, in submission order, so counter totals and the span tree
        are deterministic for any backend or worker count.

        Accepts either a :class:`Snapshot` (what a forked worker's
        observation pickles into) or a live :class:`Observation` from a
        same-process task, whose finished span tree is grafted without
        any dict round-trip (the worker is done with it, so ownership
        transfers).

        When this observation has an event bus attached, the worker's
        buffered events are replayed into it here — the single merge
        point — so live telemetry inherits the exactly-once, submission-
        ordered discipline of the span/metric merge for free.
        """
        events: Optional[List[Dict[str, Any]]] = None
        dropped = 0
        if isinstance(snap, Observation):
            self._thread_stack()[-1].children.append(snap.root)
            self.metrics.merge_registry(snap.metrics)
            if snap.emitter is not None and hasattr(snap.emitter, "drain"):
                events, dropped = snap.emitter.drain()
        else:
            self._thread_stack()[-1].children.append(Span.from_dict(snap.span))
            self.metrics.merge(snap.metrics)
            events, dropped = snap.events, snap.events_dropped
        if events and self.emitter is not None and hasattr(self.emitter, "replay"):
            self.emitter.replay(events, dropped)


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
    :class:`Observation` for snapshotting into a run report.
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
    touched — concurrent tasks collect into disjoint observations and
    the parent's tree is never mutated from a worker.  The executor
    serializes the result with :meth:`Observation.snapshot` and the
    parent grafts it via :meth:`Observation.merge_snapshot`.
    """

    def __init__(self, label: str, root_name: str = "task") -> None:
        emitter = None
        parent = current()
        if parent is not None and parent.emitter is not None:
            # The parent run streams live telemetry; give this task a
            # bounded buffer whose events ride back in the Snapshot.
            # Workers never touch the parent's sink directly — a forked
            # child would otherwise interleave writes on an inherited
            # file handle.
            from .events import EventBuffer

            emitter = EventBuffer()
        root = Observation(run_id="worker", root_name=root_name, emitter=emitter)
        root.root.set(label=label)
        self.observation = root
        self._prev: Optional[Observation] = None

    def __enter__(self) -> Observation:
        self._prev = getattr(_TLS, "observation", None)
        _TLS.observation = self.observation
        return self.observation

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.observation.finish()
        _TLS.observation = self._prev
        return False
