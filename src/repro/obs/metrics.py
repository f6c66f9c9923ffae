"""Thread-safe metrics registry: counters and gauges.

The registry absorbs the numeric signals the pipeline already computes
— k-means skipped-row ratios, GA fitness-cache hit rates, feature-block
cache hits, per-meter throughput — into two instrument kinds:

* **counters** — monotonically added totals (``counter_add``);
* **gauges** — last-written values (``gauge_set``).

All mutation goes through one lock, so instrumented code can emit from
any thread.  :meth:`MetricsRegistry.snapshot` produces a plain-dict,
JSON- and pickle-ready view; :meth:`MetricsRegistry.merge` adds a
snapshot into the registry (counters add, gauges take the merged
value), which is how executor workers' metrics fold into the parent
run — see :mod:`repro.obs.spans`.  The run's event log carries the
registry's movement as ``metric`` events; reports read those.

The module-level :data:`NOOP_REGISTRY` accepts every call and records
nothing; it is what :func:`repro.obs.metrics` hands out while no
observation is active, keeping disabled-path overhead to a lookup.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Sequence, Tuple

__all__ = ["MetricsRegistry", "NoopMetricsRegistry", "NOOP_REGISTRY"]


class MetricsRegistry:
    """Named counters and gauges behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}

    # -- instruments ------------------------------------------------------

    def counter_add(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def counter_add_many(self, pairs: Sequence[Tuple[str, float]]) -> None:
        """Add many ``(name, value)`` increments under one lock acquire.

        The batched form exists for per-item hot paths (one call per
        characterized interval beats a dozen), not for convenience.
        """
        with self._lock:
            counters = self._counters
            for name, value in pairs:
                counters[name] = counters.get(name, 0.0) + value

    def gauge_set(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    # -- reads ------------------------------------------------------------

    def counter_value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter (``default`` if never written)."""
        with self._lock:
            return self._counters.get(name, default)

    def gauge_value(self, name: str, default: float = math.nan) -> float:
        """Current value of a gauge (``default`` if never written)."""
        with self._lock:
            return self._gauges.get(name, default)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view: ``{"counters": .., "gauges": ..}``."""
        with self._lock:
            return {"counters": dict(self._counters), "gauges": dict(self._gauges)}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add; gauges take the snapshot's value (the merged task
        ran more recently than the parent's last write, and merges
        happen in submission order, so the result is deterministic).
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = float(value)


class NoopMetricsRegistry(MetricsRegistry):
    """Accepts every emission, records nothing (the disabled-path sink)."""

    def counter_add(self, name: str, value: float = 1.0) -> None:
        pass

    def counter_add_many(self, pairs: Sequence[Tuple[str, float]]) -> None:
        pass

    def gauge_set(self, name: str, value: float) -> None:
        pass

    def merge(self, snapshot: Dict[str, Any]) -> None:
        pass


#: Shared sink handed out while no observation is active.
NOOP_REGISTRY = NoopMetricsRegistry()
