"""Thread-safe metrics registry: counters and gauges, carried by the log.

The registry absorbs the numeric signals the pipeline already computes
— k-means skipped-row ratios, GA fitness-cache hit rates, feature-block
cache hits, per-meter throughput — into two instrument kinds:

* **counters** — monotonically added totals (``counter_add``);
* **gauges** — last-written values (``gauge_set``).

The run's event log is their only carrier.  The registry keeps what no
logged event carries yet — counter deltas summed, gauges at their last
value — until the next ``span.close`` or ``metric`` event the
observation logs takes it (:meth:`~MetricsRegistry.take`).
Every carried delta, local or replayed from an executor worker, is
folded into the registry's totals by :func:`fold_metrics`, the helper
the log's reader folds with, so the reads return the fold of the log
plus what is pending.  All mutation goes through one lock, so
instrumented code can emit from any thread.

The module-level :data:`NOOP_REGISTRY` accepts every call and records
nothing; it is what :func:`repro.obs.metrics` hands out while no
observation is active, keeping disabled-path overhead to a lookup.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["MetricsRegistry", "NoopMetricsRegistry", "NOOP_REGISTRY", "fold_metrics"]


def fold_metrics(counters: Dict[str, float], gauges: Dict[str, float], carried: Any) -> None:
    """Fold one event's ``{"counters": deltas, "gauges": values}`` into
    running totals; non-numeric entries are ignored."""
    if not isinstance(carried, dict):
        return
    for name, delta in (carried.get("counters") or {}).items():
        if isinstance(delta, (int, float)):
            counters[name] = counters.get(name, 0.0) + delta
    for name, value in (carried.get("gauges") or {}).items():
        if isinstance(value, (int, float)):
            gauges[name] = float(value)


class MetricsRegistry:
    """Named counters and gauges behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Pending: what no logged event carries yet.
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        # The fold of what the log carries.
        self._logged_counters: Dict[str, float] = {}
        self._logged_gauges: Dict[str, float] = {}

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

    # -- the log's side ---------------------------------------------------

    def take(self) -> Optional[Dict[str, Dict[str, float]]]:
        """The pending ``{"counters", "gauges"}`` (each omitted when
        empty; None when both are) for an event being logged, folded
        into the logged totals in the same step."""
        with self._lock:
            if not self._counters and not self._gauges:
                return None
            carried = {}
            if self._counters:
                carried["counters"], self._counters = self._counters, {}
            if self._gauges:
                carried["gauges"], self._gauges = self._gauges, {}
            fold_metrics(self._logged_counters, self._logged_gauges, carried)
            return carried

    def carry(self, carried: Any) -> None:
        """Fold what a replayed event already carries into the totals."""
        if carried:
            with self._lock:
                fold_metrics(self._logged_counters, self._logged_gauges, carried)

    # -- reads ------------------------------------------------------------

    def counter_value(self, name: str, default: float = 0.0) -> float:
        """Current total of a counter (``default`` if never written)."""
        with self._lock:
            if name in self._counters:
                return self._logged_counters.get(name, 0.0) + self._counters[name]
            return self._logged_counters.get(name, default)

    def gauge_value(self, name: str, default: float = math.nan) -> float:
        """Current value of a gauge (``default`` if never written)."""
        with self._lock:
            return self._gauges.get(name, self._logged_gauges.get(name, default))

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict totals, ``{"counters": .., "gauges": ..}``: the
        fold of the log plus what is pending."""
        with self._lock:
            counters, gauges = dict(self._logged_counters), dict(self._logged_gauges)
            fold_metrics(counters, gauges, {"counters": self._counters, "gauges": self._gauges})
        return {"counters": counters, "gauges": gauges}


class NoopMetricsRegistry(MetricsRegistry):
    """Accepts every emission, records nothing (the disabled-path sink)."""

    def counter_add(self, name: str, value: float = 1.0) -> None:
        pass

    def counter_add_many(self, pairs: Sequence[Tuple[str, float]]) -> None:
        pass

    def gauge_set(self, name: str, value: float) -> None:
        pass


#: Shared sink handed out while no observation is active.
NOOP_REGISTRY = NoopMetricsRegistry()
