"""Thread-safe metrics registry: counters, gauges, histograms.

The registry absorbs the numeric signals the pipeline already computes
— k-means skipped-row ratios, GA fitness-cache hit rates, feature-block
cache hits, per-meter throughput — into three instrument kinds:

* **counters** — monotonically added totals (``counter_add``);
* **gauges** — last-written values (``gauge_set``);
* **histograms** — fixed-bucket distributions with approximate
  quantiles (``histogram_observe``), plus exact count/sum/min/max.

All mutation goes through one lock, so instrumented code can emit from
any thread.  :meth:`MetricsRegistry.snapshot` produces a plain-dict,
JSON- and pickle-ready view; :meth:`MetricsRegistry.merge` adds a
snapshot into the registry (counters and bucket counts add, gauges take
the merged value), which is how executor workers' metrics fold into the
parent run — see :mod:`repro.obs.spans`.

The module-level :data:`NOOP_REGISTRY` accepts every call and records
nothing; it is what :func:`repro.obs.metrics` hands out while no
observation is active, keeping disabled-path overhead to a lookup.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["DEFAULT_BUCKETS", "MetricsRegistry", "NoopMetricsRegistry", "NOOP_REGISTRY"]

#: Default histogram bucket upper bounds: log-spaced decades from 1e-6
#: to 1e6 (three per decade), a usable default for durations in seconds
#: as well as dimensionless scores.  Values above the last bound land in
#: the overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** (e / 3.0), 10) for e in range(-18, 19)
)


class _Histogram:
    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts.

        Returns the upper bound of the bucket holding the q-th
        observation, clamped to the exact observed min/max (so p0/p100
        are exact and single-value histograms report that value).
        """
        if self.count == 0:
            return math.nan
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        rank = q * (self.count - 1)
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen > rank:
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                return float(min(max(upper, self.min), self.max))
        return float(self.max)  # pragma: no cover - defensive

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": (self.total / self.count) if self.count else None,
            "p50": self.quantile(0.5) if self.count else None,
            "p90": self.quantile(0.9) if self.count else None,
            "p99": self.quantile(0.99) if self.count else None,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.counts),
        }

    def merge_dict(self, data: Dict[str, Any]) -> None:
        if tuple(data["bounds"]) != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(data["bucket_counts"]):
            self.counts[i] += int(c)
        self.count += int(data["count"])
        self.total += float(data["sum"])
        if data["min"] is not None and data["min"] < self.min:
            self.min = float(data["min"])
        if data["max"] is not None and data["max"] > self.max:
            self.max = float(data["max"])


class MetricsRegistry:
    """Named counters, gauges, and histograms behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

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

    def histogram_observe(
        self, name: str, value: float, *, bounds: Optional[Sequence[float]] = None
    ) -> None:
        """Record ``value`` into histogram ``name``.

        ``bounds`` fixes the bucket upper bounds on the histogram's
        first observation (:data:`DEFAULT_BUCKETS` otherwise); later
        calls must agree or omit it.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = _Histogram(bounds if bounds is not None else DEFAULT_BUCKETS)
                self._histograms[name] = hist
            hist.observe(float(value))

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
        """Plain-dict view: ``{"counters": .., "gauges": .., "histograms": ..}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.to_dict() for k, h in self._histograms.items()},
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram buckets add; gauges take the snapshot's
        value (the merged task ran more recently than the parent's last
        write, and merges happen in submission order, so the result is
        deterministic).
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = float(value)
            for name, data in snapshot.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = _Histogram(data["bounds"])
                    self._histograms[name] = hist
                hist.merge_dict(data)

    def histogram_quantile(self, name: str, q: float) -> float:
        """Approximate quantile of histogram ``name`` (NaN if absent)."""
        with self._lock:
            hist = self._histograms.get(name)
            return hist.quantile(q) if hist is not None else math.nan


class NoopMetricsRegistry(MetricsRegistry):
    """Accepts every emission, records nothing (the disabled-path sink)."""

    def counter_add(self, name: str, value: float = 1.0) -> None:
        pass

    def counter_add_many(self, pairs: Sequence[Tuple[str, float]]) -> None:
        pass

    def gauge_set(self, name: str, value: float) -> None:
        pass

    def histogram_observe(
        self, name: str, value: float, *, bounds: Optional[Sequence[float]] = None
    ) -> None:
        pass

    def merge(self, snapshot: Dict[str, Any]) -> None:
        pass


#: Shared sink handed out while no observation is active.
NOOP_REGISTRY = NoopMetricsRegistry()
