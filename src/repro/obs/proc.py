"""Process-level probes: peak RSS for run reports, pid liveness.

Wall and CPU time have been first-class run-report citizens since the
span layer landed; memory was not observable at all.  This module adds
the missing axis: the process's high-water resident set size, read from
``resource.getrusage`` (zero-dependency, one syscall), recorded as
gauges in the active metrics registry:

* ``proc.peak_rss_mb`` — this process's lifetime peak RSS;
* ``proc.peak_rss_children_mb`` — the peak RSS across waited-for child
  processes, recorded only when the run forked executor workers (its
  ``executor.forked_workers`` gauge is set): a serial run's only
  child is the environment probe's ``git`` call, whose memory says
  nothing about the run.

``ru_maxrss`` is a *lifetime* high-water mark, so the gauge answers
"how much memory did this run need" only when the process did little
before the run — true for CLI invocations, which is where run reports
are written.  :func:`repro.obs.build_report` records the gauges just
before snapshotting, so memory joins wall/CPU in every ``--run-report``
document without any caller changes.

On platforms without the ``resource`` module (Windows), the reader
returns ``0.0`` and the gauges are simply absent from reports.

:func:`pid_alive` is the one liveness check for a recorded pid: a
stale artifact lock's owner, a running job's worker, an event log's
writer.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

try:  # pragma: no cover - resource is always present on POSIX
    import resource
except ImportError:  # pragma: no cover - Windows
    resource = None  # type: ignore[assignment]

from .metrics import MetricsRegistry
from .spans import metrics

__all__ = ["peak_rss_mb", "peak_rss_children_mb", "pid_alive", "record_peak_rss"]


def _maxrss_to_mb(maxrss: float) -> float:
    """Normalize ``ru_maxrss`` to MiB (kilobytes on Linux, bytes on macOS)."""
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return maxrss / (1024.0 * 1024.0)
    return maxrss / 1024.0


def peak_rss_mb() -> float:
    """This process's lifetime peak resident set size, in MiB (0 if unknown)."""
    if resource is None:  # pragma: no cover - Windows
        return 0.0
    return _maxrss_to_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def peak_rss_children_mb() -> float:
    """Peak RSS across waited-for children, in MiB (0 if none or unknown)."""
    if resource is None:  # pragma: no cover - Windows
        return 0.0
    return _maxrss_to_mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def record_peak_rss(registry: Optional[MetricsRegistry] = None) -> float:
    """Record the peak-RSS gauges into ``registry`` (default: the active one).

    Returns the recorded ``proc.peak_rss_mb`` value so callers can log
    it.  The children gauge is only written when the registry records
    forked executor workers and a child has been waited for, keeping
    serial reports free of a row that measures no worker.
    """
    reg = registry if registry is not None else metrics()
    peak = peak_rss_mb()
    if peak > 0:
        reg.gauge_set("proc.peak_rss_mb", peak)
    children = peak_rss_children_mb()
    if children > 0 and reg.gauge_value("executor.forked_workers", 0.0):
        reg.gauge_set("proc.peak_rss_children_mb", children)
    return peak


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` still exists on this host.

    Signal 0 probes without delivering anything.  A pid owned by
    another user, or any other error, counts as alive: callers treat
    a dead owner as licence to reclaim, so doubt must not grant it.
    """
    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, ValueError, TypeError):
        return False
    except OSError:  # PermissionError included: another user's pid
        return True
    return True
