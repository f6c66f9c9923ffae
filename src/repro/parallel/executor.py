"""Executor: ordered fan-out, in-process or through a fork pool.

:meth:`Executor.map` has one contract at any worker count:

* the callable is applied as ``fn(payload, task)`` for each task;
* results come back **in submission order**, whatever the completion
  order — a parallel run is indistinguishable from a serial one except
  in wall-clock time;
* a task that raises surfaces as :class:`WorkerError` carrying the
  task's label (e.g. a benchmark key) and the worker-side traceback;
* the large shared state goes in ``payload``; tasks themselves should
  be small (indices, seeds).

At ``n_jobs == 1`` tasks run in-process, one after another.  Otherwise
they run in a ``fork`` pool, one task per dispatch, so the payload —
benchmark registries, feature matrices — reaches workers through
inherited memory rather than pickling.

When an observation is active (:func:`repro.obs.active`), every task
runs inside :class:`repro.obs.capture` — an isolated worker-side event
log, carrying the task's metrics, that travels back with the task
result — and :meth:`Executor.map` replays each task's events under the
caller's current span **exactly once**, in submission order.  The
logged spans and all counter totals are therefore identical at any
worker count; the tasks before a failed one are merged once too (never
re-merged on the error path), and nothing is emitted at all when
observation is off.  A task's completion is logged once, as its
``task`` span's close (attribute ``label``); callers that know a
stage's total report ``progress`` from ``on_result``.
"""

from __future__ import annotations

import os
import traceback
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..obs import spans as _obs

TaskFn = Callable[[Any, Any], Any]
#: One task bundled with its human-readable label.
_LabeledTask = Tuple[Any, str]
#: Worker outcome: ("ok", result[, worker]) or ("err", label, message, traceback).
_Outcome = Tuple[Any, ...]


class WorkerError(RuntimeError):
    """A task failed inside an executor worker.

    Attributes:
        label: label of the failed task (e.g. ``"SPECint2006/astar"``).
        details: the worker-side traceback text.
    """

    def __init__(self, label: str, message: str, details: str = "") -> None:
        super().__init__(f"{label}: {message}")
        self.label = label
        self.details = details


def _run_one(fn: TaskFn, payload: Any, task: Any, label: str) -> _Outcome:
    try:
        if _obs.active():
            # Log the task's events, which carry its metrics, into an
            # isolated worker observation that rides back with the
            # result and is merged (once) by Executor.map in submission
            # order.  In-process tasks hand over the live object;
            # crossing the fork boundary pickles it into a Snapshot.
            with _obs.capture(label) as worker:
                result = fn(payload, task)
            return ("ok", result, worker)
        return ("ok", fn(payload, task))
    except Exception as exc:
        return ("err", label, f"{type(exc).__name__}: {exc}", traceback.format_exc())


# Worker-side state for the fork pool: set in the parent immediately
# before forking, inherited by the children, never pickled.
_POOL_STATE: Optional[Tuple[TaskFn, Any]] = None


def _pool_init(state: Tuple[TaskFn, Any]) -> None:
    global _POOL_STATE
    _POOL_STATE = state


def _pool_run_one(labeled: _LabeledTask) -> _Outcome:
    fn, payload = _POOL_STATE
    return _run_one(fn, payload, *labeled)


class Executor:
    """Ordered fan-out over a fixed worker budget.

    The ``(fn, payload)`` pair reaches forked workers through inherited
    memory, so neither needs to be picklable; tasks and results cross
    the process boundary and must pickle (indices, seeds, numpy arrays
    all qualify).
    """

    def __init__(self, n_jobs: int = 1) -> None:
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        self.n_jobs = n_jobs

    def map(
        self,
        fn: TaskFn,
        tasks: Iterable[Any],
        *,
        payload: Any = None,
        labels: Optional[Sequence[str]] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Apply ``fn(payload, task)`` to every task, preserving order.

        Args:
            fn: a module-level callable.
            tasks: the work items; materialized up front.
            payload: shared state passed to every call.
            labels: per-task labels for error reporting; defaults to
                ``"task {i}"``.
            on_result: optional callback invoked as ``on_result(i,
                result)`` in task order as ordered results arrive (for
                progress reporting).

        Returns:
            ``[fn(payload, t) for t in tasks]``, in task order.

        Raises:
            WorkerError: if any task raised; the first failing task in
                submission order wins.
        """
        tasks = list(tasks)
        if labels is None:
            labels = [f"task {i}" for i in range(len(tasks))]
        else:
            labels = [str(label) for label in labels]
        if len(labels) != len(tasks):
            raise ValueError("labels length must match tasks length")
        if not tasks:
            return []
        results: List[Any] = []
        parent = _obs.current()
        for outcome in self._outcomes(fn, payload, list(zip(tasks, labels))):
            if outcome[0] == "err":
                _, label, message, details = outcome
                raise WorkerError(label, message, details)
            results.append(outcome[1])
            if parent is not None and len(outcome) == 3:
                # A 3-tuple carries the worker's telemetry; replay it
                # under the caller's current span here — and only
                # here — so each task's events and metrics count
                # exactly once.
                parent.merge_snapshot(outcome[2])
            if on_result is not None:
                on_result(len(results) - 1, outcome[1])
        return results

    def _outcomes(
        self, fn: TaskFn, payload: Any, labeled: Sequence[_LabeledTask]
    ) -> Iterator[_Outcome]:
        if self.n_jobs == 1:
            for task, label in labeled:
                yield _run_one(fn, payload, task, label)
            return
        import multiprocessing  # here, so a serial run never loads it

        n_workers = min(self.n_jobs, len(labeled))
        # Tells the run report that its children's peak RSS is workers'.
        reg = _obs.metrics()
        most = max(n_workers, reg.gauge_value("executor.forked_workers", 0.0))
        reg.gauge_set("executor.forked_workers", most)
        with multiprocessing.get_context("fork").Pool(
            processes=n_workers,
            initializer=_pool_init,
            initargs=((fn, payload),),
        ) as pool:
            yield from pool.imap(_pool_run_one, labeled)


def effective_n_jobs(n_jobs: Optional[int]) -> int:
    """Resolve an ``n_jobs`` knob to a concrete worker count.

    ``None`` and ``-1`` mean every CPU this process may run on (its
    affinity mask, not the machine's core count); positive values pass
    through.
    """
    if n_jobs is None or n_jobs == -1:
        return len(os.sched_getaffinity(0))
    if n_jobs < 1:
        raise ValueError("n_jobs must be -1 or >= 1")
    return n_jobs


def get_executor(backend: str = "auto", n_jobs: Optional[int] = 1) -> Executor:
    """Build the executor for a backend name and worker count.

    ``serial`` (or one job) runs tasks in-process; ``auto`` and
    ``process`` fan them out through the fork pool.
    """
    if backend not in ("auto", "serial", "process"):
        raise ValueError(
            f"unknown backend {backend!r} (choose from auto, serial, process)"
        )
    n_jobs = effective_n_jobs(n_jobs)
    return Executor(1 if backend == "serial" else n_jobs)
