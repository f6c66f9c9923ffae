"""Executor abstraction: serial, thread and process backends.

All backends share one contract, :meth:`Executor.map`:

* the callable is applied as ``fn(payload, task)`` for each task;
* results come back **in submission order**, whatever the completion
  order — a parallel run is indistinguishable from a serial one except
  in wall-clock time;
* a task that raises surfaces as :class:`WorkerError` carrying the
  task's label (e.g. a benchmark key) and the worker-side traceback;
* the large shared state goes in ``payload``; tasks themselves should
  be small (indices, seeds).

The process backend uses a ``fork`` pool so the payload — benchmark
registries, feature matrices — reaches workers through inherited
memory rather than pickling.  Where ``fork`` is unavailable (or
``multiprocessing`` itself is broken), :func:`get_executor` degrades
gracefully: ``process`` falls back to serial execution and ``auto``
picks threads, so callers never have to special-case the platform.

When an observation is active (:func:`repro.obs.active`), every task
runs inside :class:`repro.obs.capture` — an isolated worker-side event
log, carrying the task's metrics, that travels back with the task
result — and :meth:`Executor.map` replays each task's events under the
caller's current span **exactly once**, in submission order.  The
logged spans and all counter totals are therefore identical for any
backend or worker count; a failed chunk's surviving tasks are merged once too
(never re-merged on the error path), and nothing is emitted at all
when observation is off.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..obs import spans as _obs
from .chunking import chunk_bounds

#: Recognised backend names, in the order we document them.
BACKENDS = ("auto", "serial", "thread", "process")

TaskFn = Callable[[Any, Any], Any]
#: One task bundled with its human-readable label.
_LabeledTask = Tuple[Any, str]
#: Worker outcome: ("ok", result) or ("err", label, message, traceback).
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
            # order.  Same-process backends hand over the live object;
            # crossing the fork boundary pickles it into a Snapshot.
            with _obs.capture(label) as worker:
                result = fn(payload, task)
            return ("ok", result, worker)
        return ("ok", fn(payload, task))
    except Exception as exc:
        return ("err", label, f"{type(exc).__name__}: {exc}", traceback.format_exc())


def _run_chunk(fn: TaskFn, payload: Any, chunk: Sequence[_LabeledTask]) -> List[_Outcome]:
    outcomes = []
    for task, label in chunk:
        outcome = _run_one(fn, payload, task, label)
        outcomes.append(outcome)
        if outcome[0] == "err":
            break  # remaining tasks in the chunk would be discarded anyway
    return outcomes


# Worker-side state for the fork pool: set in the parent immediately
# before forking, inherited by the children, never pickled.
_POOL_STATE: Optional[Tuple[TaskFn, Any]] = None


def _pool_init(state: Tuple[TaskFn, Any]) -> None:
    global _POOL_STATE
    _POOL_STATE = state


def _pool_run_chunk(chunk: Sequence[_LabeledTask]) -> List[_Outcome]:
    fn, payload = _POOL_STATE
    return _run_chunk(fn, payload, chunk)


class Executor:
    """Ordered fan-out over a fixed worker budget."""

    backend = "serial"

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
        chunk_size: int = 1,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Apply ``fn(payload, task)`` to every task, preserving order.

        Args:
            fn: a module-level callable (so the process backend can
                resolve it in workers).
            tasks: the work items; materialized up front.
            payload: shared state passed to every call.
            labels: per-task labels for error reporting; defaults to
                ``"task {i}"``.
            chunk_size: tasks handed to a worker per dispatch; raise it
                when individual tasks are tiny relative to IPC cost.
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
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not tasks:
            return []
        labeled = list(zip(tasks, labels))
        chunks = [
            labeled[start:stop]
            for start, stop in chunk_bounds(len(labeled), chunk_size=chunk_size)
        ]
        results: List[Any] = []
        parent = _obs.current()
        for outcomes in self._imap_chunks(fn, payload, chunks):
            for outcome in outcomes:
                if outcome[0] == "err":
                    _, label, message, details = outcome
                    raise WorkerError(label, message, details)
                results.append(outcome[1])
                if parent is not None:
                    # A 3-tuple carries the worker's telemetry; replay
                    # it under the caller's current span here — and
                    # only here — so each task's events and metrics
                    # count exactly once.  The task's heartbeat follows
                    # it, so a failed chunk's tail never beats.
                    if len(outcome) == 3:
                        parent.merge_snapshot(outcome[2])
                    parent.emit(
                        "heartbeat",
                        label=labels[len(results) - 1],
                        completed=len(results),
                        total=len(tasks),
                    )
                if on_result is not None:
                    on_result(len(results) - 1, outcome[1])
        return results

    def _imap_chunks(
        self, fn: TaskFn, payload: Any, chunks: Sequence[Sequence[_LabeledTask]]
    ) -> Iterator[List[_Outcome]]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process, one task at a time; the reference semantics."""

    backend = "serial"

    def __init__(self) -> None:
        super().__init__(n_jobs=1)

    def _imap_chunks(self, fn, payload, chunks):
        for chunk in chunks:
            yield _run_chunk(fn, payload, chunk)


class ThreadExecutor(Executor):
    """Thread pool; useful when tasks release the GIL or block on IO."""

    backend = "thread"

    def _imap_chunks(self, fn, payload, chunks):
        with ThreadPoolExecutor(max_workers=self.n_jobs) as pool:
            futures = [pool.submit(_run_chunk, fn, payload, chunk) for chunk in chunks]
            for future in futures:
                yield future.result()


class ProcessExecutor(Executor):
    """Fork-based process pool; the true-parallelism backend.

    The ``(fn, payload)`` pair reaches workers through fork-inherited
    memory, so neither needs to be picklable; tasks and results cross
    the process boundary and must pickle (indices, seeds, numpy arrays
    all qualify).
    """

    backend = "process"

    def _imap_chunks(self, fn, payload, chunks):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        n_workers = min(self.n_jobs, max(len(chunks), 1))
        with ctx.Pool(
            processes=n_workers,
            initializer=_pool_init,
            initargs=((fn, payload),),
        ) as pool:
            for outcomes in pool.imap(_pool_run_chunk, chunks):
                yield outcomes


def fork_available() -> bool:
    """Whether a fork-based process pool can be created on this platform."""
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


def effective_n_jobs(n_jobs: Optional[int]) -> int:
    """Resolve an ``n_jobs`` knob to a concrete worker count.

    ``None`` and ``-1`` mean "all cores"; positive values pass through.
    """
    if n_jobs is None or n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError("n_jobs must be -1 or >= 1")
    return n_jobs


def get_executor(backend: str = "auto", n_jobs: Optional[int] = 1) -> Executor:
    """Build the executor for a backend name and worker count.

    ``auto`` picks processes when fork is available, threads otherwise.
    ``process`` without fork support degrades to serial execution (the
    graceful fallback), as does any backend at ``n_jobs=1``.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (choose from {BACKENDS})")
    n_jobs = effective_n_jobs(n_jobs)
    if backend == "auto":
        backend = "process" if fork_available() else "thread"
    if n_jobs == 1 or backend == "serial":
        return SerialExecutor()
    if backend == "process":
        if not fork_available():
            return SerialExecutor()
        return ProcessExecutor(n_jobs)
    return ThreadExecutor(n_jobs)
