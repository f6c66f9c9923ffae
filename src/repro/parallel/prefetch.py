"""Pipelined prefetch: overlap batch production with consumption.

The streaming engine's cold sweep alternates two phases with disjoint
costs — *produce* a batch (trace generation + fused MICA meters, the
expensive part) and *consume* it (PCA folds, Lloyd distance passes).
:func:`prefetch_iter` runs the producer iterator in one background
thread feeding a bounded queue, so batch ``i+1`` is generated and
metered while batch ``i`` is being consumed.  The meter kernels spend
most of their time inside NumPy, which releases the GIL, so a single
producer thread yields real overlap without any pickling.

The contract mirrors the executor layer's determinism guarantees:

* **ordered handoff** — a single producer filling a FIFO queue cannot
  reorder batches, so the consumer sees exactly the sequence the bare
  iterator would have produced;
* **one log** — when an observation is active, the producer runs each
  ``next()`` inside :class:`repro.obs.capture`, as an executor task
  does, and the consumer merges that ``task`` (label ``prefetch i``)
  with :meth:`~repro.obs.Observation.merge_snapshot` as it takes the
  item, so the producer's spans and counters reach the log in item
  order, under the consumer's current span;
* **bounded memory** — at most ``depth`` finished batches wait in the
  queue (plus the one being produced and the one being consumed), so
  an ``O(batch)`` working set stays ``O(batch)``;
* **error transparency** — a producer-side exception is re-raised in
  the consumer at the point the failed batch would have arrived;
* **no leaked threads** — abandoning the iterator mid-stream (early
  ``break``, exception in the consumer) cancels the producer, which
  notices within ``_POLL_SECONDS`` even while blocked on a full queue.

``depth <= 0`` degrades to the bare iterator: same types, same order,
no thread.
"""

from __future__ import annotations

import contextlib
import itertools
import queue
import threading
from typing import Iterable, Iterator, TypeVar

from ..obs import spans as _obs

T = TypeVar("T")

#: How often a blocked producer re-checks for consumer cancellation.
_POLL_SECONDS = 0.05

#: Queue sentinel marking normal end of stream.
_DONE = object()

__all__ = ["prefetch_iter"]


def _step(iterator: Iterator[T]) -> tuple:
    """One ``next()`` as a tagged queue entry."""
    try:
        return ("item", next(iterator))
    except StopIteration:
        return (_DONE, None)


def prefetch_iter(iterable: Iterable[T], depth: int) -> Iterator[T]:
    """Iterate ``iterable`` with up to ``depth`` items produced ahead.

    Args:
        iterable: the source iterator; consumed entirely on one
            background thread when ``depth > 0``.
        depth: finished items allowed to wait unconsumed.  ``0`` (or
            negative) disables prefetching and iterates inline.
    """
    if depth <= 0:
        yield from iterable
        return

    iterator = iter(iterable)
    parent = _obs.current()
    q: "queue.Queue" = queue.Queue(maxsize=depth)
    cancelled = threading.Event()

    def _put(entry) -> bool:
        """Queue one tagged entry; False when the consumer cancelled."""
        while not cancelled.is_set():
            try:
                q.put(entry, timeout=_POLL_SECONDS)
                return True
            except queue.Full:
                continue
        return False

    def _produce() -> None:
        # Every queue entry is tagged, so payload items that happen to
        # be tuples can never be mistaken for control messages.  Its
        # third field is the step's telemetry (None when unobserved).
        for index in itertools.count():
            task = None if parent is None else _obs.capture(f"prefetch {index}")
            try:
                with task or contextlib.nullcontext():
                    tag, value = _step(iterator)
            except BaseException as exc:  # noqa: BLE001 - relayed to the consumer
                tag, value = "error", exc
            snap = None if task is None else task.observation.snapshot()
            if not _put((tag, value, snap)) or tag != "item":
                return

    worker = threading.Thread(target=_produce, name="repro-prefetch", daemon=True)
    worker.start()
    try:
        for taken in itertools.count():
            tag, value, snap = q.get()
            if snap is not None:
                parent.merge_snapshot(snap)
            if tag is _DONE:
                _obs.metrics().counter_add("prefetch.batches", float(taken))
                return
            if tag == "error":
                raise value
            yield value
    finally:
        cancelled.set()
        # Unblock a producer waiting on a full queue so it can observe
        # the cancellation and exit.
        while True:
            try:
                q.get_nowait()
            except queue.Empty:
                break
        worker.join(timeout=5.0)
