"""Reusable memory for featurizing fused batches.

Featurization runs batch after batch of the same size, and every batch
needs the same memory: the seven trace columns its intervals are
synthesized into, and the fused pass's large temporaries (sort keys,
the producer table, the ILP and PPM buffers).  Allocated afresh per
batch, that memory is returned to the allocator after each batch and
faulted back in by the next — most of a paper-preset featurization's
system time.  A :class:`Workspace` holds it for a whole build or
streaming sweep instead:

* :meth:`Workspace.batch` hands out the first instructions of its trace
  columns as a :class:`TraceBatch`, one interval view per item, which
  the synthesizer fills in place
  (``SyntheticProgram.interval_trace(..., out=batch[i])``) and the
  fused pass reads with no concatenation.
* :meth:`Workspace.empty` carves a temporary out of one arena, and
  :meth:`Workspace.frame` releases everything carved inside it.  The
  fused pass's sections run one after another, each in its own frame,
  so the arena's peak is the largest section's working set, not the
  sum of the kernels'.

A workspace starts empty and grows to the largest batch it serves —
at most :data:`repro.mica.fused.FUSED_BATCH_INSTRUCTIONS` instructions
(or one interval, when an interval is longer), because
:func:`~repro.mica.fused.batch_slices` bounds the batches — so a
workspace serving small batches stays small.  Each growth provisions
:data:`ARENA_BYTES_PER_INSTRUCTION` of arena per batch instruction.  A
request past the arena's end is served by ``np.empty`` once, and the
arena grows to fit before the next outermost frame opens.  A workspace
is not thread-safe: each featurizing thread uses its own
(:func:`thread_workspace`).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

from ..isa import Trace

#: Arena bytes per batch instruction.  The largest section is producer
#: matching: 105 bytes per instruction with the int32 sort keys that
#: every shipped preset's batches use, plus alignment.  Measured over
#: every benchmark at the tiny, small and paper presets, no other
#: section needs more (PPM peaks at about 98 on the branchiest ones).
#: Batches with int64 keys grow the arena once.
ARENA_BYTES_PER_INSTRUCTION = 106

#: Arena offsets are rounded up to this many bytes.
_ALIGN = 64

Shape = Union[int, Tuple[int, ...]]


class TraceBatch(Sequence[Trace]):
    """Interval traces stored back to back in one trace's columns.

    A sequence with one item per interval, each a view of ``whole``
    whose ``len`` is the interval's instruction count, so anything that
    takes a list of interval traces takes a batch.  The fused pass
    reads ``whole`` directly instead of concatenating the items, and
    carves its temporaries from ``workspace``.
    """

    def __init__(self, whole: Trace, lengths: Sequence[int], workspace: "Workspace") -> None:
        bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        if bounds[-1] != len(whole):
            raise ValueError(
                f"interval lengths cover {bounds[-1]} instructions, the trace {len(whole)}"
            )
        self.whole = whole
        self.bounds = bounds
        self.workspace = workspace

    @property
    def lengths(self) -> np.ndarray:
        """Instructions per interval."""
        return np.diff(self.bounds)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, index: int) -> Trace:  # type: ignore[override]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("interval index out of range")
        return self.whole.slice(int(self.bounds[index]), int(self.bounds[index + 1]))


class Workspace:
    """Trace columns and a temporary arena, reused batch after batch.

    A new workspace holds nothing; used without :meth:`batch` (a
    one-off pass over a list of traces), every temporary comes from
    ``np.empty``.
    """

    def __init__(self) -> None:
        self._columns = Trace.allocate(0)
        self._arena = np.empty(0, dtype=np.uint8)
        self._positions = np.empty(0, dtype=np.int64)
        self._top = 0
        self._need = 0

    def batch(self, lengths: Sequence[int]) -> TraceBatch:
        """Views of the trace columns for intervals of these lengths.

        The returned batch's columns are overwritten by the next call.
        """
        total = int(sum(lengths))
        if total > len(self._columns):
            self._columns = Trace.allocate(total)
            self._need = max(self._need, total * ARENA_BYTES_PER_INSTRUCTION)
        return TraceBatch(self._columns.slice(0, total), lengths, self)

    def positions(self, n: int) -> np.ndarray:
        """Read-only ``np.arange(n, dtype=np.int64)``."""
        if n > len(self._positions):
            self._positions = np.arange(n, dtype=np.int64)
            self._positions.flags.writeable = False
        return self._positions[:n]

    def empty(self, shape: Shape, dtype) -> np.ndarray:
        """An uninitialized array that lives until its frame closes."""
        dtype = np.dtype(dtype)
        count = math.prod(shape) if isinstance(shape, tuple) else int(shape)
        start = self._top
        stop = start + count * dtype.itemsize
        self._top = -(-stop // _ALIGN) * _ALIGN
        self._need = max(self._need, self._top)
        if stop > len(self._arena):
            return np.empty(shape, dtype=dtype)
        return np.ndarray(shape, dtype, self._arena, start)

    @contextmanager
    def frame(self) -> Iterator["Workspace"]:
        """Release every :meth:`empty` array taken inside the block on exit."""
        mark = self._top
        if mark == 0 and self._need > len(self._arena):
            self._arena = np.empty(self._need, dtype=np.uint8)
        try:
            yield self
        finally:
            self._top = mark


_local = threading.local()


@contextmanager
def thread_workspace() -> Iterator[Workspace]:
    """This thread's workspace for the block; nested blocks share one.

    The outermost block on a thread creates the workspace and drops it
    on exit, so a build that wraps its per-benchmark tasks in one block
    reuses one workspace for every batch its thread featurizes.
    """
    shared = getattr(_local, "workspace", None)
    if shared is not None:
        yield shared
        return
    _local.workspace = Workspace()
    try:
        yield _local.workspace
    finally:
        _local.workspace = None
