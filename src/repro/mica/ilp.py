"""Inherent ILP meter.

Measures the IPC an idealized processor would achieve — perfect caches,
perfect branch prediction, unit execution latency — limited only by true
register data dependences and a finite instruction window.

The model fills the window with W consecutive instructions, issues them
in dataflow order (the schedule depth of the block is its register-
dependence critical path), then refills: ``IPC_W = N / sum(block
depths)``.  This is the standard window-based inherent-ILP model used by
microarchitecture-independent characterization tools.

Two implementations live here.  :func:`measure_ilp_reference` is the
original formulation (the tests' oracle): one Python re-walk of the block recurrence
``depth(i) = 1 + max(depth of in-block producers)`` per window size.
:func:`measure_ilp` computes the depths for *all* window sizes in
one vectorized sweep: the per-window producer indices (clipped to block
boundaries, with a shared sentinel of depth 0 for out-of-block or absent
producers) are stacked into a single flat array and the depth recurrence
is iterated Jacobi-style — ``depth = 1 + max(depth[p1], depth[p2])``
until a fixpoint.  Block depth is a monotone function on a DAG, so the
fixpoint is unique and reached within the longest in-block critical path
(bounded by the window size; a handful of sweeps in practice), and the
result is exactly the sequential recurrence's.

The meter runs on a leading subsample of the interval
(``AnalysisConfig.ilp_sample_instructions``); phase-homogeneous
intervals make the subsample representative.  Producer matching is
shared with the register-traffic meter through
:class:`~repro.mica.profile.IntervalProfile` — producers of a prefix
are a prefix of the producers, so the full-interval arrays slice down.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..isa import N_REGISTERS, Trace
from .profile import IntervalProfile, match_producers

#: The paper's four window sizes.
WINDOW_SIZES = (32, 64, 128, 256)


def producer_indices_reference(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """Reference producer matching: one searchsorted pass per register."""
    n = len(trace)
    p1 = np.full(n, -1, dtype=np.int64)
    p2 = np.full(n, -1, dtype=np.int64)
    dst = trace.dst
    positions = np.arange(n, dtype=np.int64)
    for reg in range(N_REGISTERS):
        writes = positions[dst == reg]
        if len(writes) == 0:
            continue
        for src, out in ((trace.src1, p1), (trace.src2, p2)):
            reads = positions[src == reg]
            if len(reads) == 0:
                continue
            idx = np.searchsorted(writes, reads, side="left") - 1
            valid = idx >= 0
            out[reads[valid]] = writes[idx[valid]]
    return p1, p2


def producer_indices(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """For each instruction, the indices of its source producers.

    Returns two int64 arrays ``(p1, p2)``; entry -1 means the source is
    absent or was produced before the trace started.  Batched
    single-sort formulation (see :func:`repro.mica.profile.match_producers`).
    """
    return match_producers(trace)


def _block_depth_cycles(
    p1: np.ndarray, p2: np.ndarray, n: int, windows: Sequence[int]
) -> Dict[int, int]:
    """Total block-depth cycles per window size, all windows in one sweep."""
    n_windows = len(windows)
    positions = np.arange(n, dtype=np.int64)
    sentinel = n_windows * n
    # Per-window producer indices into the stacked depth array; the
    # sentinel slot (depth 0) stands in for absent/out-of-block producers.
    stacked_p1 = np.empty((n_windows, n), dtype=np.int64)
    stacked_p2 = np.empty((n_windows, n), dtype=np.int64)
    for row, w in enumerate(windows):
        block_start = (positions // w) * w
        base = row * n
        stacked_p1[row] = np.where(p1 >= block_start, p1 + base, sentinel)
        stacked_p2[row] = np.where(p2 >= block_start, p2 + base, sentinel)
    flat_p1 = stacked_p1.ravel()
    flat_p2 = stacked_p2.ravel()
    depth = np.ones(sentinel + 1, dtype=np.int32)
    depth[sentinel] = 0
    live = depth[:sentinel]
    gather1 = np.empty(sentinel, dtype=np.int32)
    gather2 = np.empty(sentinel, dtype=np.int32)
    while True:
        # mode="clip" keeps the sentinel reachable without bounds checks.
        depth.take(flat_p1, out=gather1, mode="clip")
        depth.take(flat_p2, out=gather2, mode="clip")
        np.maximum(gather1, gather2, out=gather1)
        gather1 += 1
        if np.array_equal(gather1, live):
            break
        live[:] = gather1
    per_window = live.reshape(n_windows, n)
    out: Dict[int, int] = {}
    for row, w in enumerate(windows):
        n_blocks = -(-n // w)
        padded = np.zeros(n_blocks * w, dtype=np.int32)
        padded[:n] = per_window[row]
        out[w] = int(padded.reshape(n_blocks, w).max(axis=1).sum())
    return out


def measure_ilp(
    trace: Trace,
    *,
    sample_instructions: int = 2_000,
    windows: Sequence[int] = WINDOW_SIZES,
    profile: Optional[IntervalProfile] = None,
) -> Dict[str, float]:
    """Return the idealized-IPC features for the paper's window sizes.

    Single-sweep meter; bit-identical to :func:`measure_ilp_reference`.
    """
    if len(trace) == 0:
        raise ValueError("cannot characterize an empty trace")
    n = min(len(trace), sample_instructions)
    if profile is not None:
        p1, p2 = profile.producers
        p1, p2 = p1[:n], p2[:n]
    else:
        sample = trace if len(trace) <= sample_instructions else trace.slice(0, sample_instructions)
        p1, p2 = match_producers(sample)
    cycles = _block_depth_cycles(p1, p2, n, windows)
    return {f"ilp_w{w}": n / cycles[w] for w in windows}


def measure_ilp_reference(
    trace: Trace,
    *,
    sample_instructions: int = 2_000,
    windows: Sequence[int] = WINDOW_SIZES,
) -> Dict[str, float]:
    """Reference ILP meter: one sequential block walk per window size."""
    if len(trace) == 0:
        raise ValueError("cannot characterize an empty trace")
    sample = trace if len(trace) <= sample_instructions else trace.slice(0, sample_instructions)
    p1_arr, p2_arr = producer_indices_reference(sample)
    p1 = p1_arr.tolist()
    p2 = p2_arr.tolist()
    n = len(sample)
    out: Dict[str, float] = {}
    for w in windows:
        total_cycles = 0
        start = 0
        while start < n:
            stop = min(start + w, n)
            # Dataflow depth of the block: depth[i] = 1 + max(depth of
            # in-block producers).  Producers outside the block are ready.
            depth = [1] * (stop - start)
            block_max = 1
            for i in range(start, stop):
                d = 1
                a = p1[i]
                if a >= start:
                    da = depth[a - start] + 1
                    if da > d:
                        d = da
                b = p2[i]
                if b >= start:
                    db = depth[b - start] + 1
                    if db > d:
                        d = db
                depth[i - start] = d
                if d > block_max:
                    block_max = d
            total_cycles += block_max
            start = stop
        out[f"ilp_w{w}"] = n / total_cycles
    return out

