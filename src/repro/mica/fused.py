"""Fused whole-trace metering: many intervals, one vectorized pass.

This is the one MICA implementation.  It measures the six meters over a
*batch* of intervals: the interval traces are concatenated into one
whole trace, every shared fact (op counts, producer matching, per-kind
streams, branch histories) is computed **once** for the whole trace,
and interval boundaries are applied afterwards as segment reductions —
``np.bincount`` over interval ids, ``np.add.reduceat`` /
``np.maximum.reduceat`` over boundary indices, and boundary-crossing
masks on difference streams — instead of a Python loop per interval.
A one-interval batch is the per-interval case.

**Bit-identity contract.**  For every interval, the fused pass produces
exactly the vector the sequential per-interval oracle
(``tests/mica/oracle.py``) produces — bit for bit, pinned by
``tests/mica/test_fused.py`` (hypothesis equivalence on random interval
batches, one real interval per suite at the paper preset) and the
frozen golden vectors.  Per-interval semantics are preserved by
construction:

* *Producer matching* runs once over the whole trace with the interval
  id in every sort key, so a read only ever matches an earlier write of
  its own interval — exactly what matching within the interval finds.
* *Difference streams* (global strides, local strides, branch
  transitions) mask out pairs that straddle an interval boundary.
* *Branch histories* (global and per-address) zero every history bit
  contributed by an earlier interval, mirroring the fresh predictor
  state each interval starts with.
* *PPM tables* are segmented by tagging the interval id into the
  context key, so one grouped scan evolves every interval's private
  saturating counters at once.
* All per-interval scalars (fractions, rates, IPC) divide the same
  integers by the same integers the oracle divides, so the resulting
  floats are identical — not merely close.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import AnalysisConfig
from ..isa import NO_REG, N_OP_CLASSES, N_REGISTERS, OpClass, Trace, concat, is_memory_op
from ..obs import active as obs_active
from ..obs import metrics
from .features import (
    DEP_DISTANCE_BUCKETS,
    FEATURE_INDEX,
    GLOBAL_BUCKETS,
    LOCAL_BUCKETS,
    N_FEATURES,
    ORGANIZATIONS,
    REPORTED_LENGTHS,
    WINDOW_SIZES,
)
from .ppm import (
    _HISTORY_BITS,
    _LENGTH_BITS,
    _event_bits,
    context_keys,
    local_histories,
    ppm_misses,
)

#: Soft cap on the instructions concatenated into one fused batch; the
#: dataset builder slices its interval picks into batches of at most
#: this many instructions.  Measured on real intervals (1.5M
#: instructions per size, best of 3, 2-vCPU Xeon; repeat sweeps moved
#: by up to ~20%), fused over per-interval CPU time at 20k/30k/50k/
#: 60k/125k batches: 5.3/6.6/6.8/6.7/4.4x at 500-instruction intervals,
#: 1.5/1.5/1.4/1.7/1.6x at 4,000 and 1.2/1.3/1.3/1.1/1.3x at 10,000.
#: 50k is best or within noise at every size, holds one small-preset
#: benchmark (12 x 4,000) per batch, and keeps a batch's temporaries
#: near 8 MB (16-22 MB at 125k, which shows in the paper preset's
#: peak RSS).
FUSED_BATCH_INSTRUCTIONS = 50_000


def batch_slices(n_intervals: int, interval_instructions: int) -> List[slice]:
    """Slices partitioning ``n_intervals`` into fused batches.

    Each batch covers at most :data:`FUSED_BATCH_INSTRUCTIONS`
    instructions (always at least one interval).  Batching cannot
    change results — intervals are measured independently either way —
    it only bounds the concatenated working set.
    """
    if n_intervals <= 0:
        return []
    per_batch = max(1, FUSED_BATCH_INSTRUCTIONS // max(1, interval_instructions))
    return [
        slice(start, min(start + per_batch, n_intervals))
        for start in range(0, n_intervals, per_batch)
    ]


def characterize_intervals(
    traces: Sequence[Trace], config: AnalysisConfig
) -> np.ndarray:
    """Measure the 69 characteristics for every interval in one pass.

    Args:
        traces: the interval traces (need not be equal length; each must
            be non-empty).
        config: supplies the ILP/PPM subsample sizes.

    Returns:
        A ``(len(traces), 69)`` float64 matrix whose row ``i`` depends
        on ``traces[i]`` alone: ``characterize_intervals([t], config)[0]``
        measures one interval.
    """
    if len(traces) == 0:
        return np.empty((0, N_FEATURES), dtype=np.float64)
    return _characterize_fused(traces, config)


class _SectionTimer:
    """Accumulates per-meter wall time into the shared meter counters.

    Keys are ``mica.meter.<name>.seconds``, one per meter.  Inert (no
    clock reads) when no observation is active.
    """

    def __init__(self, n_intervals: int) -> None:
        self.active = obs_active()
        self.n_intervals = n_intervals
        self.updates: List[Tuple[str, float]] = []
        self._t0 = time.perf_counter() if self.active else 0.0

    def lap(self, name: str) -> None:
        if not self.active:
            return
        now = time.perf_counter()
        self.updates.append((f"mica.meter.{name}.seconds", now - self._t0))
        self._t0 = now

    def flush(self) -> None:
        if not self.active:
            return
        self.updates.append(("mica.intervals", float(self.n_intervals)))
        self.updates.append(("mica.fused_batches", 1.0))
        metrics().counter_add_many(self.updates)


def _characterize_fused(
    traces: Sequence[Trace], config: AnalysisConfig
) -> np.ndarray:
    lengths = np.array([len(t) for t in traces], dtype=np.int64)
    if (lengths == 0).any():
        raise ValueError("cannot characterize an empty trace")
    m = len(traces)
    trace = traces[0] if m == 1 else concat(traces)
    starts = np.zeros(m, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    iv = np.repeat(np.arange(m, dtype=np.int64), lengths)

    columns: Dict[str, np.ndarray] = {}
    timer = _SectionTimer(m)

    # Shared whole-trace facts.
    op = trace.op
    mem_mask = is_memory_op(op)
    branch_mask = op == OpClass.BRANCH

    # --- instruction mix ---------------------------------------------
    op_counts = np.bincount(
        iv * N_OP_CLASSES + op.astype(np.int64), minlength=m * N_OP_CLASSES
    ).reshape(m, N_OP_CLASSES)
    _mix_columns(columns, op_counts, lengths)
    timer.lap("instruction_mix")

    # --- ILP (leading subsample per interval) ------------------------
    p1, p2 = match_producers(trace, iv)
    _ilp_columns(
        columns, p1, p2, starts, lengths, config.ilp_sample_instructions
    )
    timer.lap("ilp")

    # --- register traffic --------------------------------------------
    _register_columns(columns, trace, p1, p2, iv, starts, lengths)
    timer.lap("register_traffic")

    # --- memory footprint --------------------------------------------
    mem_iv = iv[mem_mask]
    mem_addrs = trace.addr[mem_mask]
    for stream, iv_sub, values in (
        ("instr", iv, trace.pc),
        ("data", mem_iv, mem_addrs),
    ):
        # One sort serves both granularities: within a (interval,
        # address-sorted) run, addr >> 6 and addr >> 12 are both
        # non-decreasing, so unique blocks and pages are boundary counts
        # of the same ordering.
        iv_sorted, v_sorted = _sorted_by_interval(iv_sub, values, m)
        for label, shift in (("64b", 6), ("4k", 12)):
            columns[f"foot_{stream}_{label}"] = _log_unique_sorted(
                iv_sorted, v_sorted >> shift, m
            )
    timer.lap("footprint")

    # --- data stream strides -----------------------------------------
    for kind, opc in (("l", OpClass.LOAD), ("s", OpClass.STORE)):
        mask = op == opc
        _stride_columns(
            columns, kind, iv[mask], trace.addr[mask], trace.pc[mask], m
        )
    timer.lap("strides")

    # --- branch predictability ---------------------------------------
    _branch_columns(
        columns,
        iv[branch_mask],
        trace.pc[branch_mask],
        trace.taken[branch_mask],
        m,
        config.ppm_sample_branches,
    )
    timer.lap("branch")

    matrix = np.empty((m, N_FEATURES), dtype=np.float64)
    for name, col in columns.items():
        matrix[:, FEATURE_INDEX[name]] = col
    if len(columns) != N_FEATURES:
        raise AssertionError("fused pass produced wrong feature count")
    timer.flush()
    return matrix


# ----------------------------------------------------------------------
# instruction mix


def _mix_columns(
    columns: Dict[str, np.ndarray], op_counts: np.ndarray, lengths: np.ndarray
) -> None:
    frac = op_counts / lengths[:, None]

    def f(opc: OpClass) -> np.ndarray:
        return frac[:, int(opc)]

    # Sums associate left-to-right exactly as the oracle's
    # scalar additions do, so every column is bit-identical.
    int_arith = (
        f(OpClass.IADD) + f(OpClass.IMUL) + f(OpClass.IDIV)
        + f(OpClass.SHIFT) + f(OpClass.LOGIC)
    )
    fp_arith = f(OpClass.FADD) + f(OpClass.FMUL) + f(OpClass.FDIV) + f(OpClass.FSQRT)
    columns.update(
        {
            "mix_mem_read": f(OpClass.LOAD),
            "mix_mem_write": f(OpClass.STORE),
            "mix_mem": f(OpClass.LOAD) + f(OpClass.STORE),
            "mix_branch": f(OpClass.BRANCH),
            "mix_call": f(OpClass.CALL),
            "mix_int_add": f(OpClass.IADD),
            "mix_int_mul": f(OpClass.IMUL),
            "mix_int_div": f(OpClass.IDIV),
            "mix_shift": f(OpClass.SHIFT),
            "mix_logic": f(OpClass.LOGIC),
            "mix_int_arith": int_arith,
            "mix_fp_add": f(OpClass.FADD),
            "mix_fp_mul": f(OpClass.FMUL),
            "mix_fp_div": f(OpClass.FDIV),
            "mix_fp_sqrt": f(OpClass.FSQRT),
            "mix_fp_arith": fp_arith,
            "mix_cmov": f(OpClass.CMOV),
            "mix_other": f(OpClass.OTHER),
            "mix_mul": f(OpClass.IMUL) + f(OpClass.FMUL),
            "mix_div": f(OpClass.IDIV) + f(OpClass.FDIV),
        }
    )


# ----------------------------------------------------------------------
# producer matching (shared by ILP and register traffic)


def match_producers(
    trace: Trace, iv: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """For each instruction, the trace index that produced each source.

    Args:
        trace: one interval, or several concatenated.
        iv: for a concatenation, the non-decreasing interval id of each
            instruction; producers never cross an interval boundary.

    Returns two int64 arrays ``(p1, p2)`` parallel to the trace; entry
    ``-1`` means the source operand is absent or its producing write
    precedes the interval.

    Producers of instruction ``i`` always satisfy ``p < i``, so the
    arrays for any prefix ``trace[:m]`` are exactly ``p1[:m], p2[:m]``
    — which is what lets one full-interval matching serve both the
    register-traffic meter (whole interval) and the ILP meter (leading
    subsample).

    The matching is one sort: every register read and write becomes a
    composite ``(interval, register, position, slot)`` integer key,
    where a read's slot tag sorts before a write at the same position.
    After ``np.sort``, a running maximum over the write keys carries
    each register's latest write forward, so a read's producer is the
    carried write whenever the two keys share their ``(interval,
    register)`` prefix.
    """
    n = len(trace)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pos_bits = max(1, int(n - 1).bit_length())
    iv_bits = 0 if iv is None else max(1, int(iv[-1]).bit_length())
    # Key layout, low to high: slot tag (2 bits: src1 0, src2 1, dst 2,
    # absent dst 3 — never a write), position, register, interval.  An
    # absent source masks to the top register; its match is discarded
    # below.  int32 keys whenever they fit halve the bytes sorted.
    reg_shift = pos_bits + 2
    iv_shift = reg_shift + (N_REGISTERS - 1).bit_length()
    dtype = np.int32 if iv_shift + iv_bits <= 31 else np.int64
    base = np.arange(n, dtype=dtype) << 2
    if iv is not None:
        base |= iv.astype(dtype) << iv_shift
    keys = np.empty(3 * n, dtype=dtype)
    for slot, regs in enumerate((trace.src1, trace.src2, trace.dst)):
        part = keys[slot * n:(slot + 1) * n]
        np.bitwise_and(regs, N_REGISTERS - 1, out=part, casting="unsafe")
        part <<= reg_shift
        part |= base
        part |= slot
    np.bitwise_or(keys[2 * n:], trace.dst == NO_REG, out=keys[2 * n:])
    keys.sort()
    # (flags.view(int8) - 1) is 0 where a flag is set and -1 (all ones)
    # where not, so OR-ing it in sets every unflagged entry to -1 — a
    # cheaper np.where(flags, x, -1).
    is_write = (keys & 3) == 2
    last_write = keys | (is_write.view(np.int8) - np.int8(1))
    np.maximum.accumulate(last_write, out=last_write)
    # Same (interval, register) prefix: the XOR has no bit at or above
    # reg_shift (a -1 carry XORs to a huge unsigned value).
    unsigned = np.uint32 if dtype is np.int32 else np.uint64
    same = (last_write ^ keys).view(unsigned) < (1 << reg_shift)
    # A key's low bits, position << 2 | slot, index a (position, slot)
    # table directly; entries hold the producing write's low bits, or
    # -1, which the final >> 2 keeps at -1.  The dst slots' entries and
    # the absent sources' matches are discarded.
    low_mask = dtype((1 << reg_shift) - 1)
    found = (last_write & low_mask) | (same.view(np.int8) - np.int8(1))
    index = keys.astype(np.intp)
    index &= low_mask
    producers = np.empty(4 * n, dtype=dtype)
    producers[index] = found
    return (
        np.where(trace.src1 != NO_REG, producers[0::4] >> 2, np.int64(-1)),
        np.where(trace.src2 != NO_REG, producers[1::4] >> 2, np.int64(-1)),
    )


# ----------------------------------------------------------------------
# ILP


def _ilp_columns(
    columns: Dict[str, np.ndarray],
    p1: np.ndarray,
    p2: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    sample_instructions: int,
) -> None:
    """Idealized IPC per window, all intervals and windows in one sweep.

    The model fills a W-instruction window, issues it in dataflow order
    (perfect caches and branch prediction, unit latency), then refills:
    ``IPC_W = N / sum(block depths)`` over each interval's leading
    ``sample_instructions``, where a block's depth is its register-
    dependence critical path ``depth(i) = 1 + max(depth of in-block
    producers)``.

    Stacks every (interval, window) pair's producer graph into a single
    flat array (one shared depth-0 sentinel for absent/out-of-block
    producers) and iterates the recurrence Jacobi-style to its fixpoint.
    Block depth is a monotone function on a DAG, so the fixpoint is
    unique, is reached within the longest in-block critical path, and
    equals the sequential walk's result.  Block maxima and per-interval
    cycle totals come from ``reduceat`` segment reductions over the
    concatenated samples.  Producers of a prefix are a prefix of the
    producers, so the full-interval matching serves the subsample.
    """
    m = len(lengths)
    s = np.minimum(lengths, sample_instructions)
    sbase = np.zeros(m, dtype=np.int64)
    np.cumsum(s[:-1], out=sbase[1:])
    S = int(s.sum())
    iv_s = np.repeat(np.arange(m, dtype=np.int64), s)
    start_s = starts[iv_s]
    rel_s = np.arange(S, dtype=np.int64) - sbase[iv_s]
    sample = start_s + rel_s
    # Producer positions relative to the interval; -1 (absent) maps to
    # any negative value and is caught by the in-block test below.
    r1 = p1[sample] - start_s
    r2 = p2[sample] - start_s
    windows = WINDOW_SIZES
    n_windows = len(windows)
    sentinel = n_windows * S
    flat = np.empty((2, n_windows * S), dtype=np.int64)
    slot_base = sbase[iv_s]
    for row, w in enumerate(windows):
        block_start = (rel_s // w) * w
        base = row * S
        for slot, r in enumerate((r1, r2)):
            flat[slot, base:base + S] = np.where(
                r >= block_start, base + slot_base + r, sentinel
            )
    # Depths are at most the largest window, so int16; one take gathers
    # both producers, and the two depth buffers swap each sweep.
    depth = np.ones(sentinel + 1, dtype=np.int16)
    depth[sentinel] = 0
    nxt = depth.copy()
    gathered = np.empty((2, sentinel), dtype=np.int16)
    while True:
        depth.take(flat, out=gathered, mode="clip")
        np.maximum(gathered[0], gathered[1], out=nxt[:sentinel])
        nxt[:sentinel] += 1
        if np.array_equal(nxt, depth):
            break
        depth, nxt = nxt, depth
    per_window = depth[:sentinel].reshape(n_windows, S)
    for row, w in enumerate(windows):
        nb = -(-s // w)  # ceil-div: blocks per interval
        cum = np.zeros(m, dtype=np.int64)
        np.cumsum(nb[:-1], out=cum[1:])
        within = np.arange(int(nb.sum()), dtype=np.int64) - np.repeat(cum, nb)
        boundaries = np.repeat(sbase, nb) + within * w
        block_max = np.maximum.reduceat(per_window[row], boundaries)
        cycles = np.add.reduceat(block_max.astype(np.int64), cum)
        columns[f"ilp_w{w}"] = s / cycles


# ----------------------------------------------------------------------
# register traffic


def _register_columns(
    columns: Dict[str, np.ndarray],
    trace: Trace,
    p1: np.ndarray,
    p2: np.ndarray,
    iv: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
) -> None:
    # Per-interval operand counts are segment sums over the interval
    # starts (every interval is non-empty) — no gather per interval.
    def per_interval(flags: np.ndarray) -> np.ndarray:
        return np.add.reduceat(flags, starts, dtype=np.int64)

    m = len(lengths)
    n_inputs = per_interval(trace.src1 != NO_REG) + per_interval(
        trace.src2 != NO_REG
    )
    n_writes = per_interval(trace.dst != NO_REG)
    # One (interval, clipped distance) histogram per source slot: bin 0
    # collects the unmatched reads (distances are >= 1, producers
    # strictly precede readers), anything past the last bucket clips to
    # one overflow bin, and count(1 <= d <= b) for every bucket reads
    # straight out of the cumulative histogram.  Exact integer counts.
    top = DEP_DISTANCE_BUCKETS[-1] + 1
    offsets = iv * (top + 1)
    positions = np.arange(len(iv), dtype=np.int64)
    hist = np.zeros(m * (top + 1), dtype=np.int64)
    for p in (p1, p2):
        bins = positions - p
        np.minimum(bins, top, out=bins)
        bins *= p >= 0
        bins += offsets
        hist += np.bincount(bins, minlength=m * (top + 1))
    hist = hist.reshape(m, top + 1)
    hist[:, 0] = 0
    cum = np.cumsum(hist, axis=1)
    n_matched = cum[:, -1]
    columns["reg_avg_input_operands"] = n_inputs / lengths
    degree = np.zeros(m, dtype=np.float64)
    np.divide(n_matched, n_writes, out=degree, where=n_writes > 0)
    columns["reg_avg_degree_use"] = degree
    _fraction_columns(
        columns,
        "reg_dep",
        DEP_DISTANCE_BUCKETS,
        cum[:, list(DEP_DISTANCE_BUCKETS)],
        n_matched,
    )


# ----------------------------------------------------------------------
# memory footprint


def _sorted_by_interval(
    iv_sub: np.ndarray, values: np.ndarray, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(iv, value)``-sorted copies of two parallel streams.

    Prefers one ``np.sort`` of ``(iv << bits) | value`` composites over
    ``np.lexsort`` (two stable argsort passes plus gathers); falls back
    to the lexsort when the composite would not fit 63 bits.  Order is
    identical either way, and no permutation is materialized.
    """
    if len(values) == 0:
        return iv_sub, values
    iv_bits = max(1, int(m - 1).bit_length())
    v_bits = max(1, int(values.max()).bit_length()) if len(values) else 1
    if int(values.min()) >= 0 and iv_bits + v_bits <= 63:
        comp = (iv_sub << v_bits) | values
        comp.sort()
        return comp >> v_bits, comp & ((np.int64(1) << v_bits) - 1)
    order = np.lexsort((values, iv_sub))
    return iv_sub[order], values[order]


def _stable_order_by_interval(
    iv_sub: np.ndarray, values: np.ndarray, m: int
) -> np.ndarray:
    """Permutation sorting by ``(iv, value)``, program order on ties.

    Equivalent to ``np.lexsort((values, iv_sub))`` — and to the
    oracle's stable ``argsort`` within each interval — but
    computed from one sort of ``(iv, value, position)`` composites when
    they fit 63 bits.
    """
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if int(values.min()) >= 0:
        iv_bits = max(1, int(m - 1).bit_length())
        v_bits = max(1, int(values.max()).bit_length())
        p_bits = max(1, int(n - 1).bit_length())
        if iv_bits + v_bits + p_bits <= 63:
            comp = ((iv_sub << v_bits) | values) << p_bits
            comp |= np.arange(n, dtype=np.int64)
            comp.sort()
            return comp & ((np.int64(1) << p_bits) - 1)
    return np.lexsort((values, iv_sub))


def _log_unique_sorted(ivs: np.ndarray, vs: np.ndarray, m: int) -> np.ndarray:
    """``log2(1 + |unique values|)`` per interval from pre-sorted streams."""
    counts = np.zeros(m, dtype=np.int64)
    if len(vs):
        new = np.empty(len(vs), dtype=bool)
        new[0] = True
        new[1:] = (ivs[1:] != ivs[:-1]) | (vs[1:] != vs[:-1])
        counts = np.bincount(ivs[new], minlength=m)
    # math.log2 per interval (not np.log2 over the array): the scalar
    # libm call is what the oracle uses, and the two can
    # round differently in the last bit.
    return np.array([math.log2(1 + int(c)) for c in counts], dtype=np.float64)


# ----------------------------------------------------------------------
# data stream strides


def _stride_columns(
    columns: Dict[str, np.ndarray],
    kind: str,
    iv_k: np.ndarray,
    addr: np.ndarray,
    pc: np.ndarray,
    m: int,
) -> None:
    # Global strides: consecutive same-kind accesses, minus the pairs
    # that straddle an interval boundary.
    if len(addr) >= 2:
        diffs = np.abs(np.diff(addr))
        same_iv = iv_k[1:] == iv_k[:-1]
        g_d = diffs[same_iv]
        g_iv = iv_k[1:][same_iv]
    else:
        g_d = np.empty(0, dtype=np.int64)
        g_iv = np.empty(0, dtype=np.int64)
    _cumulative_columns(columns, f"stride_g{kind}", GLOBAL_BUCKETS, g_iv, g_d, m)

    # Local strides: consecutive accesses by the same static instruction
    # within the same interval, in program order within each (interval,
    # pc) group — the same order the oracle's stable
    # argsort produces.
    if len(addr) >= 2:
        order = _stable_order_by_interval(iv_k, pc, m)
        iv_sorted = iv_k[order]
        pc_sorted = pc[order]
        addr_sorted = addr[order]
        diffs = np.abs(np.diff(addr_sorted))
        same = (iv_sorted[1:] == iv_sorted[:-1]) & (pc_sorted[1:] == pc_sorted[:-1])
        l_d = diffs[same]
        l_iv = iv_sorted[1:][same]
    else:
        l_d = np.empty(0, dtype=np.int64)
        l_iv = np.empty(0, dtype=np.int64)
    _cumulative_columns(columns, f"stride_l{kind}", LOCAL_BUCKETS, l_iv, l_d, m)


def _cumulative_columns(
    columns: Dict[str, np.ndarray],
    prefix: str,
    buckets: Sequence[int],
    stride_iv: np.ndarray,
    strides: np.ndarray,
    m: int,
) -> None:
    # One (interval, bucket) histogram instead of a masked bincount per
    # bucket: searchsorted gives each stride the first bucket that holds
    # it (len(buckets) past the last), so the row-wise cumulative counts
    # are count(stride <= b) for every bucket — exact integers.
    width = len(buckets) + 1
    bins = np.searchsorted(np.asarray(buckets), strides)
    bins += stride_iv * width
    cum = np.cumsum(
        np.bincount(bins, minlength=m * width).reshape(m, width), axis=1
    )
    _fraction_columns(columns, prefix, buckets, cum[:, :-1], cum[:, -1])


def _fraction_columns(
    columns: Dict[str, np.ndarray],
    prefix: str,
    buckets: Sequence[int],
    counts: np.ndarray,
    totals: np.ndarray,
) -> None:
    """``{prefix}_le{b}`` columns: ``counts[:, k] / totals``, 0 where empty."""
    frac = np.zeros(counts.shape, dtype=np.float64)
    np.divide(counts, totals[:, None], out=frac, where=totals[:, None] > 0)
    for k, b in enumerate(buckets):
        columns[f"{prefix}_le{b}"] = frac[:, k]


# ----------------------------------------------------------------------
# branch predictability


def _branch_columns(
    columns: Dict[str, np.ndarray],
    iv_b: np.ndarray,
    pcs: np.ndarray,
    outcomes: np.ndarray,
    m: int,
    sample_branches: int,
) -> None:
    n_br = np.bincount(iv_b, minlength=m)
    taken_counts = np.bincount(iv_b[outcomes], minlength=m)
    taken_rate = np.zeros(m, dtype=np.float64)
    np.divide(taken_counts, n_br, out=taken_rate, where=n_br > 0)
    columns["br_taken_rate"] = taken_rate

    # Transition rate: same-PC adjacent outcome flips, per interval.
    if len(pcs) >= 2:
        order = _stable_order_by_interval(iv_b, pcs, m)
        iv_sorted = iv_b[order]
        pc_sorted = pcs[order]
        out_sorted = outcomes[order]
        same = (iv_sorted[1:] == iv_sorted[:-1]) & (pc_sorted[1:] == pc_sorted[:-1])
        changed = out_sorted[1:] != out_sorted[:-1]
        pairs = np.bincount(iv_sorted[1:][same], minlength=m)
        flips = np.bincount(iv_sorted[1:][same & changed], minlength=m)
    else:
        pairs = np.zeros(m, dtype=np.int64)
        flips = np.zeros(m, dtype=np.int64)
    transition = np.zeros(m, dtype=np.float64)
    np.divide(flips, pairs, out=transition, where=pairs > 0)
    columns["br_transition_rate"] = transition

    # PPM on the leading sample_branches of each interval.
    rank = np.arange(len(iv_b), dtype=np.int64)
    if len(iv_b):
        first = np.zeros(m, dtype=np.int64)
        # first occurrence index of each interval in the branch stream
        # (branches of an interval are contiguous).
        boundaries = np.empty(len(iv_b), dtype=bool)
        boundaries[0] = True
        boundaries[1:] = iv_b[1:] != iv_b[:-1]
        first[iv_b[boundaries]] = rank[boundaries]
        sel = (rank - first[iv_b]) < sample_branches
    else:
        sel = np.empty(0, dtype=bool)
    miss = _fused_ppm(iv_b[sel], pcs[sel], outcomes[sel], m)
    columns.update(miss)


def _empty_ppm_columns(m: int) -> Dict[str, np.ndarray]:
    return {
        f"ppm_{kind}_h{length}": np.zeros(m, dtype=np.float64)
        for kind in ORGANIZATIONS
        for length in REPORTED_LENGTHS
    }


def _fused_ppm(
    iv_b: np.ndarray, pcs: np.ndarray, outcomes: np.ndarray, m: int
) -> Dict[str, np.ndarray]:
    """All intervals' PPM miss rates from one grouped-scan kernel run.

    The interval id is tagged into every context key
    (:func:`repro.mica.ppm.context_keys`), so one sort and one
    segmented clamped-affine counter scan (:func:`repro.mica.ppm.ppm_misses`)
    evolve every interval's private tables at once; per-interval miss
    counts then fall out of running totals.
    """
    n = len(pcs)
    if n == 0:
        return _empty_ppm_columns(m)

    # Interval bounds in the (interval-ordered) branch stream, and the
    # per-interval sample sizes (denominators of the miss rates).
    bounds = np.searchsorted(iv_b, np.arange(m + 1))
    nb = np.diff(bounds)

    # Per-(interval, pc) group ids; within an interval these equal the
    # per-interval ``np.unique(..., return_inverse=True)`` ids.
    order = _stable_order_by_interval(iv_b, pcs, m)
    iv_sorted = iv_b[order]
    pc_sorted = pcs[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = (iv_sorted[1:] != iv_sorted[:-1]) | (pc_sorted[1:] != pc_sorted[:-1])
    gid_sorted = np.cumsum(new_group) - 1
    gid = np.empty(n, dtype=np.int64)
    gid[order] = gid_sorted
    new_iv = np.empty(n, dtype=bool)
    new_iv[0] = True
    new_iv[1:] = iv_sorted[1:] != iv_sorted[:-1]
    base_gid = np.zeros(m, dtype=np.int64)
    base_gid[iv_sorted[new_iv]] = gid_sorted[new_iv]
    pc_local = gid - base_gid[iv_b]

    g_hist = _segmented_global_histories(outcomes, iv_b)
    l_hist = local_histories(gid, outcomes)

    iv_bits = max(1, int(m - 1).bit_length())
    pcl_bits = max(1, int(max(int(nb.max()) - 1, 1)).bit_length())
    key_bits = 2 + iv_bits + pcl_bits + _LENGTH_BITS + _HISTORY_BITS
    if key_bits + _event_bits(n) > 63:
        # Composite keys would overflow int64: run the intervals one at
        # a time (identical results, just less fusion).  One interval
        # always fits: AnalysisConfig caps ppm_sample_branches at 2**20,
        # where its keys take 2 + 1 + 20 + 3 + 12 = 38 bits and its
        # event indices 25.
        if m == 1:
            raise OverflowError("PPM context keys overflow int64")
        return _per_interval_ppm(iv_b, pcs, outcomes, m)

    pc_part = pc_local << (_LENGTH_BITS + _HISTORY_BITS)
    iv_shift = pcl_bits + _LENGTH_BITS + _HISTORY_BITS
    keys = context_keys(
        g_hist, l_hist, iv_b << iv_shift, pc_part, iv_bits + iv_shift
    )
    misses = ppm_misses(keys, outcomes)
    # Per-interval miss counts: differences of running totals.
    running = np.zeros((len(misses), 4, n + 1), dtype=np.int64)
    np.cumsum(np.stack(list(misses.values())), axis=2, out=running[:, :, 1:])
    counts = running[:, :, bounds[1:]] - running[:, :, bounds[:-1]]
    rates = np.zeros(counts.shape, dtype=np.float64)
    np.divide(counts, nb, out=rates, where=nb > 0)
    return {
        f"ppm_{kind}_h{maxlen}": rates[i, org]
        for i, maxlen in enumerate(misses)
        for org, kind in enumerate(ORGANIZATIONS)
    }


def _per_interval_ppm(
    iv_b: np.ndarray, pcs: np.ndarray, outcomes: np.ndarray, m: int
) -> Dict[str, np.ndarray]:
    """Key-overflow fallback: one single-interval PPM run per interval."""
    out = _empty_ppm_columns(m)
    bounds = np.searchsorted(iv_b, np.arange(m + 1))
    for j in range(m):
        lo, hi = bounds[j], bounds[j + 1]
        rates = _fused_ppm(
            np.zeros(hi - lo, dtype=np.int64), pcs[lo:hi], outcomes[lo:hi], 1
        )
        for name, col in rates.items():
            out[name][j] = col[0]
    return out


def _segmented_global_histories(outcomes: np.ndarray, iv_b: np.ndarray) -> np.ndarray:
    """Per-interval 12-bit global history before each branch.

    Bit ``k`` of ``history[i]`` is the outcome of branch ``i - 1 - k``
    when that branch belongs to the same interval — each interval's
    predictor starts with empty history.
    """
    n = len(outcomes)
    hist = np.zeros(n, dtype=np.int64)
    bits = outcomes.astype(np.int64)
    for k in range(_HISTORY_BITS):
        if k + 1 >= n:
            break
        same = iv_b[k + 1:] == iv_b[: n - k - 1]
        hist[k + 1:] |= np.where(same, bits[: n - k - 1] << k, 0)
    return hist
