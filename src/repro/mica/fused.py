"""Fused whole-trace metering: many intervals, one vectorized pass.

This is the one MICA implementation.  It measures the six meters over a
*batch* of intervals: the interval traces lie back to back in one
whole trace (a :class:`~repro.mica.workspace.TraceBatch`, synthesized in
place, or else their concatenation), every shared fact (op counts,
producer matching, per-kind streams, branch histories) is computed
**once** for the whole trace, and interval boundaries are applied
afterwards as segment reductions — ``np.bincount`` over interval ids,
``np.add.reduceat`` / ``np.maximum.reduceat`` over boundary indices, and
boundary-crossing masks on difference streams — instead of a Python
loop per interval.  A one-interval batch is the per-interval case.  The
large temporaries come from the batch's workspace arena, one frame per
section, so a featurizing thread reuses the same memory batch after
batch.

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
from ..isa import NO_REG, N_OP_CLASSES, N_REGISTERS, OpClass, Trace, concat
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
from .workspace import TraceBatch, Workspace

#: Soft cap on the instructions in one fused batch; the dataset builder
#: slices its interval picks into batches of at most this many
#: instructions, and a featurizing thread's workspace grows to one
#: such batch.  Re-measured with synthesis into a reused workspace (no
#: page faults in the steady state), real round-robin intervals, 1.5M
#: instructions per cell, best of 3, two sweeps on a 2-vCPU Xeon:
#: million instructions per CPU second at 20k/30k/50k/60k/125k batches
#: were 1.2-1.5/1.1-1.3/1.1-1.4/1.1-1.2/1.1 at 500-instruction
#: intervals, 2.1-2.2/2.3-2.4/2.3-2.4/2.3-2.4/2.4 at 4,000 and
#: 2.3-2.5/2.4-2.8/2.3-3.0/2.6-3.1/2.6-2.7 at 10,000.  From 30k up the
#: sizes are within the sweeps' noise; 50k holds one small-preset
#: benchmark (12 x 4,000) per batch and a 6.9 MB workspace (17-24 MB
#: at 125k).
FUSED_BATCH_INSTRUCTIONS = 50_000


def batch_slices(n_intervals: int, interval_instructions: int) -> List[slice]:
    """Slices partitioning ``n_intervals`` into fused batches.

    Each batch covers at most :data:`FUSED_BATCH_INSTRUCTIONS`
    instructions (always at least one interval).  Batching cannot
    change results — intervals are measured independently either way —
    it only bounds the batch's working set.
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
            be non-empty).  A :class:`~repro.mica.workspace.TraceBatch`
            is read in place and its workspace serves the pass's
            temporaries; any other sequence is concatenated first.
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
    if isinstance(traces, TraceBatch):
        lengths = traces.lengths
        if (lengths == 0).any():
            raise ValueError("cannot characterize an empty trace")
        trace, ws = traces.whole, traces.workspace
    else:
        lengths = np.array([len(t) for t in traces], dtype=np.int64)
        if (lengths == 0).any():
            raise ValueError("cannot characterize an empty trace")
        trace = traces[0] if len(traces) == 1 else concat(traces)
        ws = Workspace()
    with ws.frame():
        return _fused_pass(trace, lengths, config, ws)


def _fused_pass(
    trace: Trace, lengths: np.ndarray, config: AnalysisConfig, ws: Workspace
) -> np.ndarray:
    """The six meters over one whole trace of ``len(lengths)`` intervals.

    Every section takes its large temporaries from ``ws`` inside its own
    frame, so the sections share one arena.
    """
    m = len(lengths)
    n = len(trace)
    starts = np.zeros(m, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    iv = ws.empty(n, np.int64)  # interval id per instruction
    for j in range(m):
        iv[starts[j]:starts[j] + lengths[j]] = j

    columns: Dict[str, np.ndarray] = {}
    timer = _SectionTimer(m)

    # Shared whole-trace facts.
    op = trace.op
    mem_mask = ws.empty(n, bool)
    branch_mask = ws.empty(n, bool)
    np.equal(op, OpClass.LOAD, out=mem_mask)
    np.equal(op, OpClass.STORE, out=branch_mask)
    mem_mask |= branch_mask
    np.equal(op, OpClass.BRANCH, out=branch_mask)

    # --- instruction mix ---------------------------------------------
    with ws.frame():
        key = ws.empty(n, np.int64)
        np.multiply(iv, N_OP_CLASSES, out=key)
        key += op
        op_counts = np.bincount(key, minlength=m * N_OP_CLASSES).reshape(m, N_OP_CLASSES)
    _mix_columns(columns, op_counts, lengths)
    timer.lap("instruction_mix")

    with ws.frame():  # the producer arrays serve the next two sections
        p1, p2 = match_producers(trace, iv, ws)

        # --- ILP (leading subsample per interval) --------------------
        with ws.frame():
            _ilp_columns(
                columns, p1, p2, starts, lengths, config.ilp_sample_instructions, ws
            )
        timer.lap("ilp")

        # --- register traffic ----------------------------------------
        with ws.frame():
            _register_columns(columns, trace, p1, p2, iv, starts, lengths, ws)
    timer.lap("register_traffic")

    # --- memory footprint --------------------------------------------
    with ws.frame():
        mem_iv, mem_addrs = _select(mem_mask, ws, iv, trace.addr)
        for stream, iv_sub, values in (
            ("instr", iv, trace.pc),
            ("data", mem_iv, mem_addrs),
        ):
            # One sort serves both granularities: within a (interval,
            # address-sorted) run, addr >> 6 and addr >> 12 are both
            # non-decreasing, so unique blocks and pages are boundary
            # counts of the same ordering.
            with ws.frame():
                iv_sorted, v_sorted = _sorted_by_interval(iv_sub, values, m, ws)
                shifted = ws.empty(len(v_sorted), np.int64)
                for label, shift in (("64b", 6), ("4k", 12)):
                    np.right_shift(v_sorted, shift, out=shifted)
                    columns[f"foot_{stream}_{label}"] = _log_unique_sorted(
                        iv_sorted, shifted, m, ws
                    )
    timer.lap("footprint")

    # --- data stream strides -----------------------------------------
    for kind, opc in (("l", OpClass.LOAD), ("s", OpClass.STORE)):
        with ws.frame():
            mask = ws.empty(n, bool)
            np.equal(op, opc, out=mask)
            _stride_columns(columns, kind, *_select(mask, ws, iv, trace.addr, trace.pc), m, ws)
    timer.lap("strides")

    # --- branch predictability ---------------------------------------
    with ws.frame():
        _branch_columns(
            columns,
            *_select(branch_mask, ws, iv, trace.pc, trace.taken),
            m,
            config.ppm_sample_branches,
            ws,
        )
    timer.lap("branch")

    matrix = np.empty((m, N_FEATURES), dtype=np.float64)
    for name, col in columns.items():
        matrix[:, FEATURE_INDEX[name]] = col
    if len(columns) != N_FEATURES:
        raise AssertionError("fused pass produced wrong feature count")
    timer.flush()
    return matrix


def _gather(index: np.ndarray, ws: Workspace, *columns: np.ndarray) -> List[np.ndarray]:
    """``[column[index] for column in columns]``, written into the workspace.

    Each is one clipped ``take`` ("raise" would buffer the output).
    """
    picked = []
    for column in columns:
        out = ws.empty(len(index), column.dtype)
        np.take(column, index, out=out, mode="clip")
        picked.append(out)
    return picked


def _select(mask: np.ndarray, ws: Workspace, *columns: np.ndarray) -> List[np.ndarray]:
    """``[column[mask] for column in columns]``: one scan of the mask."""
    return _gather(np.flatnonzero(mask), ws, *columns)


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
    trace: Trace, iv: Optional[np.ndarray] = None, ws: Optional[Workspace] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """For each instruction, the trace index that produced each source.

    Args:
        trace: one interval, or several concatenated.
        iv: for a concatenation, the non-decreasing interval id of each
            instruction; producers never cross an interval boundary.
        ws: workspace to take the result and the temporaries from; the
            result then lives until the caller's frame closes.

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
    if ws is None:
        ws = Workspace()
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
    p1 = ws.empty(n, np.int64)
    p2 = ws.empty(n, np.int64)
    with ws.frame():
        keys = ws.empty(3 * n, dtype)
        scratch = ws.empty(3 * n, dtype)
        flags = ws.empty(3 * n, bool)
        base = scratch[:n]
        np.left_shift(ws.positions(n), 2, out=base, casting="unsafe")
        if iv is not None:
            np.left_shift(iv, iv_shift, out=keys[:n], casting="unsafe")
            base |= keys[:n]
        for slot, regs in enumerate((trace.src1, trace.src2, trace.dst)):
            part = keys[slot * n:(slot + 1) * n]
            np.bitwise_and(regs, N_REGISTERS - 1, out=part, casting="unsafe")
            part <<= reg_shift
            part |= base
            part |= slot
        absent = flags[:n]
        np.equal(trace.dst, NO_REG, out=absent)
        np.bitwise_or(keys[2 * n:], absent, out=keys[2 * n:])
        keys.sort()
        # A flag's int8 view minus 1 is 0 where the flag is set and -1
        # (all ones) where not, so OR-ing it in sets every unflagged
        # entry to -1 — a cheaper np.where(flags, x, -1).
        unset = flags.view(np.int8)
        np.bitwise_and(keys, 3, out=scratch)
        np.equal(scratch, 2, out=flags)  # is a write
        unset -= 1
        last_write = ws.empty(3 * n, dtype)
        np.bitwise_or(keys, unset, out=last_write)
        np.maximum.accumulate(last_write, out=last_write)
        # Same (interval, register) prefix: the XOR has no bit at or
        # above reg_shift (a -1 carry XORs to a huge unsigned value).
        unsigned = np.uint32 if dtype is np.int32 else np.uint64
        np.bitwise_xor(last_write, keys, out=scratch)
        np.less(scratch.view(unsigned), 1 << reg_shift, out=flags)
        # A key's low bits, position << 2 | slot, index a (position,
        # slot) table directly; entries hold the producing write's low
        # bits, or -1, which the final >> 2 keeps at -1.  The dst slots'
        # entries and the absent sources' matches are discarded.
        low_mask = dtype((1 << reg_shift) - 1)
        unset -= 1
        found = last_write
        found &= low_mask
        found |= unset
        index = ws.empty(3 * n, np.intp)
        np.bitwise_and(keys, low_mask, out=index, casting="unsafe")
        producers = ws.empty(4 * n, dtype)
        producers[index] = found
        for p, regs, slot in ((p1, trace.src1, 0), (p2, trace.src2, 1)):
            np.right_shift(producers[slot::4], 2, out=p)
            np.equal(regs, NO_REG, out=absent)
            np.copyto(p, -1, where=absent)
    return p1, p2


# ----------------------------------------------------------------------
# ILP


def _ilp_columns(
    columns: Dict[str, np.ndarray],
    p1: np.ndarray,
    p2: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    sample_instructions: int,
    ws: Workspace,
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
    # Per sample instruction: its position in the interval (rel) and,
    # per source, its producer's (r1, r2); -1 (absent) maps to any
    # negative value and is caught by the in-block test below.
    rel = ws.empty(S, np.int64)
    r1 = ws.empty(S, np.int64)
    r2 = ws.empty(S, np.int64)
    for j in range(m):
        lo, hi = sbase[j], sbase[j] + s[j]
        rel[lo:hi] = ws.positions(int(s[j]))
        for r, p in ((r1, p1), (r2, p2)):
            np.subtract(p[starts[j]:starts[j] + s[j]], starts[j], out=r[lo:hi])
    windows = WINDOW_SIZES
    n_windows = len(windows)
    sentinel = n_windows * S
    flat = ws.empty((2, n_windows * S), np.int64)
    block_start = ws.empty(S, np.int64)
    outside = ws.empty(S, bool)
    for row, w in enumerate(windows):
        np.floor_divide(rel, w, out=block_start)
        block_start *= w
        base = row * S
        for slot, r in enumerate((r1, r2)):
            # The producer's flat index, base + (its interval's sample
            # offset, k - rel[k]) + r, or the sentinel when it lies
            # outside the block.
            out = flat[slot, base:base + S]
            np.subtract(ws.positions(S), rel, out=out)
            out += base
            out += r
            np.less(r, block_start, out=outside)
            np.copyto(out, sentinel, where=outside)
    # Depths are at most the largest window, so int16; one take gathers
    # both producers, and the two depth buffers swap each sweep.
    depth = ws.empty(sentinel + 1, np.int16)
    depth.fill(1)
    depth[sentinel] = 0
    nxt = ws.empty(sentinel + 1, np.int16)
    nxt[sentinel] = 0
    gathered = ws.empty((2, sentinel), np.int16)
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
    ws: Workspace,
) -> None:
    # Per-interval operand counts are segment sums over the interval
    # starts (every interval is non-empty) — no gather per interval.
    present = ws.empty(len(iv), bool)

    def per_interval(regs: np.ndarray) -> np.ndarray:
        np.not_equal(regs, NO_REG, out=present)
        return np.add.reduceat(present, starts, dtype=np.int64)

    m = len(lengths)
    n_inputs = per_interval(trace.src1) + per_interval(trace.src2)
    n_writes = per_interval(trace.dst)
    # One (interval, clipped distance) histogram per source slot: bin 0
    # collects the unmatched reads (distances are >= 1, producers
    # strictly precede readers), anything past the last bucket clips to
    # one overflow bin, and count(1 <= d <= b) for every bucket reads
    # straight out of the cumulative histogram.  Exact integer counts.
    top = DEP_DISTANCE_BUCKETS[-1] + 1
    offsets = ws.empty(len(iv), np.int64)
    np.multiply(iv, top + 1, out=offsets)
    bins = ws.empty(len(iv), np.int64)
    hist = np.zeros(m * (top + 1), dtype=np.int64)
    for p in (p1, p2):
        np.subtract(ws.positions(len(iv)), p, out=bins)
        np.minimum(bins, top, out=bins)
        np.greater_equal(p, 0, out=present)
        bins *= present
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
    iv_sub: np.ndarray, values: np.ndarray, m: int, ws: Workspace
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
    v_bits = max(1, int(values.max()).bit_length())
    if int(values.min()) >= 0 and iv_bits + v_bits <= 63:
        comp = ws.empty(len(values), np.int64)
        np.left_shift(iv_sub, v_bits, out=comp)
        comp |= values
        comp.sort()
        ivs = ws.empty(len(values), np.int64)
        vs = ws.empty(len(values), np.int64)
        np.right_shift(comp, v_bits, out=ivs)
        np.bitwise_and(comp, (np.int64(1) << v_bits) - 1, out=vs)
        return ivs, vs
    order = np.lexsort((values, iv_sub))
    return iv_sub[order], values[order]


def _stable_order_by_interval(
    iv_sub: np.ndarray, values: np.ndarray, m: int, ws: Workspace
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
            comp = ws.empty(n, np.int64)
            np.left_shift(iv_sub, v_bits, out=comp)
            comp |= values
            comp <<= p_bits
            comp |= ws.positions(n)
            comp.sort()
            comp &= (np.int64(1) << p_bits) - 1
            return comp
    return np.lexsort((values, iv_sub))


def _starts_of_runs(*keys: np.ndarray, ws: Workspace) -> np.ndarray:
    """True where any of the parallel sorted ``keys`` changes (and at 0)."""
    n = len(keys[0])
    new = ws.empty(n, bool)
    if n:
        new[0] = True
        np.not_equal(keys[0][1:], keys[0][:-1], out=new[1:])
        with ws.frame():
            changed = ws.empty(max(n - 1, 0), bool)
            for key in keys[1:]:
                np.not_equal(key[1:], key[:-1], out=changed)
                new[1:] |= changed
    return new


def _log_unique_sorted(ivs: np.ndarray, vs: np.ndarray, m: int, ws: Workspace) -> np.ndarray:
    """``log2(1 + |unique values|)`` per interval from pre-sorted streams."""
    counts = np.zeros(m, dtype=np.int64)
    if len(vs):
        with ws.frame():
            new = _starts_of_runs(ivs, vs, ws=ws)
            counts = np.bincount(_select(new, ws, ivs)[0], minlength=m)
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
    ws: Workspace,
) -> None:
    # Global strides: consecutive same-kind accesses, minus the pairs
    # that straddle an interval boundary.
    with ws.frame():
        g_iv, g_d = _strides_within(iv_k, None, addr, ws)
        _cumulative_columns(columns, f"stride_g{kind}", GLOBAL_BUCKETS, g_iv, g_d, m)

    # Local strides: consecutive accesses by the same static instruction
    # within the same interval, in program order within each (interval,
    # pc) group — the same order the oracle's stable
    # argsort produces.
    with ws.frame():
        if len(addr) >= 2:
            order = _stable_order_by_interval(iv_k, pc, m, ws)
            iv_k, pc, addr = _gather(order, ws, iv_k, pc, addr)
        l_iv, l_d = _strides_within(iv_k, pc, addr, ws)
        _cumulative_columns(columns, f"stride_l{kind}", LOCAL_BUCKETS, l_iv, l_d, m)


def _strides_within(
    iv_k: np.ndarray, pc: Optional[np.ndarray], addr: np.ndarray, ws: Workspace
) -> Tuple[np.ndarray, np.ndarray]:
    """``(interval, |stride|)`` of consecutive accesses in one interval.

    With ``pc``, consecutive pairs must also share the static
    instruction.  Returns empty streams for fewer than two accesses.
    """
    if len(addr) < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    k = len(addr) - 1
    diffs = ws.empty(k, np.int64)
    np.subtract(addr[1:], addr[:-1], out=diffs)
    np.abs(diffs, out=diffs)
    same = ws.empty(k, bool)
    np.equal(iv_k[1:], iv_k[:-1], out=same)
    if pc is not None:
        with ws.frame():
            same_pc = ws.empty(k, bool)
            np.equal(pc[1:], pc[:-1], out=same_pc)
            same &= same_pc
    iv_same, d_same = _select(same, ws, iv_k[1:], diffs)
    return iv_same, d_same


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
    ws: Workspace,
) -> None:
    n_br = np.bincount(iv_b, minlength=m)
    with ws.frame():
        taken_counts = np.bincount(_select(outcomes, ws, iv_b)[0], minlength=m)
    taken_rate = np.zeros(m, dtype=np.float64)
    np.divide(taken_counts, n_br, out=taken_rate, where=n_br > 0)
    columns["br_taken_rate"] = taken_rate

    # Transition rate: same-PC adjacent outcome flips, per interval.
    if len(pcs) >= 2:
        with ws.frame():
            order = _stable_order_by_interval(iv_b, pcs, m, ws)
            iv_sorted, pc_sorted, out_sorted = _gather(order, ws, iv_b, pcs, outcomes)
            same = _starts_of_runs(iv_sorted, pc_sorted, ws=ws)[1:]
            np.logical_not(same, out=same)
            pairs = np.bincount(_select(same, ws, iv_sorted[1:])[0], minlength=m)
            changed = ws.empty(len(same), bool)
            np.not_equal(out_sorted[1:], out_sorted[:-1], out=changed)
            same &= changed
            flips = np.bincount(_select(same, ws, iv_sorted[1:])[0], minlength=m)
    else:
        pairs = np.zeros(m, dtype=np.int64)
        flips = np.zeros(m, dtype=np.int64)
    transition = np.zeros(m, dtype=np.float64)
    np.divide(flips, pairs, out=transition, where=pairs > 0)
    columns["br_transition_rate"] = transition

    # PPM on the leading sample_branches of each interval (branches of
    # an interval are contiguous in the branch stream).
    bounds = np.searchsorted(iv_b, np.arange(m + 1))
    sel = ws.empty(len(iv_b), bool)
    sel.fill(False)
    for j in range(m):
        sel[bounds[j]:min(bounds[j + 1], bounds[j] + sample_branches)] = True
    miss = _fused_ppm(*_select(sel, ws, iv_b, pcs, outcomes), m, ws)
    columns.update(miss)


def _empty_ppm_columns(m: int) -> Dict[str, np.ndarray]:
    return {
        f"ppm_{kind}_h{length}": np.zeros(m, dtype=np.float64)
        for kind in ORGANIZATIONS
        for length in REPORTED_LENGTHS
    }


def _fused_ppm(
    iv_b: np.ndarray,
    pcs: np.ndarray,
    outcomes: np.ndarray,
    m: int,
    ws: Optional[Workspace] = None,
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
    if ws is None:
        ws = Workspace()

    # Interval bounds in the (interval-ordered) branch stream, and the
    # per-interval sample sizes (denominators of the miss rates).
    bounds = np.searchsorted(iv_b, np.arange(m + 1))
    nb = np.diff(bounds)

    # Per-(interval, pc) group ids; within an interval these equal the
    # per-interval ``np.unique(..., return_inverse=True)`` ids.
    order = _stable_order_by_interval(iv_b, pcs, m, ws)
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

    # Global history is per interval: iv_b is sorted, so it is the
    # local history keyed by interval.  ``order`` is gid's stable sort.
    g_hist = local_histories(iv_b, outcomes)
    l_hist = local_histories(gid, outcomes, order=order)

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
        g_hist, l_hist, iv_b << iv_shift, pc_part, iv_bits + iv_shift, ws
    )
    misses = ppm_misses(keys, outcomes, ws)
    # Per-interval miss counts: segment sums from each interval's first
    # branch.  A zero column past the end keeps every bound a valid
    # index; an interval with no sampled branch sums a stray element,
    # which the nb > 0 mask below discards.
    stacked = ws.empty((len(misses), 4, n + 1), bool)
    stacked[:, :, n] = False
    for i, miss in enumerate(misses.values()):
        stacked[i, :, :n] = miss
    counts = np.add.reduceat(stacked, bounds[:-1], axis=2, dtype=np.int64)
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
