"""The sequential MICA oracle: one reference per meter, one interval at a time.

Production measures every interval of a batch in one vectorized pass
(:func:`repro.mica.characterize_intervals`).  This module measures one
interval the straightforward way and shares no kernel with that pass:
producer matching is one ``searchsorted`` per register, ILP is a
sequential block walk, and PPM is a per-branch table walk over
sequentially built histories.  Tests compare the production pass with
``==`` against :func:`characterize_interval`; the golden vectors pin
both.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.config import AnalysisConfig
from repro.isa import NO_REG, N_OP_CLASSES, N_REGISTERS, OpClass, Trace, is_memory_op
from repro.mica import (
    DEP_DISTANCE_BUCKETS,
    FEATURE_INDEX,
    GLOBAL_BUCKETS,
    LOCAL_BUCKETS,
    REPORTED_LENGTHS,
    TRACKED_LENGTHS,
    WINDOW_SIZES,
    feature_names,
)
from repro.mica.features import ORGANIZATIONS
from repro.mica.ppm import _COUNTER_MAX, _HISTORY_BITS

BLOCK_SHIFT = 6  # 64-byte blocks
PAGE_SHIFT = 12  # 4KB pages


def characterize_interval(trace: Trace, config: AnalysisConfig) -> np.ndarray:
    """The canonical 69-element vector of one interval.

    ``config`` supplies the ILP/PPM subsample sizes.
    """
    values: Dict[str, float] = {}
    values.update(measure_instruction_mix(trace))
    values.update(
        measure_ilp_reference(
            trace, sample_instructions=config.ilp_sample_instructions
        )
    )
    values.update(measure_register_traffic(trace))
    values.update(measure_footprint(trace))
    values.update(measure_strides(trace))
    values.update(
        measure_branch(trace, sample_branches=config.ppm_sample_branches)
    )
    return feature_vector(values)


def feature_vector(values: Mapping[str, float]) -> np.ndarray:
    """Assemble the canonical 69-element vector from named values.

    Raises ``KeyError`` if any feature is missing and ``ValueError`` on
    extra keys, so the meters cannot drift from the schema.
    """
    extra = set(values) - set(FEATURE_INDEX)
    if extra:
        raise ValueError(f"unknown feature names: {sorted(extra)}")
    return np.array([values[name] for name in feature_names()], dtype=np.float64)


def _require_instructions(trace: Trace) -> None:
    if len(trace) == 0:
        raise ValueError("cannot characterize an empty trace")


# ----------------------------------------------------------------------
# instruction mix


def measure_instruction_mix(trace: Trace) -> Dict[str, float]:
    """The 20 instruction-mix features: dynamic opcode-class fractions."""
    _require_instructions(trace)
    frac = np.bincount(trace.op, minlength=N_OP_CLASSES).astype(np.float64) / len(trace)

    def f(op: OpClass) -> float:
        return float(frac[int(op)])

    int_arith = (
        f(OpClass.IADD) + f(OpClass.IMUL) + f(OpClass.IDIV) + f(OpClass.SHIFT) + f(OpClass.LOGIC)
    )
    fp_arith = f(OpClass.FADD) + f(OpClass.FMUL) + f(OpClass.FDIV) + f(OpClass.FSQRT)
    return {
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


# ----------------------------------------------------------------------
# producers, ILP and register traffic


def producer_indices_reference(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """For each instruction, the index of the write each source reads.

    Returns two int64 arrays ``(p1, p2)``; entry -1 means the source is
    absent or was produced before the trace started.  One
    ``searchsorted`` pass per register.
    """
    n = len(trace)
    p1 = np.full(n, -1, dtype=np.int64)
    p2 = np.full(n, -1, dtype=np.int64)
    positions = np.arange(n, dtype=np.int64)
    for reg in range(N_REGISTERS):
        writes = positions[trace.dst == reg]
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


def measure_ilp_reference(
    trace: Trace,
    *,
    sample_instructions: int = 2_000,
    windows: Sequence[int] = WINDOW_SIZES,
) -> Dict[str, float]:
    """Idealized IPC per window size: one sequential block walk each.

    The ideal machine (perfect caches and branch prediction, unit
    latency) fills a W-instruction window, issues it in dataflow order,
    then refills: ``IPC_W = N / sum(block depths)`` over the leading
    ``sample_instructions``.
    """
    _require_instructions(trace)
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
                    d = max(d, depth[a - start] + 1)
                b = p2[i]
                if b >= start:
                    d = max(d, depth[b - start] + 1)
                depth[i - start] = d
                block_max = max(block_max, d)
            total_cycles += block_max
            start = stop
        out[f"ilp_w{w}"] = n / total_cycles
    return out


def measure_register_traffic(trace: Trace) -> Dict[str, float]:
    """The 9 register-traffic features.

    Average register inputs per instruction, average degree of use
    (matched reads per register write), and the cumulative distribution
    of read-to-producer distances.  Reads whose producer precedes the
    interval are unmatched and excluded.
    """
    _require_instructions(trace)
    n = len(trace)
    n_inputs = int(np.count_nonzero(trace.src1 != NO_REG)) + int(
        np.count_nonzero(trace.src2 != NO_REG)
    )
    n_writes = int(np.count_nonzero(trace.dst != NO_REG))
    positions = np.arange(n, dtype=np.int64)
    distances = np.concatenate(
        [positions[p >= 0] - p[p >= 0] for p in producer_indices_reference(trace)]
    )
    n_matched = len(distances)
    out: Dict[str, float] = {
        "reg_avg_input_operands": n_inputs / n,
        "reg_avg_degree_use": (n_matched / n_writes) if n_writes else 0.0,
    }
    for bucket in DEP_DISTANCE_BUCKETS:
        out[f"reg_dep_le{bucket}"] = (
            float(np.count_nonzero(distances <= bucket)) / n_matched if n_matched else 0.0
        )
    return out


# ----------------------------------------------------------------------
# memory footprint and strides


def _log_unique(addresses: np.ndarray, shift: int) -> float:
    if len(addresses) == 0:
        return 0.0
    return math.log2(1 + len(np.unique(addresses >> shift)))


def measure_footprint(trace: Trace) -> Dict[str, float]:
    """The 4 footprint features: ``log2(1 + unique blocks/pages)``."""
    _require_instructions(trace)
    data_addr = trace.addr[is_memory_op(trace.op)]
    return {
        "foot_instr_64b": _log_unique(trace.pc, BLOCK_SHIFT),
        "foot_instr_4k": _log_unique(trace.pc, PAGE_SHIFT),
        "foot_data_64b": _log_unique(data_addr, BLOCK_SHIFT),
        "foot_data_4k": _log_unique(data_addr, PAGE_SHIFT),
    }


def _cumulative(strides: np.ndarray, buckets: Sequence[int]) -> Dict[int, float]:
    n = len(strides)
    return {b: (float(np.count_nonzero(strides <= b)) / n) if n else 0.0 for b in buckets}


def _local_strides(pc: np.ndarray, addr: np.ndarray) -> np.ndarray:
    # Stable sort by PC keeps program order within each PC group.
    order = np.argsort(pc, kind="stable")
    pc_sorted = pc[order]
    diffs = np.abs(np.diff(addr[order]))
    return diffs[pc_sorted[1:] == pc_sorted[:-1]]


def measure_strides(trace: Trace) -> Dict[str, float]:
    """The 18 stride features, for loads and stores separately.

    A global stride is the address difference between consecutive
    accesses of one kind; a local stride, between consecutive accesses
    by the same static instruction.  Each is reported as cumulative
    ``P(|stride| <= bucket)``.
    """
    _require_instructions(trace)
    out: Dict[str, float] = {}
    for kind, op in (("l", OpClass.LOAD), ("s", OpClass.STORE)):
        mask = trace.op == op
        addr = trace.addr[mask]
        pc = trace.pc[mask]
        for b, p in _cumulative(np.abs(np.diff(addr)), GLOBAL_BUCKETS).items():
            out[f"stride_g{kind}_le{b}"] = p
        for b, p in _cumulative(_local_strides(pc, addr), LOCAL_BUCKETS).items():
            out[f"stride_l{kind}_le{b}"] = p
    return out


# ----------------------------------------------------------------------
# branch predictability


def transition_rate(pcs: np.ndarray, outcomes: np.ndarray) -> float:
    """Fraction of dynamic branch executions that change direction.

    A transition is a branch whose outcome differs from the previous
    outcome of the *same static branch*.
    """
    if len(pcs) < 2:
        return 0.0
    order = np.argsort(pcs, kind="stable")
    sorted_pcs = pcs[order]
    sorted_out = outcomes[order]
    same = sorted_pcs[1:] == sorted_pcs[:-1]
    changed = sorted_out[1:] != sorted_out[:-1]
    pairs = int(np.count_nonzero(same))
    if pairs == 0:
        return 0.0
    return float(np.count_nonzero(changed & same)) / pairs


def measure_branch(trace: Trace, *, sample_branches: int = 1_000) -> Dict[str, float]:
    """The 14 branch features of an interval.

    Taken/transition rates use every conditional branch in the interval;
    the PPM pass uses the first ``sample_branches`` of them.
    """
    _require_instructions(trace)
    mask = trace.op == OpClass.BRANCH
    pcs = trace.pc[mask]
    outcomes = trace.taken[mask]
    out: Dict[str, float] = {
        "br_taken_rate": float(outcomes.mean()) if len(outcomes) else 0.0,
        "br_transition_rate": transition_rate(pcs, outcomes),
    }
    out.update(measure_ppm_reference(pcs[:sample_branches], outcomes[:sample_branches]))
    return out


def _histories(streams: Sequence[int], outcomes: Sequence[bool]) -> np.ndarray:
    """12-bit history before each branch, one history per stream id.

    Bit ``k`` of ``history[i]`` is the outcome of the ``k + 1``-th
    previous branch of the same stream (bit 0 is the most recent).
    """
    mask = (1 << _HISTORY_BITS) - 1
    last: Dict[int, int] = {}
    hist = []
    for stream, taken in zip(streams, outcomes):
        h = last.get(stream, 0)
        hist.append(h)
        last[stream] = ((h << 1) | int(taken)) & mask
    return np.array(hist, dtype=np.int64)


def global_histories(outcomes: np.ndarray) -> np.ndarray:
    """12-bit global history before each branch."""
    return _histories([0] * len(outcomes), outcomes.tolist())


def _run_ppm(
    pc_ids: np.ndarray,
    outcomes: np.ndarray,
    histories: np.ndarray,
    *,
    per_address_table: bool,
) -> Dict[int, float]:
    """One PPM predictor walk; miss rate per reported max history length.

    Each branch predicts with the longest non-zero context of length
    ``<= L`` for every reported maximum ``L`` (no such context predicts
    not-taken), then updates every tracked context length.
    """
    n = len(outcomes)
    if n == 0:
        return {length: 0.0 for length in REPORTED_LENGTHS}
    table: Dict[int, int] = {}
    misses = {length: 0 for length in REPORTED_LENGTHS}
    masks = [(1 << length) - 1 for length in TRACKED_LENGTHS]
    pc_list = pc_ids.tolist()
    for i, (taken, hist) in enumerate(zip(outcomes.tolist(), histories.tolist())):
        addr_part = (pc_list[i] << 20) if per_address_table else 0
        keys = [
            addr_part | (length << 14) | (hist & mask)
            for length, mask in zip(TRACKED_LENGTHS, masks)
        ]
        for maxlen in REPORTED_LENGTHS:
            counter = next(
                (
                    table[key]
                    for length, key in zip(TRACKED_LENGTHS, keys)
                    if length <= maxlen and table.get(key, 0) != 0
                ),
                0,
            )
            if (counter > 0) != taken:
                misses[maxlen] += 1
        delta = 1 if taken else -1
        for key in keys:
            table[key] = max(-_COUNTER_MAX, min(_COUNTER_MAX, table.get(key, 0) + delta))
    return {length: misses[length] / n for length in REPORTED_LENGTHS}


def measure_ppm_reference(pcs: np.ndarray, outcomes: np.ndarray) -> Dict[str, float]:
    """PPM miss rates for the 4 organizations x 3 max history lengths.

    Args:
        pcs: static branch addresses of the sampled conditional branches,
            in program order.
        outcomes: their taken/not-taken outcomes.

    Returns:
        12 features named ``ppm_{gag,pag,gas,pas}_h{4,8,12}``.
    """
    if len(pcs) != len(outcomes):
        raise ValueError("pcs and outcomes must have equal length")
    _, pc_ids = np.unique(pcs, return_inverse=True)
    g_hist = global_histories(outcomes)
    l_hist = _histories(pc_ids.tolist(), outcomes.tolist())
    configs = (
        (g_hist, False),
        (l_hist, False),
        (g_hist, True),
        (l_hist, True),
    )
    out: Dict[str, float] = {}
    for kind, (hist, per_addr) in zip(ORGANIZATIONS, configs):
        rates = _run_ppm(pc_ids, outcomes, hist, per_address_table=per_addr)
        for length, rate in rates.items():
            out[f"ppm_{kind}_h{length}"] = rate
    return out
