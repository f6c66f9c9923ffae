"""Shared per-interval trace facts: the :class:`IntervalProfile`.

Several MICA meters need the same derived views of a trace interval —
the memory-operation mask, the conditional-branch stream, the per-kind
load/store address streams, and the register producer of every source
operand.  Before this module existed each meter re-derived its views
from the raw :class:`~repro.isa.Trace`; the ILP and register-traffic
meters even ran the *same* read-to-write matching twice per interval.

:func:`IntervalProfile.from_trace` computes every shared fact exactly
once; :func:`~repro.mica.meter.characterize_interval` threads the
profile through all six meters.  Every meter still accepts a bare trace
(``profile=None``) and derives its own views, so direct calls and unit
tests need no ceremony.

The producer matching here is one sort: every register read and write
becomes a composite ``(interval, register, position, slot)`` integer
key, where a read's slot tag sorts before a write at the same
position.  After ``np.sort``, a running maximum over the write keys
carries each register's latest write forward, so a read's producer is
the carried write whenever the two keys share their ``(interval,
register)`` prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..isa import NO_REG, N_OP_CLASSES, N_REGISTERS, OpClass, Trace, is_memory_op


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


@dataclass(frozen=True)
class IntervalProfile:
    """Derived views of one trace interval, computed once, shared by meters.

    Attributes:
        n: interval length in instructions.
        op_counts: dynamic count per opcode class (``N_OP_CLASSES``,).
        mem_addrs: effective addresses of the memory operations, in
            program order.
        load_addrs / load_pcs: address and PC streams of the loads.
        store_addrs / store_pcs: address and PC streams of the stores.
        branch_pcs / branch_taken: PC and outcome streams of the
            conditional branches.
        producers: ``(p1, p2)`` full-interval producer indices from
            :func:`match_producers`.
        n_register_reads: source operands naming a register.
        n_register_writes: instructions writing a register.
    """

    n: int
    op_counts: np.ndarray
    mem_addrs: np.ndarray
    load_addrs: np.ndarray
    load_pcs: np.ndarray
    store_addrs: np.ndarray
    store_pcs: np.ndarray
    branch_pcs: np.ndarray
    branch_taken: np.ndarray
    producers: Tuple[np.ndarray, np.ndarray]
    n_register_reads: int
    n_register_writes: int

    @classmethod
    def from_trace(cls, trace: Trace) -> "IntervalProfile":
        """Compute the shared facts for one interval."""
        n = len(trace)
        if n == 0:
            raise ValueError("cannot profile an empty trace")
        op = trace.op
        op_counts = np.bincount(op, minlength=N_OP_CLASSES)
        load_mask = op == OpClass.LOAD
        store_mask = op == OpClass.STORE
        branch_mask = op == OpClass.BRANCH
        mem_mask = is_memory_op(op)
        n_register_reads = int(np.count_nonzero(trace.src1 != NO_REG)) + int(
            np.count_nonzero(trace.src2 != NO_REG)
        )
        n_register_writes = int(np.count_nonzero(trace.dst != NO_REG))
        return cls(
            n=n,
            op_counts=op_counts,
            mem_addrs=trace.addr[mem_mask],
            load_addrs=trace.addr[load_mask],
            load_pcs=trace.pc[load_mask],
            store_addrs=trace.addr[store_mask],
            store_pcs=trace.pc[store_mask],
            branch_pcs=trace.pc[branch_mask],
            branch_taken=trace.taken[branch_mask],
            producers=match_producers(trace),
            n_register_reads=n_register_reads,
            n_register_writes=n_register_writes,
        )
