"""Struct-of-arrays dynamic instruction traces.

A :class:`Trace` is the unit of exchange between the synthetic-workload
substrate and the MICA meters.  It stores one dynamic instruction per
index across seven parallel numpy arrays; this keeps every meter except
ILP and PPM fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from .opcodes import NO_ADDR, NO_REG, N_OP_CLASSES, N_REGISTERS, OpClass, is_memory_op


@dataclass
class Trace:
    """A dynamic instruction trace in struct-of-arrays form.

    Attributes:
        op: ``uint8`` opcode class per instruction (:class:`OpClass` values).
        src1: ``int16`` first source register, ``NO_REG`` if absent.
        src2: ``int16`` second source register, ``NO_REG`` if absent.
        dst: ``int16`` destination register, ``NO_REG`` if absent.
        addr: ``int64`` effective data address, ``NO_ADDR`` for
            non-memory instructions.
        pc: ``int64`` static instruction address.  Loop iterations revisit
            the same PCs, which drives the instruction footprint, local
            strides, and per-address branch predictors.
        taken: ``bool`` branch outcome; False for non-branches.
    """

    op: np.ndarray
    src1: np.ndarray
    src2: np.ndarray
    dst: np.ndarray
    addr: np.ndarray
    pc: np.ndarray
    taken: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.op)
        for name in ("src1", "src2", "dst", "addr", "pc", "taken"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValueError(
                    f"trace field {name!r} has length {len(arr)}, expected {n}"
                )

    def __len__(self) -> int:
        return len(self.op)

    @classmethod
    def empty(cls) -> "Trace":
        """Return a zero-length trace."""
        return cls(
            op=np.empty(0, dtype=np.uint8),
            src1=np.empty(0, dtype=np.int16),
            src2=np.empty(0, dtype=np.int16),
            dst=np.empty(0, dtype=np.int16),
            addr=np.empty(0, dtype=np.int64),
            pc=np.empty(0, dtype=np.int64),
            taken=np.empty(0, dtype=bool),
        )

    @classmethod
    def allocate(cls, n: int) -> "Trace":
        """Return an ``n``-instruction trace with uninitialized columns.

        For generators that overwrite every column (see
        :meth:`repro.synth.kernels.base.Kernel.generate`).
        """
        return cls(
            op=np.empty(n, dtype=np.uint8),
            src1=np.empty(n, dtype=np.int16),
            src2=np.empty(n, dtype=np.int16),
            dst=np.empty(n, dtype=np.int16),
            addr=np.empty(n, dtype=np.int64),
            pc=np.empty(n, dtype=np.int64),
            taken=np.empty(n, dtype=bool),
        )

    @classmethod
    def zeros(cls, n: int) -> "Trace":
        """Return an ``n``-instruction trace of IADDs with no operands.

        Useful as a pre-allocated buffer that generators then fill in.
        """
        return cls(
            op=np.full(n, int(OpClass.IADD), dtype=np.uint8),
            src1=np.full(n, NO_REG, dtype=np.int16),
            src2=np.full(n, NO_REG, dtype=np.int16),
            dst=np.full(n, NO_REG, dtype=np.int16),
            addr=np.full(n, NO_ADDR, dtype=np.int64),
            pc=np.zeros(n, dtype=np.int64),
            taken=np.zeros(n, dtype=bool),
        )

    def slice(self, start: int, stop: int) -> "Trace":
        """Return the sub-trace covering ``[start, stop)``.

        The arrays are views, not copies.
        """
        return Trace(
            op=self.op[start:stop],
            src1=self.src1[start:stop],
            src2=self.src2[start:stop],
            dst=self.dst[start:stop],
            addr=self.addr[start:stop],
            pc=self.pc[start:stop],
            taken=self.taken[start:stop],
        )

    def validate(self) -> None:
        """Raise ``ValueError`` on any internal inconsistency.

        Checks opcode-class range, register-id range, and the invariants
        that exactly the memory instructions carry addresses and only
        branches are marked taken.
        """
        if self.op.size and (self.op.max() >= N_OP_CLASSES):
            raise ValueError("opcode class out of range")
        for name in ("src1", "src2", "dst"):
            arr = getattr(self, name)
            if arr.size and (arr.max() >= N_REGISTERS or arr.min() < NO_REG):
                raise ValueError(f"register id out of range in {name}")
        mem = is_memory_op(self.op)
        if np.any(self.addr[mem] == NO_ADDR):
            raise ValueError("memory instruction without an effective address")
        if np.any(self.addr[~mem] != NO_ADDR):
            raise ValueError("non-memory instruction with an effective address")
        if np.any(self.taken & (self.op != OpClass.BRANCH) & (self.op != OpClass.CALL)):
            raise ValueError("non-branch instruction marked taken")
        if self.addr.size and np.any(self.addr[mem] < 0):
            raise ValueError("negative effective address")
        if self.pc.size and self.pc.min() < 0:
            raise ValueError("negative pc")


def concat(traces: Iterable[Trace]) -> Trace:
    """Concatenate traces in order into a single trace."""
    parts: List[Trace] = [t for t in traces if len(t)]
    if not parts:
        return Trace.empty()
    if len(parts) == 1:
        return parts[0]
    return Trace(
        op=np.concatenate([t.op for t in parts]),
        src1=np.concatenate([t.src1 for t in parts]),
        src2=np.concatenate([t.src2 for t in parts]),
        dst=np.concatenate([t.dst for t in parts]),
        addr=np.concatenate([t.addr for t in parts]),
        pc=np.concatenate([t.pc for t in parts]),
        taken=np.concatenate([t.taken for t in parts]),
    )
