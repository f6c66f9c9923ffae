"""Kernel framework: static loop bodies that emit dynamic traces.

A :class:`Kernel` models one computational kernel as a *static loop body*
— an ordered list of instruction :class:`Slot` templates, each with fixed
opcode class, fixed register operands (the same static instruction always
names the same registers, as in real code), and optionally an address
stream or a branch-outcome model.  Executing the kernel tiles the body;
address streams and branch models fill in the dynamic parts.

Everything that MICA measures then *emerges* from body structure:

* instruction mix — the slots' opcode classes;
* ILP — the register dependence chains among slots;
* register traffic — operand counts and producer/consumer distances;
* instruction footprint — body length × number of code variants;
* data footprint and strides — the attached address streams;
* branch behaviour — the attached outcome models.

Kernel modules in this package (:mod:`streaming`, :mod:`pointer_chase`,
...) are builders that assemble bodies with domain-typical structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...isa import NO_ADDR, NO_REG, N_REGISTERS, OpClass, Trace
from ..branches import BranchModel
from ..streams import AddressStream


@dataclass
class Slot:
    """One static instruction template within a kernel body."""

    op: OpClass
    src1: int = NO_REG
    src2: int = NO_REG
    dst: int = NO_REG
    stream: Optional[AddressStream] = None
    branch: Optional[BranchModel] = None

    def __post_init__(self) -> None:
        is_mem = self.op in (OpClass.LOAD, OpClass.STORE)
        if is_mem and self.stream is None:
            raise ValueError(f"{self.op.name} slot requires an address stream")
        if not is_mem and self.stream is not None:
            raise ValueError(f"{self.op.name} slot must not have an address stream")
        is_ctl = self.op in (OpClass.BRANCH, OpClass.CALL)
        if self.op is OpClass.BRANCH and self.branch is None:
            raise ValueError("BRANCH slot requires a branch model")
        if not is_ctl and self.branch is not None:
            raise ValueError(f"{self.op.name} slot must not have a branch model")


class BodyBuilder:
    """Assembles a kernel body with realistic register structure.

    The builder assigns destination registers round-robin over a window of
    the register file and wires sources either to *recent* destinations
    (creating dependence chains; controlled by ``chain_frac``) or to a
    small set of loop-invariant registers (base pointers, constants).

    Args:
        rng: randomness for register wiring (fixed at construction — the
            wiring is static, like compiled code).
        chain_frac: probability that a source reads the most recent
            destination; higher values mean deeper dependence chains and
            lower ILP.
        invariant_regs: how many low registers act as loop invariants.
        dst_window: how many registers the round-robin allocator cycles
            over; smaller windows mean shorter dependency distances.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        chain_frac: float = 0.4,
        invariant_regs: int = 6,
        dst_window: int = 24,
    ) -> None:
        if not 0.0 <= chain_frac <= 1.0:
            raise ValueError("chain_frac must be in [0, 1]")
        if not 1 <= invariant_regs < N_REGISTERS:
            raise ValueError("invariant_regs out of range")
        self._rng = rng
        self._chain_frac = chain_frac
        self._invariant_regs = invariant_regs
        self._dst_base = invariant_regs
        self._dst_window = min(dst_window, N_REGISTERS - invariant_regs)
        self._next_dst = 0
        self._recent: List[int] = []
        self.slots: List[Slot] = []

    def _alloc_dst(self) -> int:
        reg = self._dst_base + (self._next_dst % self._dst_window)
        self._next_dst += 1
        return reg

    def _pick_src(self) -> int:
        if self._recent and self._rng.random() < self._chain_frac:
            return self._recent[-1]
        if self._recent and self._rng.random() < 0.5:
            return int(self._rng.choice(self._recent[-8:]))
        return int(self._rng.integers(0, self._invariant_regs))

    def add(
        self,
        op: OpClass,
        *,
        n_src: int = 2,
        writes: bool = True,
        stream: Optional[AddressStream] = None,
        branch: Optional[BranchModel] = None,
    ) -> Slot:
        """Append a slot; returns it for further inspection."""
        if not 0 <= n_src <= 2:
            raise ValueError("n_src must be 0, 1 or 2")
        src1 = self._pick_src() if n_src >= 1 else NO_REG
        src2 = self._pick_src() if n_src >= 2 else NO_REG
        dst = self._alloc_dst() if writes else NO_REG
        slot = Slot(op=op, src1=src1, src2=src2, dst=dst, stream=stream, branch=branch)
        self.slots.append(slot)
        if dst != NO_REG:
            self._recent.append(dst)
            if len(self._recent) > 16:
                self._recent.pop(0)
        return slot

    def load(self, stream: AddressStream, *, n_src: int = 1) -> Slot:
        """Append a load from ``stream`` (writes its destination)."""
        return self.add(OpClass.LOAD, n_src=n_src, writes=True, stream=stream)

    def store(self, stream: AddressStream, *, n_src: int = 2) -> Slot:
        """Append a store to ``stream`` (no destination register)."""
        return self.add(OpClass.STORE, n_src=n_src, writes=False, stream=stream)

    def branch(self, model: BranchModel, *, n_src: int = 1) -> Slot:
        """Append a conditional branch driven by ``model``."""
        return self.add(OpClass.BRANCH, n_src=n_src, writes=False, branch=model)

    def call(self) -> Slot:
        """Append a call (always taken, no outcome model needed)."""
        return self.add(OpClass.CALL, n_src=0, writes=False)


class Kernel:
    """A static loop body plus the machinery to emit dynamic traces.

    Args:
        name: diagnostic name.
        body: the instruction slots, in static program order.
        code_base: base address of the kernel's code region.
        pc_spacing: bytes between consecutive static instructions.
        n_variants: number of distinct code copies of the body.  Each
            body repetition executes one (pseudo-randomly chosen) variant;
            more variants mean a larger instruction footprint with
            otherwise identical behaviour — how we model large-code
            benchmarks like gcc.
    """

    def __init__(
        self,
        name: str,
        body: Sequence[Slot],
        *,
        code_base: int = 0x400000,
        pc_spacing: int = 4,
        n_variants: int = 1,
    ) -> None:
        if not body:
            raise ValueError("kernel body must be non-empty")
        if n_variants < 1:
            raise ValueError("n_variants must be >= 1")
        self.name = name
        self.body = list(body)
        self.code_base = code_base
        self.pc_spacing = pc_spacing
        self.n_variants = n_variants
        # Everything a call needs that the body fixes, built once.
        self._template = self._build_template()
        self._streams = self._group_by_stream()
        self._calls = np.array(
            [i for i, s in enumerate(self.body) if s.op is OpClass.CALL], dtype=np.int64
        )
        self._branches = [
            (i, s.branch)
            for i, s in enumerate(self.body)
            if s.op is not OpClass.CALL and s.branch is not None
        ]

    def _build_template(self) -> Dict[str, np.ndarray]:
        body = self.body
        return {
            "op": np.array([int(s.op) for s in body], dtype=np.uint8),
            "src1": np.array([s.src1 for s in body], dtype=np.int16),
            "src2": np.array([s.src2 for s in body], dtype=np.int16),
            "dst": np.array([s.dst for s in body], dtype=np.int16),
            "pc": self.code_base + np.arange(len(body), dtype=np.int64) * self.pc_spacing,
        }

    def _group_by_stream(self) -> List[Tuple[AddressStream, np.ndarray]]:
        groups: Dict[int, Tuple[AddressStream, List[int]]] = {}
        for idx, slot in enumerate(self.body):
            if slot.stream is None:
                continue
            key = id(slot.stream)
            if key not in groups:
                groups[key] = (slot.stream, [])
            groups[key][1].append(idx)
        return [
            (stream, np.array(positions, dtype=np.int64))
            for stream, positions in groups.values()
        ]

    def __repr__(self) -> str:
        return f"Kernel({self.name!r}, body={len(self.body)}, variants={self.n_variants})"

    def generate(
        self, n: int, rng: np.random.Generator, out: Optional[Trace] = None
    ) -> Trace:
        """Emit ``n`` dynamic instructions, into ``out`` when given.

        The body is tiled ``ceil(n / len(body))`` times; address streams
        and branch models are consulted per static slot, in program
        order, so local and global stride behaviour are both faithful.
        ``out`` is an ``n``-instruction trace (typically a view into a
        larger one) whose every column is overwritten; the filled trace
        is returned either way.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if out is None:
            out = Trace.allocate(n)
        elif len(out) != n:
            raise ValueError(f"out holds {len(out)} instructions, expected {n}")
        if n == 0:
            return out
        width = len(self.body)
        reps = -(-n // width)
        full = n // width  # complete repetitions
        head = full * width
        tail = n - head  # instructions of the cut-short last repetition
        tmpl = self._template

        # Every random draw below keeps its full ceil-tiled size even
        # when the final repetition is cut short, so a length-n trace is
        # bit-identical to the head of a length-(reps * width) one.
        # Each column is written as a (repetition, slot) grid over the
        # complete repetitions plus the tail's leading slots.
        for name in ("op", "src1", "src2", "dst"):
            col = getattr(out, name)
            col[:head].reshape(full, width)[:] = tmpl[name]
            col[head:] = tmpl[name][:tail]

        # Program counters: per repetition, pick a code variant.
        if self.n_variants == 1:
            out.pc[:head].reshape(full, width)[:] = tmpl["pc"]
            out.pc[head:] = tmpl["pc"][:tail]
        else:
            variant = rng.integers(0, self.n_variants, size=reps, dtype=np.int64)
            variant *= width * self.pc_spacing
            np.add(variant[:full, None], tmpl["pc"], out=out.pc[:head].reshape(full, width))
            np.add(variant[full:], tmpl["pc"][:tail], out=out.pc[head:])

        # Addresses stream by stream, preserving program order.
        out.addr.fill(NO_ADDR)
        addr_grid = out.addr[:head].reshape(full, width)
        for stream, positions in self._streams:
            seq = stream.addresses(reps * len(positions), rng).reshape(reps, len(positions))
            addr_grid[:, positions] = seq[:full]
            if tail:
                kept = positions < tail
                out.addr[head + positions[kept]] = seq[full, kept]

        # Branch outcomes slot by slot; calls are always taken.
        out.taken.fill(False)
        out.taken[:head].reshape(full, width)[:, self._calls] = True
        out.taken[head + self._calls[self._calls < tail]] = True
        for slot_idx, model in self._branches:
            view = out.taken[slot_idx::width]
            view[:] = model.outcomes(reps, rng)[: len(view)]
        return out


def code_base_for(rng: np.random.Generator) -> int:
    """Draw a distinct code-region base address for a kernel instance."""
    return 0x400000 + int(rng.integers(0, 1 << 20)) * 0x1000


def data_base_for(rng: np.random.Generator) -> int:
    """Draw a distinct data-region base address for an address stream."""
    return 0x10000000 + int(rng.integers(0, 1 << 24)) * 0x1000
