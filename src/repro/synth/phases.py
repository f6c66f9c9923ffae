"""Phase schedules: the time-varying structure of a synthetic program.

A program's execution is a sequence of *phases*, each a kernel (or
blend) active for a fraction of the dynamic instruction stream.  The
schedule maps instruction offsets to kernels, so interval generation can
ask "which kernel(s) cover interval i?" — intervals straddling a phase
boundary get instructions from both sides, exactly like real traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class Phase:
    """One program phase: a kernel active for a fraction of execution.

    ``kernel`` is anything with a ``generate(n, rng, out=None) -> Trace``
    method (filling ``out`` when given) and a ``name``; ``fraction`` is its share of the dynamic instruction
    count (normalized across the schedule).
    """

    kernel: object
    fraction: float

    def __post_init__(self) -> None:
        if self.fraction <= 0:
            raise ValueError("phase fraction must be positive")


class PhaseSchedule:
    """An ordered sequence of phases, optionally repeated.

    Args:
        phases: the phases, in execution order.
        repeat: repeat the whole sequence this many times (A B A B ...
            for ``repeat=2``) — how we model periodic outer-loop
            behaviour such as time-stepped simulations.
    """

    def __init__(self, phases: Sequence[Phase], *, repeat: int = 1) -> None:
        if not phases:
            raise ValueError("schedule requires at least one phase")
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        total = sum(p.fraction for p in phases)
        self.phases: List[Phase] = [
            Phase(p.kernel, p.fraction / total) for p in phases
        ]
        self.repeat = repeat

    def __len__(self) -> int:
        return len(self.phases) * self.repeat

    def segments(self, total_instructions: int) -> List[Tuple[int, int, object]]:
        """Materialize ``(start, stop, kernel)`` segments for a run.

        Every instruction of the run belongs to exactly one segment;
        segment boundaries are rounded to whole instructions and the
        last segment absorbs rounding slack.
        """
        if total_instructions <= 0:
            raise ValueError("total_instructions must be positive")
        unit = [p.fraction / self.repeat for p in self.phases] * self.repeat
        kernels = [p.kernel for p in self.phases] * self.repeat
        bounds = [0]
        acc = 0.0
        for frac in unit:
            acc += frac
            bounds.append(round(acc * total_instructions))
        bounds[-1] = total_instructions
        segments = []
        for i, kernel in enumerate(kernels):
            start, stop = bounds[i], bounds[i + 1]
            if stop > start:
                segments.append((start, stop, kernel))
        return segments

    def overlapping(
        self, total_instructions: int, start: int, stop: int
    ) -> List[Tuple[int, int, object]]:
        """Return the sub-segments of ``[start, stop)`` per kernel.

        The returned ``(seg_start, seg_stop, kernel)`` triples are
        clipped to the queried window and ordered by position.
        """
        if not 0 <= start < stop <= total_instructions:
            raise ValueError("query window out of range")
        out = []
        for seg_start, seg_stop, kernel in self.segments(total_instructions):
            lo, hi = max(start, seg_start), min(stop, seg_stop)
            if hi > lo:
                out.append((lo, hi, kernel))
        return out
