"""Synthetic programs: named, seeded, phase-scheduled trace sources.

A :class:`SyntheticProgram` stands in for one benchmark binary + input:
it owns a phase schedule, a nominal dynamic length (expressed in
intervals, the Table 3 analog), and a deterministic seed.  Intervals are
generated on demand and independently — interval ``i`` always produces
the same trace regardless of which other intervals were generated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa import Trace
from .phases import PhaseSchedule
from .rng import generator


class SyntheticProgram:
    """One benchmark workload: a seeded phase schedule of kernels.

    Args:
        name: benchmark name (e.g. ``"astar"``).
        schedule: the program's phase structure.
        n_intervals: nominal dynamic length in intervals; the Table 3
            analog.  Interval indices range over ``[0, n_intervals)``.
        seed: the program's root seed; every interval derives its own
            random stream from ``(seed, interval_index)``.
    """

    def __init__(
        self,
        name: str,
        schedule: PhaseSchedule,
        *,
        n_intervals: int,
        seed: int,
    ) -> None:
        if n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        self.name = name
        self.schedule = schedule
        self.n_intervals = n_intervals
        self.seed = seed
        # Phase segments of the whole run, per interval size.
        self._segments: Dict[int, List[Tuple[int, int, object]]] = {}

    def __repr__(self) -> str:
        return (
            f"SyntheticProgram({self.name!r}, phases={len(self.schedule)}, "
            f"intervals={self.n_intervals})"
        )

    def interval_trace(
        self, index: int, interval_instructions: int, out: Optional[Trace] = None
    ) -> Trace:
        """Generate the trace of interval ``index``, into ``out`` when given.

        Intervals that straddle a phase boundary receive instructions
        from each overlapped phase in order, exactly like a real trace
        sliced at fixed instruction counts.  Each phase's piece is
        generated straight into its slice of ``out`` (an
        ``interval_instructions``-long trace, typically a view into a
        batch's columns; allocated when not given), which is returned.
        """
        if not 0 <= index < self.n_intervals:
            raise ValueError(
                f"interval index {index} out of range [0, {self.n_intervals})"
            )
        if interval_instructions <= 0:
            raise ValueError("interval_instructions must be positive")
        if out is None:
            out = Trace.allocate(interval_instructions)
        elif len(out) != interval_instructions:
            raise ValueError(
                f"out holds {len(out)} instructions, expected {interval_instructions}"
            )
        segments = self._segments.get(interval_instructions)
        if segments is None:
            segments = self.schedule.segments(self.n_intervals * interval_instructions)
            self._segments[interval_instructions] = segments
        start = index * interval_instructions
        stop = start + interval_instructions
        seg_index = 0
        filled = 0
        for seg_start, seg_stop, kernel in segments:
            lo, hi = max(start, seg_start), min(stop, seg_stop)
            if hi <= lo:
                continue
            rng = generator(self.seed, "interval", index, seg_index)
            kernel.generate(hi - lo, rng, out=out.slice(lo - start, hi - start))
            seg_index += 1
            filled += hi - lo
        if filled != interval_instructions:
            raise AssertionError(
                f"generated {filled} instructions, expected {interval_instructions}"
            )
        return out
