"""Kernel composition: fine-grain blends of kernel behaviours.

Real benchmarks rarely spend an entire interval in one textbook kernel;
a video encoder interleaves motion estimation (streaming) with entropy
coding (FSM).  :class:`BlendKernel` interleaves chunks of several
sub-kernels inside a single interval, producing intervals whose
characteristics are weighted blends — this is how the suite models
produce the "mixed" clusters the paper observes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...isa import Trace
from .base import Kernel


class BlendKernel:
    """Interleaves chunks of sub-kernels by weight.

    Implements the same ``generate(n, rng)`` protocol as
    :class:`~repro.synth.kernels.base.Kernel`, so phases can use blends
    and plain kernels interchangeably.

    Args:
        name: diagnostic name.
        parts: ``(kernel, weight)`` pairs; weights are normalized.
        chunk: instructions per interleave chunk.  Smaller chunks give a
            finer-grained blend (more "average" looking intervals).
    """

    def __init__(
        self,
        name: str,
        parts: Sequence[Tuple[Kernel, float]],
        *,
        chunk: int = 512,
    ) -> None:
        if not parts:
            raise ValueError("BlendKernel requires at least one part")
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        total = float(sum(weight for _, weight in parts))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self.name = name
        self.parts: List[Tuple[Kernel, float]] = [
            (kernel, weight / total) for kernel, weight in parts
        ]
        self.chunk = chunk
        self._kernels = [kernel for kernel, _ in self.parts]
        self._weights = np.array([weight for _, weight in self.parts])

    def __repr__(self) -> str:
        inner = ", ".join(f"{k.name}:{w:.2f}" for k, w in self.parts)
        return f"BlendKernel({self.name!r}, [{inner}])"

    def generate(
        self, n: int, rng: np.random.Generator, out: Optional[Trace] = None
    ) -> Trace:
        """Emit ``n`` instructions, interleaving sub-kernel chunks.

        Each chunk is generated straight into its slice of ``out``
        (allocated when not given); the filled trace is returned.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if out is None:
            out = Trace.allocate(n)
        elif len(out) != n:
            raise ValueError(f"out holds {len(out)} instructions, expected {n}")
        pos = 0
        while pos < n:
            kernel = self._kernels[int(rng.choice(len(self._kernels), p=self._weights))]
            size = min(self.chunk, n - pos)
            kernel.generate(size, rng, out=out.slice(pos, pos + size))
            pos += size
        return out
