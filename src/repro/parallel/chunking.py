"""Deterministic work-splitting: chunk bounds and ordered reassembly.

The executors fan tasks out in contiguous chunks and reassemble results
in submission order, so a parallel run visits exactly the same work in
exactly the same order as a serial run — only the wall-clock interleaving
differs.
"""

from __future__ import annotations

from typing import List, Tuple


def chunk_bounds(
    n_items: int, *, n_chunks: int = 0, chunk_size: int = 0
) -> List[Tuple[int, int]]:
    """Split ``range(n_items)`` into contiguous ``(start, stop)`` spans.

    Exactly one of ``n_chunks`` and ``chunk_size`` must be positive.
    With ``n_chunks``, the split is balanced: chunk sizes differ by at
    most one, with the longer chunks first.  With ``chunk_size``, every
    chunk has that size except possibly the last.

    Args:
        n_items: number of items to split; may be zero.
        n_chunks: target number of chunks (clipped to ``n_items``).
        chunk_size: fixed size per chunk.

    Returns:
        Ordered, non-overlapping spans covering ``range(n_items)``.
    """
    if n_items < 0:
        raise ValueError("n_items must be >= 0")
    if (n_chunks > 0) == (chunk_size > 0):
        raise ValueError("specify exactly one of n_chunks or chunk_size")
    if n_items == 0:
        return []
    bounds: List[Tuple[int, int]] = []
    if chunk_size > 0:
        for start in range(0, n_items, chunk_size):
            bounds.append((start, min(start + chunk_size, n_items)))
        return bounds
    n_chunks = min(n_chunks, n_items)
    base, extra = divmod(n_items, n_chunks)
    start = 0
    for i in range(n_chunks):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds
