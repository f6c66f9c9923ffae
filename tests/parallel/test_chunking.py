"""Tests for deterministic work-splitting."""

import pytest

from repro.parallel import chunk_bounds


def test_balanced_split_covers_range():
    bounds = chunk_bounds(10, n_chunks=3)
    assert bounds == [(0, 4), (4, 7), (7, 10)]


def test_balanced_split_sizes_differ_by_at_most_one():
    for n_items in (1, 7, 16, 100):
        for n_chunks in (1, 2, 3, 7, 16):
            bounds = chunk_bounds(n_items, n_chunks=n_chunks)
            sizes = [stop - start for start, stop in bounds]
            assert sum(sizes) == n_items
            assert max(sizes) - min(sizes) <= 1
            # Contiguous and ordered.
            assert bounds[0][0] == 0
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def test_n_chunks_clipped_to_items():
    assert len(chunk_bounds(3, n_chunks=10)) == 3


def test_fixed_chunk_size():
    assert chunk_bounds(7, chunk_size=3) == [(0, 3), (3, 6), (6, 7)]


def test_empty_input():
    assert chunk_bounds(0, n_chunks=4) == []
    assert chunk_bounds(0, chunk_size=4) == []


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chunk_bounds(-1, n_chunks=2)
    with pytest.raises(ValueError):
        chunk_bounds(5)
    with pytest.raises(ValueError):
        chunk_bounds(5, n_chunks=2, chunk_size=2)
