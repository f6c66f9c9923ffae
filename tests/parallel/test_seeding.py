"""Tests for per-task seed streams."""

import numpy as np
import pytest

from repro.parallel import generator_from_seed, task_seed, task_seeds


def test_seeds_are_prefix_stable():
    # Growing the fan-out leaves earlier task streams unchanged — the
    # property that makes k-means restarts independent of restart count.
    assert task_seeds("s", 7, 3) == task_seeds("s", 7, 8)[:3]


def test_seeds_distinct_across_tasks_roots_and_streams():
    seeds = set(task_seeds("a", 1, 100))
    seeds |= set(task_seeds("a", 2, 100))
    seeds |= set(task_seeds("b", 1, 100))
    assert len(seeds) == 300


def test_seeds_are_deterministic():
    assert task_seed("stream", 42, 5) == task_seed("stream", 42, 5)


def test_generator_matches_seed_roundtrip():
    g1 = np.random.Generator(np.random.PCG64(task_seed("s", 3, 1)))
    g2 = generator_from_seed(task_seed("s", 3, 1))
    assert (g1.integers(0, 1 << 30, size=16) == g2.integers(0, 1 << 30, size=16)).all()


def test_rejects_negative_count():
    with pytest.raises(ValueError):
        task_seeds("s", 0, -1)
