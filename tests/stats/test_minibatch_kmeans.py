"""Tests for batch-at-a-time k-means: streaming Lloyd, scoring, streamed BIC."""

import numpy as np
import pytest

from repro.stats import (
    Clustering,
    FrozenScorer,
    StreamingLloyd,
    bic_from_stats,
    kmeans_bic,
)
from repro.stats.kmeans_engine import assign_points
from tests.stats.oracle import lloyd_reference


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(3)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])
    return np.vstack([c + 0.4 * rng.normal(size=(50, 2)) for c in centers])


def _batches(points, size):
    for start in range(0, len(points), size):
        yield points[start : start + size]


def _init(points, k, seed):
    rows = np.random.default_rng(seed).choice(len(points), size=k, replace=False)
    return points[rows]


# --- bic_from_stats --------------------------------------------------------


def test_bic_matches_exact_formula(blobs):
    centers = _init(blobs, 4, 0)
    labels, assigned, _ = assign_points(blobs, centers)
    sse = float(np.square(assigned).sum())
    counts = np.bincount(labels, minlength=4)
    streamed = bic_from_stats(len(blobs), blobs.shape[1], sse, counts)
    exact = kmeans_bic(blobs, labels, centers)
    assert streamed == pytest.approx(exact, rel=1e-12)


def test_bic_degenerate_n_le_k():
    assert bic_from_stats(3, 2, 1.0, np.array([1, 1, 1])) == float("-inf")


# --- StreamingLloyd --------------------------------------------------------


def _run_streaming(points, init, max_iter, batch_size):
    lloyd = StreamingLloyd(init, len(points), max_iter)
    while lloyd.wants_pass():
        for batch in _batches(points, batch_size):
            lloyd.fold_batch(batch)
        lloyd.end_pass()
    return lloyd


@pytest.mark.parametrize("batch_size", [7, 32, 1000])
def test_streaming_lloyd_matches_reference(blobs, batch_size):
    """Batched Lloyd == whole-array Lloyd from the same initial centers."""
    init = _init(blobs, 4, 6)
    centers, labels, inertia, n_iter, _ = lloyd_reference(blobs, init, 100)
    lloyd = _run_streaming(blobs, init, 100, batch_size)
    final_labels, _, _ = assign_points(blobs, lloyd.centers)
    assert lloyd.converged
    assert lloyd.n_iter == n_iter
    np.testing.assert_array_equal(final_labels, labels)
    np.testing.assert_allclose(lloyd.centers, centers, rtol=1e-12, atol=1e-12)


def test_streaming_lloyd_with_empty_cluster_reseed(blobs):
    """A far-away initial center forces the reseed path in both engines."""
    init = np.vstack([_init(blobs, 3, 7), [[1e6, 1e6]]])
    centers, labels, _, n_iter, _ = lloyd_reference(blobs, init, 100)
    lloyd = _run_streaming(blobs, init, 100, 13)
    final_labels, _, _ = assign_points(blobs, lloyd.centers)
    assert lloyd.n_iter == n_iter
    np.testing.assert_array_equal(final_labels, labels)
    np.testing.assert_allclose(lloyd.centers, centers, rtol=1e-12, atol=1e-12)


def test_streaming_lloyd_respects_max_iter(blobs):
    lloyd = _run_streaming(blobs, _init(blobs, 4, 8), 1, 32)
    assert lloyd.n_iter == 1
    assert not lloyd.wants_pass()


def test_streaming_lloyd_guards(blobs):
    init = _init(blobs, 4, 9)
    with pytest.raises(ValueError):
        StreamingLloyd(init, len(blobs), 0)
    lloyd = StreamingLloyd(init, len(blobs), 10)
    lloyd.fold_batch(blobs[:10])
    with pytest.raises(ValueError):
        lloyd.end_pass()  # pass covered 10 rows, expected all
    done = _run_streaming(blobs, init, 100, 64)
    with pytest.raises(RuntimeError):
        done.fold_batch(blobs[:10])


# --- FrozenScorer ----------------------------------------------------------


def test_scorer_matches_direct_assignment(blobs):
    centers = _run_streaming(blobs, _init(blobs, 4, 10), 100, 32).centers
    scorer = FrozenScorer(centers, len(blobs))
    for batch in _batches(blobs, 17):
        scorer.score_batch(batch)
    labels, assigned, _ = assign_points(blobs, centers)
    np.testing.assert_array_equal(scorer.labels, labels)
    np.testing.assert_array_equal(scorer.counts, np.bincount(labels, minlength=4))
    assert scorer.sse == pytest.approx(float(np.square(assigned).sum()), rel=1e-12)
    assert scorer.bic(2) == pytest.approx(kmeans_bic(blobs, labels, centers), rel=1e-12)


@pytest.mark.parametrize("batch_size", [1, 9, 1000])
def test_scorer_representatives_match_exact(blobs, batch_size):
    centers = _run_streaming(blobs, _init(blobs, 4, 11), 100, 32).centers
    scorer = FrozenScorer(centers, len(blobs))
    for batch in _batches(blobs, batch_size):
        scorer.score_batch(batch)
    labels, assigned, _ = assign_points(blobs, centers)
    exact = Clustering(
        centers=centers,
        labels=labels,
        bic=0.0,
        inertia=float(np.square(assigned).sum()),
        n_iter=1,
        assigned_sq=np.square(assigned),
    )
    np.testing.assert_array_equal(scorer.rep_rows, exact.representatives(blobs))


def test_scorer_empty_batch(blobs):
    scorer = FrozenScorer(blobs[:3], len(blobs))
    out = scorer.score_batch(np.empty((0, 2)))
    assert len(out) == 0
    assert scorer.sse == 0.0
