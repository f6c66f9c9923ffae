"""Tests for k-means clustering with BIC restarts."""

import numpy as np
import pytest

from repro.stats import kmeans
from repro.synth import generator


@pytest.fixture
def blobs():
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.vstack(
        [c + 0.3 * rng.normal(size=(40, 2)) for c in centers]
    )
    return points


def test_recovers_well_separated_blobs(blobs):
    c = kmeans(blobs, 3, restarts=5, rng=generator("km", 1))
    assert c.k == 3
    sizes = sorted(c.cluster_sizes().tolist())
    assert sizes == [40, 40, 40]


def test_labels_cover_all_points(blobs):
    c = kmeans(blobs, 3, rng=generator("km", 2))
    assert len(c.labels) == len(blobs)
    assert c.labels.min() >= 0
    assert c.labels.max() < 3


def test_centers_near_true_centers(blobs):
    c = kmeans(blobs, 3, restarts=5, rng=generator("km", 3))
    truth = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    for t in truth:
        nearest = np.min(np.linalg.norm(c.centers - t, axis=1))
        assert nearest < 1.0


def test_k_clipped_to_point_count():
    pts = np.random.default_rng(1).normal(size=(5, 2))
    c = kmeans(pts, 10, rng=generator("km", 4))
    assert c.k == 5


def test_no_empty_clusters(blobs):
    c = kmeans(blobs, 20, rng=generator("km", 5))
    assert (c.cluster_sizes() > 0).all()


def test_inertia_decreases_with_more_clusters(blobs):
    c2 = kmeans(blobs, 2, restarts=3, rng=generator("km", 6))
    c6 = kmeans(blobs, 6, restarts=3, rng=generator("km", 6))
    assert c6.inertia < c2.inertia


def test_bic_prefers_true_k(blobs):
    scores = {}
    for k in (2, 3, 8):
        scores[k] = kmeans(blobs, k, restarts=5, rng=generator("km", 7)).bic
    assert scores[3] > scores[2]
    assert scores[3] > scores[8]


def test_representatives_are_member_rows(blobs):
    c = kmeans(blobs, 3, rng=generator("km", 8))
    reps = c.representatives(blobs)
    for cluster, row in enumerate(reps):
        assert c.labels[row] == cluster


def test_deterministic_given_rng_seed(blobs):
    a = kmeans(blobs, 3, rng=generator("km", 9))
    b = kmeans(blobs, 3, rng=generator("km", 9))
    assert (a.labels == b.labels).all()


def test_rejects_bad_arguments(blobs):
    with pytest.raises(ValueError):
        kmeans(blobs, 0, rng=generator("km", 10))
    with pytest.raises(ValueError):
        kmeans(blobs, 2, restarts=0, rng=generator("km", 11))
    with pytest.raises(ValueError):
        kmeans(np.empty((0, 2)), 2, rng=generator("km", 12))
    with pytest.raises(ValueError):
        kmeans(blobs, 2, max_iter=0, rng=generator("km", 14))


def test_single_cluster():
    pts = np.random.default_rng(2).normal(size=(30, 3))
    c = kmeans(pts, 1, rng=generator("km", 13))
    assert c.k == 1
    assert np.allclose(c.centers[0], pts.mean(axis=0), atol=1e-9)


def test_restart_streams_independent_of_restart_count(blobs):
    # Each restart draws from its own derived stream, so adding restarts
    # only ever widens the search: the best BIC is monotone in restarts,
    # and a superset run can reproduce the subset run's winner exactly.
    few = kmeans(blobs, 5, restarts=1, rng=generator("km", 20))
    many = kmeans(blobs, 5, restarts=6, rng=generator("km", 20))
    assert many.bic >= few.bic


def test_restart_count_does_not_perturb_shared_restarts(blobs):
    # With sequential draws from one generator (the old behavior),
    # restart i's init depended on how many restarts ran before it.
    # Derived streams make restart i identical in both runs, so two runs
    # that both include the winning restart agree bit-for-bit.
    a = kmeans(blobs, 3, restarts=4, rng=generator("km", 21))
    b = kmeans(blobs, 3, restarts=8, rng=generator("km", 21))
    if a.bic == b.bic:
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)


def test_parallel_restarts_match_serial(blobs):
    serial = kmeans(blobs, 4, restarts=6, rng=generator("km", 22))
    forked = kmeans(
        blobs, 4, restarts=6, rng=generator("km", 22), n_jobs=3, backend="process"
    )
    assert serial.bic == forked.bic
    assert np.array_equal(serial.labels, forked.labels)
    assert np.array_equal(serial.centers, forked.centers)
    assert serial.n_iter == forked.n_iter
