"""Engine/reference equivalence for the accelerated k-means.

The triangle-inequality engine must be *bit-identical* to the reference
Lloyd in ``tests/stats/oracle.py`` — labels, centers, inertia,
iteration count and the per-point assigned distances — for any input,
including the empty-cluster reseeding path.
Hypothesis drives randomized point sets through both paths; directed
cases pin the degenerate inputs and the reseeding order.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import observe
from repro.stats import clustering, kmeans
from repro.stats.clustering import Clustering
from repro.stats.kmeans_engine import (
    EngineStats,
    assign_points,
    assigned_sq_distances,
    farthest_rows,
    group_means,
    lloyd_accelerated,
)
from repro.synth import generator
from tests.stats.oracle import lloyd_reference

SETTINGS = dict(max_examples=30, deadline=None)


def assert_identical(ref, acc):
    """Both Lloyd paths returned exactly the same fit."""
    r_centers, r_labels, r_inertia, r_iter, r_sq = ref
    a_centers, a_labels, a_inertia, a_iter, a_sq = acc
    np.testing.assert_array_equal(r_labels, a_labels)
    np.testing.assert_array_equal(r_centers, a_centers)
    assert r_inertia == a_inertia
    assert r_iter == a_iter
    np.testing.assert_array_equal(r_sq, a_sq)


def kmeans_on(engine, *args, **kwargs):
    """:func:`kmeans` with every restart on one inner loop.

    ``"reference"`` swaps the engine for the oracle, so the
    restart-level fits of both can be compared through the full
    best-BIC reduction.
    """
    if engine == "accelerated":
        return kmeans(*args, **kwargs)
    with mock.patch.object(clustering, "lloyd_accelerated", lloyd_reference):
        return kmeans(*args, **kwargs)


def run_both(points, k, seed=0, max_iter=50):
    rng = np.random.default_rng(seed)
    init = points[rng.choice(len(points), size=k, replace=False)]
    ref = lloyd_reference(points, init, max_iter)
    acc = lloyd_accelerated(points, init, max_iter)
    assert_identical(ref, acc)
    return ref


@st.composite
def point_sets(draw):
    """Random (points, k) with duplicate-heavy and continuous regimes."""
    n = draw(st.integers(min_value=2, max_value=80))
    d = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=min(n, 12)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    quantize = draw(st.booleans())
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d))
    if quantize:
        # Coarse grid: many exact duplicates and exact distance ties,
        # which force the empty-cluster and tie-break paths.
        points = np.round(points)
    return points, k, seed


@given(point_sets())
@settings(**SETTINGS)
def test_engine_matches_reference(case):
    points, k, seed = case
    run_both(points, k, seed=seed)


@given(st.integers(min_value=0, max_value=2**31))
@settings(**SETTINGS)
def test_engine_matches_reference_with_restarts(seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(60, 4))
    a = kmeans_on("accelerated", points, 6, restarts=3, rng=generator("kme", seed))
    b = kmeans_on("reference", points, 6, restarts=3, rng=generator("kme", seed))
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.centers, b.centers)
    assert a.bic == b.bic
    assert a.inertia == b.inertia
    assert a.n_iter == b.n_iter
    np.testing.assert_array_equal(a.assigned_sq, b.assigned_sq)


# ---------------------------------------------------------------- degenerate


def test_duplicate_points_exceeding_k():
    # 4 distinct rows, each repeated many times, k below the multiplicity.
    base = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    points = np.repeat(base, 12, axis=0)
    for k in (2, 3, 4, 6):
        run_both(points, k, seed=k)


def test_single_feature_data():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(50, 1))
    for k in (1, 2, 7):
        run_both(points, k, seed=k)
    # Quantized single-feature (grouped-mean summation-order edge).
    run_both(np.round(points), 5, seed=11)


def test_k_equals_n():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(12, 3))
    centers, labels, inertia, _, _ = run_both(points, 12, seed=1)
    # Every point is its own cluster: zero inertia.
    assert inertia == 0.0
    assert len(np.unique(labels)) == 12


def test_all_identical_rows():
    points = np.full((20, 3), 2.5)
    for k in (1, 3, 20):
        centers, labels, inertia, _, _ = run_both(points, k, seed=k)
        assert inertia == 0.0


def test_empty_cluster_reseeding_path():
    # Quantized 1-D data with k near n produces empty clusters across
    # iterations; the two paths must still agree exactly.
    rng = np.random.default_rng(5)
    points = np.round(rng.normal(size=(40, 1)) * 2)
    for k in (10, 20, 35):
        run_both(points, k, seed=k)


# ------------------------------------------------------------- reseed order


def reference_farthest(assigned, m):
    """Full descending stable argsort — the pinned reseeding order.

    (The pre-engine implementation used the default unstable argsort,
    whose tie order among equal distances was arbitrary; the shared
    kernel fixes ties to the well-defined stable order, which both
    Lloyd paths now observe.)
    """
    return np.argsort(assigned, kind="stable")[::-1][:m]


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=12),
)
@settings(**SETTINGS)
def test_farthest_rows_matches_full_argsort(values, m):
    # Small-integer values make ties the common case, which is exactly
    # where argpartition orderings can diverge from argsort.
    assigned = np.asarray(values, dtype=np.float64)
    m = min(m, len(assigned))
    np.testing.assert_array_equal(
        farthest_rows(assigned, m), reference_farthest(assigned, m)
    )


def test_farthest_rows_all_ties():
    assigned = np.full(9, 3.0)
    np.testing.assert_array_equal(
        farthest_rows(assigned, 4), reference_farthest(assigned, 4)
    )


def test_farthest_rows_empty_and_full():
    assigned = np.array([1.0, 3.0, 2.0])
    assert len(farthest_rows(assigned, 0)) == 0
    np.testing.assert_array_equal(
        farthest_rows(assigned, 3), reference_farthest(assigned, 3)
    )


# ------------------------------------------------------------------ kernels


def test_assign_points_ties_toward_lowest_center():
    points = np.array([[0.0, 0.0]])
    centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    labels, assigned, second = assign_points(points, centers)
    assert labels[0] == 0
    assert assigned[0] == second[0] == 1.0


def test_assign_points_single_center():
    points = np.array([[3.0, 4.0], [0.0, 0.0]])
    labels, assigned, second = assign_points(points, np.zeros((1, 2)))
    np.testing.assert_array_equal(labels, [0, 0])
    np.testing.assert_allclose(assigned, [5.0, 0.0])
    assert np.isinf(second).all()


def test_group_means_keeps_empty_cluster_centers():
    points = np.array([[1.0, 1.0], [3.0, 3.0]])
    centers = np.array([[0.0, 0.0], [9.0, 9.0], [5.0, 5.0]])
    labels = np.array([0, 0])
    out = group_means(points, labels, centers)
    np.testing.assert_allclose(out[0], [2.0, 2.0])
    np.testing.assert_array_equal(out[1], [9.0, 9.0])
    np.testing.assert_array_equal(out[2], [5.0, 5.0])


def test_assigned_sq_distances_epilogue():
    points = np.array([[0.0, 0.0], [3.0, 4.0]])
    centers = np.array([[0.0, 0.0]])
    labels = np.array([0, 0])
    np.testing.assert_allclose(
        assigned_sq_distances(points, centers, labels), [0.0, 25.0]
    )


# ------------------------------------------------------ stats + early exit


def test_engine_skips_distance_rows():
    rng = np.random.default_rng(6)
    centers = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0], [30.0, 30.0]])
    points = np.vstack([c + rng.normal(size=(100, 2)) for c in centers])
    init = points[rng.choice(len(points), size=4, replace=False)]
    stats = EngineStats()
    lloyd_accelerated(points, init, 50, stats=stats)
    assert stats.runs == 1
    assert stats.iterations >= 2
    assert stats.point_rows_computed < stats.point_rows_total
    assert 0.0 < stats.skipped_ratio < 1.0
    assert stats.distance_evals_computed >= stats.point_rows_computed


def test_zero_drift_early_exit():
    # k == 1 converges after one center update; the zero-drift exit must
    # stop both paths at the same iteration count.
    rng = np.random.default_rng(7)
    points = rng.normal(size=(30, 2))
    ref = lloyd_reference(points, points[:1], 50)
    acc = lloyd_accelerated(points, points[:1], 50)
    assert_identical(ref, acc)
    assert ref[3] <= 3


# ---------------------------------------------------------------- selection


def test_resolve_engine_auto_adapts_to_shape():
    # The accelerated engine runs at every shape: the tiny preset's
    # 308 x 8 clustering and one above 40k n * k distance entries both
    # collect its bound accounting.
    rng = np.random.default_rng(8)
    for n, k in ((308, 8), (2_100, 20)):
        points = rng.normal(size=(n, 3))
        with observe() as ob:
            kmeans(points, k, restarts=1, max_iter=5, rng=generator("kme-sh", n))
        counters = ob.metrics.snapshot()["counters"]
        assert counters["kmeans.point_rows_total"] > 0
        assert counters["kmeans.point_rows_computed"] > 0


@given(point_sets())
@settings(max_examples=15, deadline=None)
def test_auto_bit_identical_to_selected_engine(case):
    # The production fit is the one the engine and the oracle agree on.
    points, k, seed = case
    auto = kmeans(points, k, restarts=2, rng=generator("kme-auto", seed))
    for engine in ("accelerated", "reference"):
        fit = kmeans_on(engine, points, k, restarts=2, rng=generator("kme-auto", seed))
        np.testing.assert_array_equal(auto.labels, fit.labels)
        np.testing.assert_array_equal(auto.centers, fit.centers)
        assert auto.bic == fit.bic
        assert auto.inertia == fit.inertia
        assert auto.n_iter == fit.n_iter


def test_kmeans_collects_engine_stats():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(60, 2))
    with observe() as ob:
        kmeans(points, 5, restarts=3, rng=generator("kme-st", 1))
    counters = ob.metrics.snapshot()["counters"]
    assert counters["kmeans.restarts"] == 3
    assert counters["kmeans.point_rows_total"] > 0


# ------------------------------------------------------------ reused values


def test_clustering_carries_assigned_sq():
    rng = np.random.default_rng(10)
    points = rng.normal(size=(50, 3))
    c = kmeans(points, 4, rng=generator("kme-sq", 1))
    assert c.assigned_sq is not None
    np.testing.assert_array_equal(
        c.assigned_sq, assigned_sq_distances(points, c.centers, c.labels)
    )
    assert c.inertia == float(c.assigned_sq.sum())


def test_representatives_without_assigned_sq_fallback():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(40, 2))
    fitted = kmeans(points, 3, rng=generator("kme-rep", 1))
    # A loaded clustering has no assigned_sq; both must agree.
    bare = Clustering(
        centers=fitted.centers,
        labels=fitted.labels,
        bic=fitted.bic,
        inertia=fitted.inertia,
        n_iter=fitted.n_iter,
    )
    np.testing.assert_array_equal(
        fitted.representatives(points), bare.representatives(points)
    )


def test_representatives_handles_empty_clusters():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    c = Clustering(
        centers=np.array([[0.0, 0.0], [5.0, 5.0], [100.0, 100.0]]),
        labels=np.array([0, 0, 1]),
        bic=0.0,
        inertia=0.0,
        n_iter=1,
    )
    reps = c.representatives(points)
    assert reps[0] == 0
    assert reps[1] == 2
    # Empty cluster falls back to the globally nearest point.
    assert reps[2] == 2
