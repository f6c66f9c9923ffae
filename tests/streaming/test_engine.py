"""The streaming engine's approximation contract, pinned.

The exact path is the reference; these tests assert the streaming
engine's documented bounds against it on a small-but-real
configuration: BIC-selected non-empty cluster count within +-1,
cluster-composition agreement >= 95%, provenance row-for-row aligned.
On the tested configurations the streaming-Lloyd engine actually
achieves *identical* labels; the looser bounds here are the
contractual floor, not the observed gap.
"""

import numpy as np
import pytest

from repro.analysis import StreamingDriftMonitor
from repro.config import AnalysisConfig
from repro.core import build_dataset
from repro.core.pipeline import run_characterization
from repro.streaming import run_streaming_characterization
from repro.suites import SUITE_INT2000, get_suite


@pytest.fixture(scope="module")
def cfg():
    return AnalysisConfig.tiny().replace(
        intervals_per_benchmark=16,
        n_clusters=6,
        kmeans_restarts=2,
        batch_intervals=7,  # deliberately not a divisor of any block
    )


@pytest.fixture(scope="module")
def benches():
    return get_suite(SUITE_INT2000).benchmarks[:6]


@pytest.fixture(scope="module")
def exact(cfg, benches):
    return run_characterization(build_dataset(benches, cfg), cfg, select_key=False)


@pytest.fixture(scope="module")
def streamed(cfg, benches):
    return run_streaming_characterization(benches, cfg)


def composition_agreement(labels_a, labels_b):
    """Fraction of rows explained by a greedy max-overlap cluster matching."""
    cont = np.zeros((labels_a.max() + 1, labels_b.max() + 1), dtype=np.int64)
    for a, b in zip(labels_a, labels_b):
        cont[a, b] += 1
    matched = 0
    while cont.max() > 0:
        i, j = np.unravel_index(np.argmax(cont), cont.shape)
        matched += cont[i, j]
        cont[i, :] = 0
        cont[:, j] = 0
    return matched / len(labels_a)


def test_cluster_count_within_one(exact, streamed):
    exact_k = len(np.unique(exact.clustering.labels))
    stream_k = len(np.unique(streamed.clustering.labels))
    assert abs(exact_k - stream_k) <= 1


def test_composition_agreement_bound(exact, streamed):
    agreement = composition_agreement(
        exact.clustering.labels, streamed.clustering.labels
    )
    assert agreement >= 0.95


def test_space_statistics_match(exact, streamed):
    assert streamed.n_components == exact.n_components
    assert streamed.explained_variance == pytest.approx(
        exact.explained_variance, rel=1e-9
    )


def test_bic_and_inertia_match(exact, streamed):
    assert streamed.clustering.bic == pytest.approx(exact.clustering.bic, rel=1e-9)
    assert streamed.clustering.inertia == pytest.approx(
        exact.clustering.inertia, rel=1e-9
    )


def test_provenance_aligned_with_dataset(cfg, benches, streamed):
    ds = build_dataset(benches, cfg)
    np.testing.assert_array_equal(streamed.suites, ds.suites)
    np.testing.assert_array_equal(streamed.benchmarks, ds.benchmarks)
    np.testing.assert_array_equal(streamed.interval_indices, ds.interval_indices)
    assert len(streamed) == len(ds)


def test_prominent_selection_matches_exact(exact, streamed):
    np.testing.assert_array_equal(
        streamed.prominent.cluster_ids, exact.prominent.cluster_ids
    )
    np.testing.assert_allclose(
        streamed.prominent.weights, exact.prominent.weights, rtol=1e-12
    )
    np.testing.assert_array_equal(
        streamed.prominent.representative_rows,
        exact.prominent.representative_rows,
    )


def test_batch_size_does_not_change_labels(cfg, benches, streamed):
    other = run_streaming_characterization(
        benches, cfg.replace(batch_intervals=31)
    )
    np.testing.assert_array_equal(
        other.clustering.labels, streamed.clustering.labels
    )


def test_drift_monitor_sees_every_row(cfg, benches):
    monitor = StreamingDriftMonitor()
    result = run_streaming_characterization(benches, cfg, monitor=monitor)
    assert monitor.n_rows == len(result)
    # All SPECint2000 here, so generation pairs stay one-sided (None),
    # but per-benchmark centroids are live.
    centroid = monitor.centroid("SPECint2000", benches[0].name)
    assert centroid.shape == (result.n_components,)
    assert all(v is None for v in monitor.drift().values())
