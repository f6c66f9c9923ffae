"""Round-trip persistence of streaming characterizations."""

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.io.artifacts import read_artifact
from repro.streaming import (
    load_streaming_result,
    run_streaming_characterization,
    save_streaming_result,
)
from repro.streaming.result import STREAMING_SCHEMA
from repro.suites import get_benchmark


@pytest.fixture(scope="module")
def result():
    cfg = AnalysisConfig.tiny().replace(kmeans_restarts=2, batch_intervals=5)
    benches = [get_benchmark("BMW", "face"), get_benchmark("BioPerf", "grappa")]
    return run_streaming_characterization(benches, cfg)


def test_round_trip(result, tmp_path):
    path = tmp_path / "stream.npz"
    save_streaming_result(result, path)
    loaded = load_streaming_result(path)
    np.testing.assert_array_equal(loaded.suites, result.suites)
    np.testing.assert_array_equal(loaded.benchmarks, result.benchmarks)
    np.testing.assert_array_equal(loaded.interval_indices, result.interval_indices)
    np.testing.assert_array_equal(
        loaded.clustering.labels, result.clustering.labels
    )
    np.testing.assert_array_equal(
        loaded.clustering.centers, result.clustering.centers
    )
    assert loaded.clustering.bic == result.clustering.bic
    assert loaded.clustering.inertia == result.clustering.inertia
    assert loaded.n_components == result.n_components
    assert loaded.explained_variance == result.explained_variance
    assert loaded.batch_intervals == result.batch_intervals
    assert loaded.featurize_sweeps == result.featurize_sweeps
    assert loaded.replay_sweeps == result.replay_sweeps
    assert loaded.spool_bytes == result.spool_bytes
    assert result.featurize_sweeps == 1  # default spool: one cold sweep
    np.testing.assert_array_equal(
        loaded.prominent.cluster_ids, result.prominent.cluster_ids
    )
    np.testing.assert_array_equal(
        loaded.prominent.representative_rows,
        result.prominent.representative_rows,
    )


def test_loads_pre_spool_artifacts(result, tmp_path):
    # Artifacts written before the pass-accounting fields existed load
    # with the zero defaults.
    from repro.io.artifacts import write_artifact

    path = tmp_path / "old.npz"
    save_streaming_result(result, path)
    arrays, meta = read_artifact(path, schema=STREAMING_SCHEMA)
    for key in ("featurize_sweeps", "replay_sweeps", "spool_bytes"):
        meta.pop(key)
    write_artifact(path, arrays, schema=STREAMING_SCHEMA, meta=meta)
    loaded = load_streaming_result(path)
    assert loaded.featurize_sweeps == 0
    assert loaded.replay_sweeps == 0
    assert loaded.spool_bytes == 0


def test_loads_artifacts_with_warmup_epochs(result, tmp_path):
    # Artifacts from before the mini-batch warmup was retired carry a
    # ``warmup_epochs`` meta key; it is ignored on load.
    from repro.io.artifacts import write_artifact

    path = tmp_path / "old.npz"
    save_streaming_result(result, path)
    arrays, meta = read_artifact(path, schema=STREAMING_SCHEMA)
    assert "warmup_epochs" not in meta
    meta["warmup_epochs"] = 0
    write_artifact(path, arrays, schema=STREAMING_SCHEMA, meta=meta)
    loaded = load_streaming_result(path)
    np.testing.assert_array_equal(loaded.clustering.labels, result.clustering.labels)
    assert loaded.batch_intervals == result.batch_intervals


def test_schema_tagged(result, tmp_path):
    path = tmp_path / "stream.npz"
    save_streaming_result(result, path)
    arrays, meta = read_artifact(path, schema=STREAMING_SCHEMA)
    assert "labels" in arrays and "centers" in arrays
    assert meta["batch_intervals"] == result.batch_intervals
