"""Worker-count invariance: parallel runs are bit-identical to serial.

The determinism guarantee of the parallel layer — per-task keyed seed
streams plus ordered reassembly — means the full pipeline produces the
same dataset, cluster assignments and BIC at any ``n_jobs``.
"""

import logging

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core import build_dataset, run_characterization
from repro.parallel import WorkerError
from repro.suites import Benchmark, get_suite


@pytest.fixture(scope="module")
def cfg():
    # Three restarts so the k-means fan-out is exercised too.
    return AnalysisConfig.tiny().replace(kmeans_restarts=3)


@pytest.fixture(scope="module")
def benches():
    return list(get_suite("BMW").benchmarks)


@pytest.fixture(scope="module")
def serial_dataset(benches, cfg):
    return build_dataset(benches, cfg.replace(n_jobs=1))


def _assert_same_dataset(a, b):
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.suites, b.suites)
    assert np.array_equal(a.benchmarks, b.benchmarks)
    assert np.array_equal(a.interval_indices, b.interval_indices)


@pytest.mark.parametrize("backend", ["process"])
def test_dataset_identical_across_worker_counts(benches, cfg, serial_dataset, backend):
    parallel = build_dataset(
        benches, cfg.replace(n_jobs=4, parallel_backend=backend)
    )
    _assert_same_dataset(serial_dataset, parallel)


def test_characterization_identical_at_n_jobs_4(benches, cfg, serial_dataset):
    serial = run_characterization(
        serial_dataset, cfg.replace(n_jobs=1), select_key=False
    )
    parallel_ds = build_dataset(
        benches, cfg.replace(n_jobs=4, parallel_backend="process")
    )
    parallel = run_characterization(
        parallel_ds, cfg.replace(n_jobs=4, parallel_backend="process"),
        select_key=False,
    )
    assert np.allclose(serial_dataset.features, parallel_ds.features)
    assert np.array_equal(serial.clustering.labels, parallel.clustering.labels)
    assert serial.clustering.bic == parallel.clustering.bic
    assert np.array_equal(serial.clustering.centers, parallel.clustering.centers)
    assert np.array_equal(serial.space, parallel.space)


def test_progress_reports_in_benchmark_order(benches, cfg, caplog):
    with caplog.at_level(logging.INFO, logger="repro.core.dataset"):
        build_dataset(benches, cfg.replace(n_jobs=2, parallel_backend="process"))
    messages = [
        r.getMessage() for r in caplog.records if r.name == "repro.core.dataset"
    ]
    assert len(messages) == len(benches)
    for bench, message in zip(benches, messages):
        assert bench.key in message


def _raising_schedule(seed):
    raise RuntimeError("synthetic schedule failure")


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_crashed_worker_surfaces_benchmark_name(cfg, backend):
    bad = Benchmark(
        suite="BMW",
        name="explodes",
        n_intervals=4,
        schedule_factory=_raising_schedule,
    )
    with pytest.raises(WorkerError) as err:
        build_dataset([bad], cfg.replace(n_jobs=2, parallel_backend=backend))
    assert err.value.label == "BMW/explodes"
    assert "synthetic schedule failure" in str(err.value)
