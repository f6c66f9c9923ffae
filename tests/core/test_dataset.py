"""Tests for dataset assembly."""

import numpy as np
import pytest

import repro.mica.fused as fused
from repro.config import AnalysisConfig
from repro.core import WorkloadDataset, build_dataset
from repro.mica import N_FEATURES, batch_slices
from repro.obs import observe
from repro.suites import get_benchmark


@pytest.fixture(scope="module")
def cfg():
    return AnalysisConfig.tiny()


@pytest.fixture(scope="module")
def two_bench_dataset(cfg):
    benches = [
        get_benchmark("BMW", "face"),
        get_benchmark("BioPerf", "grappa"),
    ]
    return build_dataset(benches, cfg)


def test_shape(two_bench_dataset, cfg):
    assert len(two_bench_dataset) == 2 * cfg.intervals_per_benchmark
    assert two_bench_dataset.features.shape[1] == N_FEATURES


def test_equal_rows_per_benchmark(two_bench_dataset, cfg):
    keys, counts = np.unique(two_bench_dataset.benchmark_keys, return_counts=True)
    assert len(keys) == 2
    assert (counts == cfg.intervals_per_benchmark).all()


def test_suite_names_order(two_bench_dataset):
    assert two_bench_dataset.suite_names() == ["BMW", "BioPerf"]


def test_row_masks(two_bench_dataset, cfg):
    mask = two_bench_dataset.rows_for_benchmark("BMW", "face")
    assert mask.sum() == cfg.intervals_per_benchmark
    assert two_bench_dataset.rows_for_suite("BioPerf").sum() == cfg.intervals_per_benchmark


def test_features_finite(two_bench_dataset):
    assert np.isfinite(two_bench_dataset.features).all()


def test_build_is_deterministic(cfg):
    benches = [get_benchmark("BMW", "speak")]
    a = build_dataset(benches, cfg)
    b = build_dataset(benches, cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.interval_indices, b.interval_indices)


def test_duplicate_picks_share_rows(cfg):
    # ce has 4 intervals but tiny config samples 4; use a config that
    # forces replacement.
    forced = cfg.replace(intervals_per_benchmark=10)
    ds = build_dataset([get_benchmark("BioPerf", "ce")], forced)
    assert len(ds) == 10
    # Duplicated interval indices must have identical feature rows.
    for idx in np.unique(ds.interval_indices):
        rows = ds.features[ds.interval_indices == idx]
        assert (rows == rows[0]).all()


def test_rejects_empty_benchmark_list(cfg):
    with pytest.raises(ValueError):
        build_dataset([], cfg)


def test_progress_callback_invoked(cfg):
    messages = []
    build_dataset([get_benchmark("BMW", "gait")], cfg, progress=messages.append)
    assert len(messages) == 1
    assert "BMW/gait" in messages[0]


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def test_synth_generate_span_per_fused_batch(cfg, monkeypatch):
    # Two intervals per fused batch, so each benchmark takes several.
    monkeypatch.setattr(fused, "FUSED_BATCH_INSTRUCTIONS", 2 * cfg.interval_instructions)
    benches = [get_benchmark("BMW", "face"), get_benchmark("BioPerf", "grappa")]
    with observe() as ob:
        build_dataset(benches, cfg)
    mica = [s for s in _walk(ob.root) if s.name == "mica"]
    nested = [c for m in mica for c in m.children if c.name == "synth.generate"]
    every = [s for s in _walk(ob.root) if s.name == "synth.generate"]
    assert len(nested) == len(every)
    characterized = [m.attrs["characterized"] for m in mica]
    n_batches = sum(len(batch_slices(n, cfg.interval_instructions)) for n in characterized)
    assert n_batches > len(benches)
    assert len(every) == n_batches
    assert sum(s.attrs["intervals"] for s in every) == sum(characterized)
    counters = ob.metrics.snapshot()["counters"]
    assert sum(characterized) == counters["dataset.intervals_characterized"]
    for s in every:
        assert s.attrs["instructions"] == s.attrs["intervals"] * cfg.interval_instructions


def test_dataset_field_validation():
    with pytest.raises(ValueError):
        WorkloadDataset(
            features=np.zeros((3, N_FEATURES)),
            suites=np.array(["a", "b"]),
            benchmarks=np.array(["x", "y", "z"]),
            interval_indices=np.zeros(3, dtype=np.int64),
        )
    with pytest.raises(ValueError):
        WorkloadDataset(
            features=np.zeros((2, 5)),
            suites=np.array(["a", "b"]),
            benchmarks=np.array(["x", "y"]),
            interval_indices=np.zeros(2, dtype=np.int64),
        )
