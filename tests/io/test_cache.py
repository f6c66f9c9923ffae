"""Tests for persisting a run through ``characterize_to_file``'s stage checkpoints."""

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core import characterize_to_file, load_characterization
from repro.io import StageCheckpoint
from repro.obs import observe
from repro.suites import get_suite


@pytest.fixture(scope="module")
def cfg():
    return AnalysisConfig.tiny()


@pytest.fixture(scope="module")
def benches():
    return list(get_suite("BMW").benchmarks)[:2]


def _checkpoint(out, tag, cfg):
    return StageCheckpoint(f"{out}.stages", f"{tag}_{cfg.full_key()}")


def test_cache_miss_builds_and_writes(cfg, benches, tmp_path):
    out = tmp_path / "t1.npz"
    result = characterize_to_file(benches, cfg, out, suite_tag="t1", select_key=False)
    assert out.exists()
    assert _checkpoint(out, "t1", cfg).path("dataset").exists()
    assert len(result.dataset) == 2 * cfg.intervals_per_benchmark
    assert np.array_equal(load_characterization(out).dataset.features, result.dataset.features)


def test_cache_hit_loads_identical(cfg, benches, tmp_path, monkeypatch):
    out = tmp_path / "t2.npz"
    a = characterize_to_file(benches, cfg, out, suite_tag="t2", select_key=False)

    def no_build(*args, **kwargs):
        raise AssertionError("a resumed run must not re-featurize")

    monkeypatch.setattr("repro.core.pipeline.build_dataset", no_build)
    with observe(run_id="hit") as ob:
        b = characterize_to_file(benches, cfg, out, suite_tag="t2", select_key=False)
    assert np.array_equal(a.dataset.features, b.dataset.features)
    counters = ob.metrics.snapshot()["counters"]
    assert counters["checkpoint.stage_hits"] == 2  # dataset + analysis
    assert "checkpoint.stage_writes" not in counters


def test_cache_key_varies_with_featurization_params(cfg):
    other = cfg.replace(interval_instructions=cfg.interval_instructions * 2)
    assert cfg.cache_key() != other.cache_key()


def test_cache_key_ignores_analysis_params(cfg):
    other = cfg.replace(n_clusters=cfg.n_clusters + 5)
    assert cfg.cache_key() == other.cache_key()


def test_tags_separate_files(cfg, benches, tmp_path):
    out = tmp_path / "tags.npz"
    characterize_to_file(benches, cfg, out, suite_tag="a", select_key=False)
    with observe(run_id="tags") as ob:
        characterize_to_file(benches[:1], cfg, out, suite_tag="b", select_key=False)
    assert _checkpoint(out, "a", cfg).path("dataset") != _checkpoint(out, "b", cfg).path(
        "dataset"
    )
    # The other selection's checkpoints never resume.
    assert "checkpoint.stage_hits" not in ob.metrics.snapshot()["counters"]
    assert len(load_characterization(out).dataset) == cfg.intervals_per_benchmark
