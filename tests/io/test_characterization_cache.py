"""Tests for the two reuse layers under ``characterize_to_file``.

Stage checkpoints (keyed by the full config) resume the analysis and GA
stages; feature blocks (keyed by the featurization config) hold the rows
and survive an analysis-parameter change, so re-clustering never
re-featurizes.
"""

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core import characterize_to_file
from repro.io import FeatureBlockCache, StageCheckpoint, feature_block_dir
from repro.obs import observe
from repro.suites import get_suite


@pytest.fixture(scope="module")
def cfg():
    return AnalysisConfig.tiny()


@pytest.fixture(scope="module")
def benches():
    return list(get_suite("MediaBenchII").benchmarks)[:3]


def test_miss_builds_both_cache_layers(cfg, benches, tmp_path):
    out = tmp_path / "c1.npz"
    result = characterize_to_file(
        benches,
        cfg,
        out,
        suite_tag="c1",
        select_key=False,
        feature_cache=FeatureBlockCache(feature_block_dir(tmp_path)),
    )
    assert out.exists()
    checkpoint = StageCheckpoint(f"{out}.stages", f"c1_{cfg.full_key()}")
    assert checkpoint.path("analysis").exists()
    # The rows live in the blocks only: no dataset stage file.
    assert not checkpoint.path("dataset").exists()
    # The feature-block layer is filled too, so re-clustering with
    # different analysis params would skip featurization.
    assert len(list(feature_block_dir(tmp_path).glob("block_*.npz"))) == 3
    assert len(result.dataset) == 3 * cfg.intervals_per_benchmark


def test_hit_returns_identical_clustering(cfg, benches, tmp_path):
    out = tmp_path / "c2.npz"
    a = characterize_to_file(benches, cfg, out, suite_tag="c2", select_key=False)
    b = characterize_to_file(benches, cfg, out, suite_tag="c2", select_key=False)
    assert np.array_equal(a.clustering.labels, b.clustering.labels)
    assert np.array_equal(a.space, b.space)


def test_full_key_differs_from_cache_key(cfg):
    # Changing an analysis-only parameter changes full_key (so the stage
    # checkpoints miss) but not featurization_key (so feature blocks hit).
    other = cfg.replace(n_clusters=cfg.n_clusters + 1)
    assert cfg.full_key() != other.full_key()
    assert cfg.featurization_key() == other.featurization_key()


def test_analysis_param_change_reuses_dataset(cfg, benches, tmp_path):
    blocks = FeatureBlockCache(feature_block_dir(tmp_path))
    first = characterize_to_file(
        benches, cfg, tmp_path / "a.npz", suite_tag="c3", select_key=False,
        feature_cache=blocks,
    )
    other = cfg.replace(n_clusters=cfg.n_clusters + 1)
    with observe(run_id="c3") as ob:
        second = characterize_to_file(
            benches, other, tmp_path / "b.npz", suite_tag="c3", select_key=False,
            feature_cache=blocks,
        )
    counters = ob.metrics.snapshot()["counters"]
    assert counters.get("feature_blocks.interval_misses", 0) == 0  # featurized once
    assert counters["feature_blocks.interval_hits"] == len(first.dataset)
    assert "checkpoint.stage_hits" not in counters  # one run key per analysis config
    assert np.array_equal(first.dataset.features, second.dataset.features)
