"""Feature-block cache: persistence, keying, and zero re-featurization."""

import numpy as np
import pytest

import repro.core.dataset as dataset_mod
from repro.config import AnalysisConfig
from repro.core import build_dataset
from repro.io import FeatureBlockCache, feature_block_dir
from repro.mica import N_FEATURES
from repro.obs import observe
from repro.suites import all_benchmarks

CFG = AnalysisConfig.tiny()


@pytest.fixture
def cache(tmp_path):
    return FeatureBlockCache(tmp_path / "blocks")


def _vec(seed):
    return np.random.default_rng(seed).random(N_FEATURES)


class TestFeatureBlockCache:
    def test_miss_returns_empty(self, cache):
        assert cache.load("Suite/bench", CFG) == {}

    def test_store_load_roundtrip(self, cache):
        entries = {0: _vec(0), 7: _vec(7), 3: _vec(3)}
        cache.store("Suite/bench", CFG, entries)
        loaded = cache.load("Suite/bench", CFG)
        assert sorted(loaded) == [0, 3, 7]
        for idx, vec in entries.items():
            assert np.array_equal(loaded[idx], vec)

    def test_store_merges_grow_only(self, cache):
        cache.store("Suite/bench", CFG, {0: _vec(0)})
        cache.store("Suite/bench", CFG, {2: _vec(2), 0: _vec(99)})
        loaded = cache.load("Suite/bench", CFG)
        assert sorted(loaded) == [0, 2]
        # Latest store wins for an overlapping index.
        assert np.array_equal(loaded[0], _vec(99))

    def test_blocks_keyed_by_benchmark_and_featurization(self, cache):
        cache.store("A/x", CFG, {0: _vec(1)})
        assert cache.load("B/x", CFG) == {}
        bigger = CFG.replace(interval_instructions=CFG.interval_instructions * 2)
        assert cache.load("A/x", bigger) == {}

    def test_analysis_side_changes_share_a_key(self):
        # Seed, interval count, and clustering knobs do not affect a
        # single interval's vector, so they must not split the blocks.
        base = CFG.featurization_key()
        assert CFG.replace(seed=CFG.seed + 1).featurization_key() == base
        assert (
            CFG.replace(
                intervals_per_benchmark=CFG.intervals_per_benchmark + 3
            ).featurization_key()
            == base
        )
        assert (
            CFG.replace(interval_instructions=CFG.interval_instructions * 2)
            .featurization_key()
            != base
        )

    def test_corrupt_block_treated_as_miss(self, cache):
        cache.store("Suite/bench", CFG, {0: _vec(0)})
        path = cache.path("Suite/bench", CFG)
        path.write_bytes(b"not an npz")
        assert cache.load("Suite/bench", CFG) == {}
        # And the next store heals it.
        cache.store("Suite/bench", CFG, {1: _vec(1)})
        assert sorted(cache.load("Suite/bench", CFG)) == [1]

    def test_feature_block_dir_helper(self, tmp_path):
        assert feature_block_dir(tmp_path) == tmp_path / "feature_blocks"


@pytest.fixture
def counting(monkeypatch):
    """Patch characterize_intervals in the dataset module with a counter.

    The builder featurizes in batches; one entry is recorded per
    interval so ``len(counting)`` is the number of intervals
    featurized, regardless of how they were batched.
    """
    calls = []
    real = dataset_mod.characterize_intervals

    def counted(traces, config):
        calls.extend(len(trace) for trace in traces)
        return real(traces, config)

    monkeypatch.setattr(dataset_mod, "characterize_intervals", counted)
    return calls


class TestBuildDatasetWithCache:
    BENCHES = 3

    def _benches(self):
        return all_benchmarks()[: self.BENCHES]

    def test_cold_build_counts_one_miss_and_one_store_per_benchmark(self, cache):
        # The store's merge re-reads the block without counting a lookup.
        with observe(run_id="cold") as ob:
            build_dataset(self._benches(), CFG, feature_cache=cache)
        counters = ob.metrics.snapshot()["counters"]
        assert counters["feature_blocks.block_misses"] == self.BENCHES
        assert counters["feature_blocks.stores"] == self.BENCHES
        assert "feature_blocks.block_hits" not in counters

    def test_warm_rerun_refeaturizes_nothing(self, cache, counting):
        benches = self._benches()
        cold = build_dataset(benches, CFG, feature_cache=cache)
        assert counting, "cold build must characterize intervals"
        n_cold = len(counting)
        counting.clear()

        warm = build_dataset(benches, CFG, feature_cache=cache)
        assert counting == [], f"warm build re-featurized {len(counting)} intervals"
        assert np.array_equal(cold.features, warm.features)
        assert n_cold > 0

    def test_analysis_side_config_change_reuses_all_vectors(self, cache, counting):
        # Clustering/PCA/GA knobs touch neither the sampling nor a
        # single interval's vector, so a rerun after changing them must
        # perform zero re-featurization.
        benches = self._benches()
        build_dataset(benches, CFG, feature_cache=cache)
        counting.clear()

        analysis_tweaked = CFG.replace(
            n_clusters=CFG.n_clusters + 4,
            pca_min_std=2.0,
            ga_generations=CFG.ga_generations + 2,
        )
        build_dataset(benches, analysis_tweaked, feature_cache=cache)
        assert counting == []

    def test_reseeded_run_reuses_overlapping_intervals(self, cache, counting):
        # A new seed draws different intervals, but any overlap with a
        # previous run is served from the blocks (featurization_key
        # excludes the seed), so the rerun computes strictly fewer
        # intervals than a cold build would.
        benches = self._benches()
        build_dataset(benches, CFG, feature_cache=cache)
        counting.clear()

        reseeded = CFG.replace(seed=CFG.seed + 1)
        build_dataset(benches, reseeded, feature_cache=cache)
        rerun_calls = list(counting)
        counting.clear()

        cold = build_dataset(benches, reseeded, feature_cache=None)
        assert len(rerun_calls) < len(counting)
        assert len(cold) > 0

    def test_partial_reuse_computes_only_new_intervals(self, cache, counting):
        benches = self._benches()
        # Prime each block with exactly one interval the build will pick.
        total_unique = 0
        for bench in benches:
            picks = dataset_mod.sample_interval_indices(
                bench, CFG.intervals_per_benchmark, seed=CFG.seed
            )
            unique = np.unique(picks)
            total_unique += len(unique)
            idx = int(unique[0])
            trace = bench.program.interval_trace(idx, CFG.interval_instructions)
            cache.store(
                bench.key, CFG, {idx: dataset_mod.characterize_intervals([trace], CFG)[0]}
            )
        counting.clear()

        build_dataset(benches, CFG, feature_cache=cache)
        assert len(counting) == total_unique - len(benches)

    def test_cache_matches_uncached_build(self, cache):
        benches = self._benches()
        plain = build_dataset(benches, CFG)
        cached = build_dataset(benches, CFG, feature_cache=cache)
        assert np.array_equal(plain.features, cached.features)
        assert np.array_equal(plain.interval_indices, cached.interval_indices)
