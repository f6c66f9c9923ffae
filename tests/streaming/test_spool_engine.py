"""The feature spool's engine-level contract: featurize once, change nothing.

Every test here pins *bit-identity* against recompute-per-pass, not
approximate agreement, across batch sizes, corruption and cross-run
reuse through the feature-block cache.  Recompute-per-pass is the production
fallback a spool that fails verification takes: ``forced_miss`` makes
every replay miss, so every sweep featurizes.
"""

import contextlib

import numpy as np
import pytest

import repro.core.dataset as dataset_mod
from repro.analysis import StreamingDriftMonitor
from repro.config import AnalysisConfig
from repro.core.dataset import build_sampling_plan, iter_feature_batches
from repro.io import FeatureBlockCache
from repro.io.spool import FeatureSpool
from repro.obs import observe
from repro.streaming import run_streaming_characterization
from repro.streaming.source import RAW_KIND
from repro.suites import SUITE_INT2000, get_suite

from ..io.faults import bit_flip


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
    return get_suite(SUITE_INT2000).benchmarks[:4]


@pytest.fixture(scope="module")
def baseline(cfg, benches):
    """A default run: featurize once, replay every later sweep."""
    return run_streaming_characterization(benches, cfg)


@contextlib.contextmanager
def forced_miss():
    """Make every spool replay miss, as a failed verification does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FeatureSpool, "open_replay", lambda self, kind, n_cols: None)
        yield


def assert_identical(a, b):
    np.testing.assert_array_equal(a.clustering.labels, b.clustering.labels)
    np.testing.assert_array_equal(a.clustering.centers, b.clustering.centers)
    assert a.clustering.bic == b.clustering.bic
    assert a.clustering.inertia == b.clustering.inertia
    assert a.n_components == b.n_components
    assert a.explained_variance == b.explained_variance
    np.testing.assert_array_equal(a.prominent.cluster_ids, b.prominent.cluster_ids)
    np.testing.assert_array_equal(a.prominent.weights, b.prominent.weights)
    np.testing.assert_array_equal(
        a.prominent.representative_rows, b.prominent.representative_rows
    )


@pytest.mark.parametrize("batch_intervals", [1, 13, 64])
def test_bit_identity_holds_at_any_batch_size(cfg, benches, batch_intervals):
    # Replay vs recompute at the same batch size (batch size itself is
    # a result knob: it fixes the fold order).
    local = cfg.replace(batch_intervals=batch_intervals)
    replayed = run_streaming_characterization(benches, local)
    with forced_miss():
        recomputed = run_streaming_characterization(benches, local)
    assert replayed.replay_sweeps > 0
    assert recomputed.replay_sweeps == 0
    assert_identical(replayed, recomputed)


def _count_featurize_calls(monkeypatch):
    """Count invocations of the fused MICA meter entry point."""
    calls = []
    real = dataset_mod.characterize_intervals

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dataset_mod, "characterize_intervals", wrapper)
    return calls


def test_spool_featurizes_exactly_one_sweep(cfg, benches, monkeypatch):
    # The acceptance criterion: after the first sweep, refinement and
    # scoring invoke no trace generation and no MICA meters — the total
    # meter-call count over the whole run equals one plain sweep's.
    calls = _count_featurize_calls(monkeypatch)
    plan = build_sampling_plan(benches, cfg)
    for _ in iter_feature_batches(plan, cfg):
        pass
    one_sweep = len(calls)
    assert one_sweep > 0
    calls.clear()
    result = run_streaming_characterization(benches, cfg)
    assert len(calls) == one_sweep
    assert result.featurize_sweeps == 1
    assert result.replay_sweeps >= 2
    assert result.spool_bytes > 0


def test_without_spool_every_pass_featurizes(cfg, benches, baseline, monkeypatch):
    calls = _count_featurize_calls(monkeypatch)
    plan = build_sampling_plan(benches, cfg)
    for _ in iter_feature_batches(plan, cfg):
        pass
    one_sweep = len(calls)
    calls.clear()
    with forced_miss():
        result = run_streaming_characterization(benches, cfg)
    assert result.featurize_sweeps > 1
    assert len(calls) == one_sweep * result.featurize_sweeps
    assert result.replay_sweeps == 0
    assert_identical(result, baseline)


def test_scoring_and_drift_share_one_sweep(cfg, benches):
    # The drift monitor rides the scoring sweep; feeding it fully
    # costs zero extra passes (sweeps == 2 + refine).
    monitor = StreamingDriftMonitor()
    with observe() as ob:
        result = run_streaming_characterization(benches, cfg, monitor=monitor)
    passes = ob.metrics.gauge_value("streaming.refine_passes")
    assert passes >= 1
    assert result.featurize_sweeps + result.replay_sweeps == 2 + passes
    assert monitor.n_rows == len(result)


def test_mid_run_corruption_quarantines_and_recomputes(
    cfg, benches, baseline, monkeypatch
):
    # Flip a bit in the sealed raw payload the first time a replay
    # opens it: verification must catch it, quarantine the payload, and
    # the run must recompute to a bit-identical result.
    real_open = FeatureSpool.open_replay
    flipped = []

    def corrupting(self, kind, n_cols):
        if kind == RAW_KIND and not flipped and self.data_path(kind).exists():
            bit_flip(self.data_path(kind), offset=321)
            flipped.append(True)
        return real_open(self, kind, n_cols)

    monkeypatch.setattr(FeatureSpool, "open_replay", corrupting)
    with observe() as ob:
        result = run_streaming_characterization(benches, cfg)
    assert flipped, "corruption hook never fired"
    assert ob.metrics.counter_value("spool.quarantined") == 1
    assert result.featurize_sweeps == 2  # cold sweep + post-quarantine recompute
    assert_identical(result, baseline)


def test_warm_feature_cache_rerun_featurizes_nothing(
    cfg, benches, baseline, tmp_path, monkeypatch
):
    # Feature blocks are the one cross-run store: a rerun on a warm
    # cache serves every interval from its blocks, so it generates no
    # trace and runs no meter, and still gets the same bits.
    cache = FeatureBlockCache(tmp_path / "blocks")
    first = run_streaming_characterization(benches, cfg, feature_cache=cache)

    calls = _count_featurize_calls(monkeypatch)
    with observe() as ob:
        second = run_streaming_characterization(benches, cfg, feature_cache=cache)
    assert calls == []
    assert ob.metrics.counter_value("streaming.intervals_characterized") == 0
    assert_identical(second, first)
    assert_identical(second, baseline)


def test_temp_spool_is_cleaned_up(cfg, benches, tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    run_streaming_characterization(benches, cfg)
    assert list(tmp_path.glob("repro-spool-*")) == []


def test_spool_counters(cfg, benches):
    with observe() as ob:
        run_streaming_characterization(benches, cfg)
    m = ob.metrics
    assert m.counter_value("spool.misses") == 2  # one cold sweep per kind
    assert m.counter_value("spool.hits") >= 2
    assert m.counter_value("spool.bytes") > 0
    assert m.counter_value("spool.quarantined") == 0
    assert m.counter_value("prefetch.batches") > 0
    assert m.gauge_value("streaming.featurize_sweeps") == 1
