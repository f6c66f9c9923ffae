"""Tests for AnalysisConfig."""

import dataclasses

import pytest

from repro.config import AnalysisConfig


def test_presets_are_valid():
    for preset in (AnalysisConfig.paper(), AnalysisConfig.small(), AnalysisConfig.tiny()):
        assert preset.interval_instructions > 0
        assert preset.n_prominent <= preset.n_clusters


def test_presets_scale_down():
    paper, small, tiny = (
        AnalysisConfig.paper(),
        AnalysisConfig.small(),
        AnalysisConfig.tiny(),
    )
    assert paper.interval_instructions > small.interval_instructions > tiny.interval_instructions
    assert paper.n_clusters > small.n_clusters > tiny.n_clusters


def test_replace_creates_modified_copy():
    cfg = AnalysisConfig.tiny()
    other = cfg.replace(n_clusters=99, n_prominent=50)
    assert other.n_clusters == 99
    assert cfg.n_clusters != 99


def test_config_is_frozen():
    cfg = AnalysisConfig.tiny()
    with pytest.raises(Exception):
        cfg.n_clusters = 5


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        AnalysisConfig(interval_instructions=0)
    with pytest.raises(ValueError):
        AnalysisConfig(intervals_per_benchmark=0)
    with pytest.raises(ValueError):
        AnalysisConfig(n_clusters=10, n_prominent=20)
    with pytest.raises(ValueError):
        AnalysisConfig(n_key_characteristics=0)
    with pytest.raises(ValueError):
        AnalysisConfig(n_key_characteristics=100)
    with pytest.raises(ValueError, match="must be one of auto, serial, process"):
        AnalysisConfig(parallel_backend="thread")


def test_ppm_sample_branches_bounded():
    # At 2**20 sampled branches one interval's PPM keys still fit int64.
    assert AnalysisConfig(ppm_sample_branches=2**20).ppm_sample_branches == 2**20
    with pytest.raises(ValueError):
        AnalysisConfig(ppm_sample_branches=2**20 + 1)


def test_execution_knobs_excluded_from_full_key():
    base = AnalysisConfig.tiny()
    assert base.full_key() == base.replace(parallel_backend="process").full_key()
    assert base.full_key() == base.replace(n_jobs=4).full_key()


#: Keys of the shipped presets, pinned so that adding or removing a
#: config field never silently re-keys caches or service jobs:
#: (featurization_key, full_key, streaming full_key).
PRESET_KEYS = {
    "paper": ("658f7106c9b48813", "89d81047990c39c1", "1031bc859caa955b"),
    "small": ("dd2bfffecd6e6456", "1d0155b7cf319b23", "659bb4ea5de6ea4c"),
    "tiny": ("8ea73473e268587a", "382159e812001f87", "b47cc1b5466e2295"),
}


@pytest.mark.parametrize("preset", sorted(PRESET_KEYS))
def test_preset_keys_pinned(preset):
    config = getattr(AnalysisConfig, preset)()
    assert (
        config.featurization_key(),
        config.full_key(),
        config.replace(streaming=True).full_key(),
    ) == PRESET_KEYS[preset]


def test_streaming_knobs_validated():
    base = AnalysisConfig.tiny()
    with pytest.raises(ValueError):
        base.replace(batch_intervals=0)
    assert base.streaming is False
    assert base.replace(streaming=True).streaming is True


def test_streaming_knobs_participate_in_full_key():
    # Streaming is an approximation, not an execution knob: results can
    # differ from the exact path, so both fields key the cache.
    base = AnalysisConfig.tiny()
    assert base.full_key() != base.replace(streaming=True).full_key()
    assert base.full_key() != base.replace(batch_intervals=512).full_key()


def test_spool_knobs_validated():
    # The spool is run-scoped scratch with no knobs: no switch, budget,
    # prefetch depth or directory is a config field.
    fields = {f.name for f in dataclasses.fields(AnalysisConfig)}
    assert not fields & {"spool", "spool_max_bytes", "prefetch", "spool_dir"}
    with pytest.raises(TypeError):
        AnalysisConfig.tiny().replace(spool_dir="/x")
