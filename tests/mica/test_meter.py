"""Tests for the top-level meter, one interval at a time."""

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.isa import Trace
from repro.mica import N_FEATURES, FEATURE_INDEX, characterize_intervals, feature_names
from repro.synth import generator, pointer_chase_kernel, streaming_kernel


def measure_one(trace, config):
    return characterize_intervals([trace], config)[0]


@pytest.fixture(scope="module")
def cfg():
    return AnalysisConfig.tiny()


def test_vector_has_69_dimensions(cfg):
    t = streaming_kernel(seed=1).generate(1000, generator("m", 1))
    vec = measure_one(t, cfg)
    assert vec.shape == (N_FEATURES,)
    assert np.isfinite(vec).all()


def test_rejects_empty_interval(cfg):
    with pytest.raises(ValueError):
        measure_one(Trace.empty(), cfg)


def test_characterization_is_deterministic(cfg):
    t = pointer_chase_kernel(seed=2).generate(1000, generator("m", 2))
    a = measure_one(t, cfg)
    b = measure_one(t, cfg)
    assert (a == b).all()


def test_different_kernels_differ(cfg):
    a = measure_one(
        streaming_kernel(seed=3).generate(1000, generator("m", 3)), cfg
    )
    b = measure_one(
        pointer_chase_kernel(seed=3).generate(1000, generator("m", 3)), cfg
    )
    assert not np.allclose(a, b)


def test_probability_features_in_unit_interval(cfg):
    t = streaming_kernel(seed=4).generate(2000, generator("m", 4))
    vec = measure_one(t, cfg)
    names = feature_names()
    for i, name in enumerate(names):
        if name.startswith(("mix_", "stride_", "reg_dep_", "br_", "ppm_")):
            assert 0.0 <= vec[i] <= 1.0, name


def test_ilp_bounded_by_window(cfg):
    t = streaming_kernel(seed=5).generate(2000, generator("m", 5))
    vec = measure_one(t, cfg)
    for w in (32, 64, 128, 256):
        value = vec[FEATURE_INDEX[f"ilp_w{w}"]]
        assert 1.0 <= value <= w
