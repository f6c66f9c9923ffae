"""Kernel/reference equivalence for the vectorized MICA meters.

The grouped-scan PPM kernel (``measure_ppm``) and the fused ILP depth
kernel (``measure_ilp``) must be *bit-identical* to the retained
sequential reference implementations, which serve as oracles, on
arbitrary traces.  Hypothesis drives randomized traces through both
paths; a few directed cases pin the edge conditions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mica import (
    IntervalProfile,
    match_producers,
    measure_ilp,
    measure_ilp_reference,
    measure_ppm,
    measure_ppm_reference,
    producer_indices_reference,
)
from tests.mica.test_properties import random_traces

SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def branch_streams(draw, max_len=300):
    """A correlated (pcs, outcomes) conditional-branch stream.

    A small static-branch pool with per-branch bias produces the history
    collisions and mixed-counter states that exercise every PPM path.
    """
    n = draw(st.integers(0, max_len))
    n_static = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    pcs = rng.integers(0, n_static, n).astype(np.int64) * 4 + 0x1000
    bias = rng.random(n_static)
    outcomes = rng.random(n) < bias[(pcs - 0x1000) // 4]
    return pcs, outcomes


@settings(**SETTINGS)
@given(branch_streams())
def test_ppm_kernel_matches_reference(stream):
    pcs, outcomes = stream
    ref = measure_ppm_reference(pcs, outcomes)
    new = measure_ppm(pcs, outcomes)
    assert set(ref) == set(new)
    for name in ref:
        assert ref[name] == new[name], name


@settings(**SETTINGS)
@given(random_traces())
def test_ilp_kernel_matches_reference(trace):
    ref = measure_ilp_reference(trace, sample_instructions=200)
    new = measure_ilp(trace, sample_instructions=200)
    assert set(ref) == set(new)
    for name in ref:
        assert new[name] == pytest.approx(ref[name], abs=1e-12), name


@settings(**SETTINGS)
@given(random_traces())
def test_ilp_kernel_with_profile_matches_reference(trace):
    profile = IntervalProfile.from_trace(trace)
    ref = measure_ilp_reference(trace, sample_instructions=150)
    new = measure_ilp(trace, sample_instructions=150, profile=profile)
    for name in ref:
        assert new[name] == pytest.approx(ref[name], abs=1e-12), name


@settings(**SETTINGS)
@given(random_traces())
def test_batched_producers_match_reference(trace):
    ref1, ref2 = producer_indices_reference(trace)
    new1, new2 = match_producers(trace)
    assert np.array_equal(ref1, new1)
    assert np.array_equal(ref2, new2)


@settings(**SETTINGS)
@given(random_traces(min_len=10))
def test_producer_prefix_property(trace):
    # Producers of a prefix are a prefix of the producers: this is what
    # lets one full-interval matching serve the ILP subsample.
    m = len(trace) // 2
    full1, full2 = match_producers(trace)
    pre1, pre2 = match_producers(trace.slice(0, m))
    assert np.array_equal(full1[:m], pre1)
    assert np.array_equal(full2[:m], pre2)


def test_ppm_empty_stream():
    empty = np.empty(0, dtype=np.int64)
    ref = measure_ppm_reference(empty, empty.astype(bool))
    new = measure_ppm(empty, empty.astype(bool))
    assert ref == new
    assert all(v == 0.0 for v in new.values())


def test_ppm_single_branch():
    pcs = np.array([0x4000], dtype=np.int64)
    outcomes = np.array([True])
    assert measure_ppm(pcs, outcomes) == measure_ppm_reference(pcs, outcomes)


def test_ppm_length_mismatch_raises():
    with pytest.raises(ValueError):
        measure_ppm(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool))
    with pytest.raises(ValueError):
        measure_ppm_reference(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool))
