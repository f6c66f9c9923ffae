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

from repro.isa import NO_ADDR, OpClass, Trace, concat
from repro.mica import (
    IntervalProfile,
    match_producers,
    measure_ilp,
    measure_ilp_reference,
    measure_ppm,
    measure_ppm_reference,
    producer_indices_reference,
)
from repro.mica.ppm import _COUNTER_MAX, _SCAN_BLOCK, counters_before
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


@st.composite
def counter_segments(draw):
    """``(deltas, starts)`` for a run of table-context segments.

    Segment lengths span 0 to 3 scan blocks, so segments start and end
    at every offset within a block and cross up to three block edges.
    """
    lengths = draw(
        st.lists(st.integers(0, 3 * _SCAN_BLOCK), min_size=1, max_size=8).filter(
            lambda ls: sum(ls) > 0
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    bias = draw(st.sampled_from([0.1, 0.5, 0.9]))
    n = sum(lengths)
    deltas = np.where(rng.random(n) < bias, np.int16(1), np.int16(-1))
    starts = np.zeros(n, dtype=bool)
    starts[np.cumsum([0] + lengths[:-1])[np.array(lengths) > 0]] = True
    return deltas, starts


@settings(max_examples=60, deadline=None)
@given(counter_segments())
def test_counter_scan_matches_sequential_clamp(segments):
    deltas, starts = segments
    expected = np.empty(len(deltas), dtype=np.int16)
    counter = 0
    for i, delta in enumerate(deltas.tolist()):
        if starts[i]:
            counter = 0
        expected[i] = counter
        counter = max(-_COUNTER_MAX, min(_COUNTER_MAX, counter + delta))
    got = counters_before(deltas, starts)
    assert got.dtype == np.int16
    np.testing.assert_array_equal(got, expected)


def _register_trace(src1, src2, dst):
    n = len(dst)
    return Trace(
        op=np.full(n, int(OpClass.IADD), dtype=np.uint8),
        src1=np.array(src1, dtype=np.int16),
        src2=np.array(src2, dtype=np.int16),
        dst=np.array(dst, dtype=np.int16),
        addr=np.full(n, NO_ADDR, dtype=np.int64),
        pc=np.arange(n, dtype=np.int64) * 4,
        taken=np.zeros(n, dtype=bool),
    )


def test_match_producers_same_position_read_and_write():
    # r1 = r1 + r1 reads the earlier r1, never its own write; an
    # interval boundary hides every write before it.
    trace = _register_trace(
        src1=[-1, 1, 1, 1, 2],
        src2=[-1, 1, -1, 2, 1],
        dst=[1, 1, 2, 1, 1],
    )
    p1, p2 = match_producers(trace)
    np.testing.assert_array_equal(p1, [-1, 0, 1, 1, 2])
    np.testing.assert_array_equal(p2, [-1, 0, -1, 2, 3])
    iv = np.array([0, 0, 0, 1, 1])
    q1, q2 = match_producers(trace, iv)
    np.testing.assert_array_equal(q1, [-1, 0, 1, -1, -1])
    np.testing.assert_array_equal(q2, [-1, 0, -1, -1, 3])


@settings(**SETTINGS)
@given(
    st.lists(st.integers(1, 80), min_size=1, max_size=5),
    st.integers(0, 2**31),
)
def test_match_producers_interval_tagged_mix(lengths, seed):
    # Three registers (plus absent operands) make reads and writes of
    # the same register collide constantly, including a read and a
    # write of one register by one instruction.
    rng = np.random.default_rng(seed)
    traces = []
    for n in lengths:
        src1 = rng.integers(-1, 3, n)
        dst = np.where(rng.random(n) < 0.3, src1, rng.integers(-1, 3, n))
        traces.append(_register_trace(src1, rng.integers(-1, 3, n), dst))
    whole = concat(traces)
    iv = np.repeat(np.arange(len(lengths)), lengths)
    p1, p2 = match_producers(whole, iv)
    start = 0
    for trace in traces:
        n = len(trace)
        ref1, ref2 = producer_indices_reference(trace)
        np.testing.assert_array_equal(match_producers(trace)[0], ref1)
        np.testing.assert_array_equal(match_producers(trace)[1], ref2)
        np.testing.assert_array_equal(
            p1[start:start + n], np.where(ref1 >= 0, ref1 + start, -1)
        )
        np.testing.assert_array_equal(
            p2[start:start + n], np.where(ref2 >= 0, ref2 + start, -1)
        )
        start += n
