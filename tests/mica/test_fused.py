"""Bit-identity of the fused whole-trace metering pass.

The fused pass (:mod:`repro.mica.fused`) must produce, for every
interval in a batch, exactly the vector the per-interval path produces
— bit for bit, not approximately.  Hypothesis drives random interval
batches (mixed lengths, shared and disjoint PC/address ranges); the
golden test pins the fused path to the same frozen vectors that pin the
per-interval meters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AnalysisConfig
from repro.mica import (
    N_FEATURES,
    batch_slices,
    characterize_interval,
    characterize_intervals,
)
from repro.mica.fused import _characterize_fused
from repro.suites import all_benchmarks

from .test_properties import random_traces

CFG = AnalysisConfig.tiny()
SETTINGS = dict(max_examples=20, deadline=None)


def _per_interval(traces, config=CFG):
    return np.vstack([characterize_interval(t, config) for t in traces])


def _fixed_trace(seed=0, n=120):
    """A deterministic valid trace for the non-hypothesis tests."""
    from repro.isa import NO_ADDR, N_REGISTERS, OpClass, Trace

    rng = np.random.default_rng(seed)
    ops = rng.integers(0, 15, n).astype(np.uint8)
    src1 = rng.integers(-1, N_REGISTERS, n).astype(np.int16)
    src2 = rng.integers(-1, N_REGISTERS, n).astype(np.int16)
    dst = rng.integers(-1, N_REGISTERS, n).astype(np.int16)
    addr = np.full(n, NO_ADDR, dtype=np.int64)
    mem = (ops == OpClass.LOAD) | (ops == OpClass.STORE)
    addr[mem] = rng.integers(0, 1 << 30, int(mem.sum()))
    pc = rng.integers(0, 1 << 20, n).astype(np.int64) * 4
    taken = np.zeros(n, dtype=bool)
    ctl = (ops == OpClass.BRANCH) | (ops == OpClass.CALL)
    taken[ctl] = rng.random(int(ctl.sum())) < 0.5
    trace = Trace(op=ops, src1=src1, src2=src2, dst=dst, addr=addr, pc=pc, taken=taken)
    trace.validate()
    return trace


@settings(**SETTINGS)
@given(st.lists(random_traces(), min_size=1, max_size=6))
def test_fused_bit_identical_to_per_interval(traces):
    fused = _characterize_fused(traces, CFG)
    expected = _per_interval(traces)
    assert fused.dtype == expected.dtype
    np.testing.assert_array_equal(fused, expected)


@settings(**SETTINGS)
@given(random_traces())
def test_fused_single_interval_matches(trace):
    fused = _characterize_fused([trace], CFG)
    np.testing.assert_array_equal(fused[0], characterize_interval(trace, CFG))


@settings(max_examples=10, deadline=None)
@given(st.lists(random_traces(min_len=4, max_len=60), min_size=2, max_size=4))
def test_fused_subsamples_like_per_interval(traces):
    # Tight ILP/PPM subsample limits exercise the leading-sample
    # selection inside the fused pass.
    config = AnalysisConfig.tiny().replace(
        ilp_sample_instructions=16, ppm_sample_branches=5
    )
    fused = _characterize_fused(traces, config)
    np.testing.assert_array_equal(fused, _per_interval(traces, config))


def test_fused_identical_traces_give_identical_rows():
    trace = _fixed_trace()
    fused = _characterize_fused([trace, trace, trace], CFG)
    np.testing.assert_array_equal(fused[0], fused[1])
    np.testing.assert_array_equal(fused[1], fused[2])


def test_fused_empty_batch():
    out = characterize_intervals([], CFG)
    assert out.shape == (0, N_FEATURES)


def test_fused_rejects_empty_trace():
    trace = _fixed_trace()
    with pytest.raises(ValueError):
        _characterize_fused([trace, trace.slice(0, 0)], CFG)


def test_fused_ppm_key_overflow_falls_back(monkeypatch):
    # Force the composite-key budget check to fail so the per-interval
    # PPM fallback runs; results must be unchanged.
    import repro.mica.fused as fused_mod

    traces = [_fixed_trace(seed, n=50 + 10 * seed) for seed in range(3)]
    expected = _characterize_fused(traces, CFG)
    monkeypatch.setattr(fused_mod, "_HISTORY_BITS", 60)
    overflowed = _characterize_fused(traces, CFG)
    np.testing.assert_array_equal(overflowed, expected)


def _count_fused_calls(monkeypatch):
    """Wrap the fused pass so a test can see which batches reached it."""
    import repro.mica.fused as fused_mod

    calls = []
    real = fused_mod._characterize_fused
    monkeypatch.setattr(
        fused_mod,
        "_characterize_fused",
        lambda traces, config: calls.append(len(traces)) or real(traces, config),
    )
    return calls


def test_characterize_intervals_dispatch(monkeypatch):
    # Every batch takes the fused pass, whatever its interval size —
    # here one paper-size (10,000-instruction) interval among small
    # ones — and stays bit-identical to the per-interval oracle.
    calls = _count_fused_calls(monkeypatch)
    traces = [_fixed_trace(0, n=10_000), _fixed_trace(1, n=200), _fixed_trace(2)]
    np.testing.assert_array_equal(
        characterize_intervals(traces, CFG), _per_interval(traces)
    )
    assert calls == [3]


def test_large_intervals_use_per_interval_engine(monkeypatch):
    # A batch of only large intervals is fused too, and its rows are
    # exactly the per-interval engine's rows for the same traces.
    calls = _count_fused_calls(monkeypatch)
    big = [_fixed_trace(7, n=6_000), _fixed_trace(8, n=12_000)]
    np.testing.assert_array_equal(characterize_intervals(big, CFG), _per_interval(big))
    assert calls == [2]


def test_exactly_max_interval_stays_fused(monkeypatch):
    """Intervals on both sides of 4,000 instructions share one fused pass.

    4,000 is where the fused pass used to hand over to the per-interval
    loop; no size boundary is left.
    """
    calls = _count_fused_calls(monkeypatch)
    around = [_fixed_trace(0, n=4_000), _fixed_trace(1, n=4_001), _fixed_trace(2, n=200)]
    np.testing.assert_array_equal(
        characterize_intervals(around, CFG), _per_interval(around)
    )
    assert calls == [3]


def test_batch_slices_cover_everything():
    import repro.mica.fused as fused_mod

    slices = batch_slices(1000, 10_000)
    covered = []
    for s in slices:
        covered.extend(range(s.start, s.stop))
    assert covered == list(range(1000))
    per_batch = fused_mod.FUSED_BATCH_INSTRUCTIONS // 10_000
    assert all(s.stop - s.start <= per_batch for s in slices)
    assert batch_slices(0, 10_000) == []
    # Oversized intervals still make progress one at a time.
    assert batch_slices(3, 10**9) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_batch_splitting_mid_benchmark_bit_identical(monkeypatch):
    """Splitting one benchmark's intervals across fused batches is invisible."""
    import repro.mica.fused as fused_mod

    monkeypatch.setattr(fused_mod, "FUSED_BATCH_INSTRUCTIONS", 700)
    traces = [_fixed_trace(seed, n=150 + 10 * seed) for seed in range(9)]
    slices = batch_slices(len(traces), 150)
    assert len(slices) > 2  # the cap actually forces mid-benchmark splits
    split = np.vstack(
        [characterize_intervals(traces[s], CFG) for s in slices]
    )
    whole = characterize_intervals(traces, CFG)
    np.testing.assert_array_equal(split, whole)
    np.testing.assert_array_equal(split, _per_interval(traces))


def test_paper_size_real_traces_match_per_interval():
    """One real interval per suite, at paper sizes, in one fused batch.

    Paper intervals build PPM context segments many scan blocks long
    and ILP/PPM subsamples well inside each interval — regimes the
    few-hundred-instruction hypothesis traces never reach.
    """
    config = AnalysisConfig.paper()
    traces = []
    seen = set()
    for bench in all_benchmarks():
        if bench.suite not in seen:
            seen.add(bench.suite)
            traces.append(
                bench.program.interval_trace(1, config.interval_instructions)
            )
    fused = _characterize_fused(traces, config)
    assert fused.shape == (len(seen), N_FEATURES)
    for row, trace in zip(fused, traces):
        np.testing.assert_array_equal(row, characterize_interval(trace, config))
