"""Tests for taken/transition rates and the branch oracle meter."""

import numpy as np
import pytest

from repro.isa import NO_ADDR, NO_REG, OpClass, Trace

from ..conftest import make_trace
from .oracle import measure_branch, transition_rate


def branch_row(pc, taken):
    return (OpClass.BRANCH, 0, NO_REG, NO_REG, NO_ADDR, pc, taken)


def test_rejects_empty():
    with pytest.raises(ValueError):
        measure_branch(Trace.empty())


def test_taken_rate():
    t = make_trace([branch_row(0x10, True), branch_row(0x10, False)])
    out = measure_branch(t)
    assert out["br_taken_rate"] == pytest.approx(0.5)


def test_no_branches_all_zero():
    t = make_trace([(OpClass.IADD, 0, 1, 2)])
    out = measure_branch(t)
    assert out["br_taken_rate"] == 0.0
    assert out["br_transition_rate"] == 0.0
    assert out["ppm_gag_h12"] == 0.0


def test_transition_rate_constant_branch():
    pcs = np.zeros(10, dtype=np.int64)
    out = np.ones(10, dtype=bool)
    assert transition_rate(pcs, out) == 0.0


def test_transition_rate_alternating_branch():
    pcs = np.zeros(10, dtype=np.int64)
    out = np.tile([True, False], 5)
    assert transition_rate(pcs, out) == pytest.approx(1.0)


def test_transition_rate_is_per_static_branch():
    # Two branches, each constant, interleaved with opposite outcomes:
    # globally alternating but locally constant -> transition rate 0.
    pcs = np.tile([1, 2], 10).astype(np.int64)
    out = np.tile([True, False], 10)
    assert transition_rate(pcs, out) == 0.0


def test_transition_rate_short_input():
    assert transition_rate(np.array([1]), np.array([True])) == 0.0


def test_calls_are_not_conditional_branches():
    rows = [
        (OpClass.CALL, NO_REG, NO_REG, NO_REG, NO_ADDR, 0x10, True),
        (OpClass.IADD, 0, 1, 2),
    ]
    out = measure_branch(make_trace(rows))
    assert out["br_taken_rate"] == 0.0  # no conditional branches


def test_ppm_sample_limit_respected():
    rows = [branch_row(0x10, i % 2 == 0) for i in range(100)]
    full = measure_branch(make_trace(rows), sample_branches=100)
    sampled = measure_branch(make_trace(rows), sample_branches=10)
    # Both produce valid rates in [0, 1].
    for out in (full, sampled):
        for k, v in out.items():
            assert 0.0 <= v <= 1.0, k


def test_branch_meter_returns_14_features():
    t = make_trace([branch_row(0x10, True)])
    assert len(measure_branch(t)) == 14
