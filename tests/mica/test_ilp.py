"""Known-answer tests for the inherent-ILP meter (the fused pass's ILP)."""

import pytest

from repro.isa import NO_REG, OpClass, Trace
from repro.mica import WINDOW_SIZES, match_producers

from ..conftest import make_trace, measure


def measure_ilp(trace, sample_instructions=2_000):
    return measure(trace, ilp_sample_instructions=sample_instructions)


def chain_trace(n):
    """r1 = r1 + r1 repeated: a pure serial dependence chain."""
    return make_trace([(OpClass.IADD, 1, 1, 1)] * n)


def independent_trace(n):
    """n instructions with no register operands: fully parallel."""
    return make_trace([(OpClass.IADD, NO_REG, NO_REG, NO_REG)] * n)


def test_rejects_empty():
    with pytest.raises(ValueError):
        measure_ilp(Trace.empty())


def test_serial_chain_has_ipc_one():
    ilp = measure_ilp(chain_trace(256))
    for w in WINDOW_SIZES:
        assert ilp[f"ilp_w{w}"] == pytest.approx(1.0)


def test_independent_stream_has_ipc_window():
    ilp = measure_ilp(independent_trace(256))
    for w in WINDOW_SIZES:
        # Each W-instruction block completes in 1 cycle.
        assert ilp[f"ilp_w{w}"] == pytest.approx(w, rel=0.01)


def test_larger_windows_never_hurt():
    rows = []
    for i in range(200):
        if i % 3 == 0:
            rows.append((OpClass.IADD, 1, 1, 1))
        else:
            rows.append((OpClass.IADD, NO_REG, NO_REG, 2))
    ilp = measure_ilp(make_trace(rows))
    values = [ilp[f"ilp_w{w}"] for w in WINDOW_SIZES]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_two_parallel_chains_have_ipc_two():
    rows = []
    for _ in range(128):
        rows.append((OpClass.IADD, 1, 1, 1))
        rows.append((OpClass.IADD, 2, 2, 2))
    ilp = measure_ilp(make_trace(rows))
    assert ilp["ilp_w64"] == pytest.approx(2.0, rel=0.05)


def test_sampling_limits_work():
    t = chain_trace(5000)
    ilp = measure_ilp(t, sample_instructions=100)
    assert ilp["ilp_w32"] == pytest.approx(1.0)


def test_producer_indices_simple_chain():
    t = make_trace(
        [
            (OpClass.IADD, NO_REG, NO_REG, 5),
            (OpClass.IADD, 5, NO_REG, 6),
            (OpClass.IADD, 5, 6, 7),
        ]
    )
    p1, p2 = match_producers(t)
    assert p1.tolist() == [-1, 0, 0]
    assert p2.tolist() == [-1, -1, 1]


def test_producer_indices_respects_overwrites():
    t = make_trace(
        [
            (OpClass.IADD, NO_REG, NO_REG, 5),
            (OpClass.IADD, NO_REG, NO_REG, 5),
            (OpClass.IADD, 5, NO_REG, 6),
        ]
    )
    p1, _ = match_producers(t)
    assert p1[2] == 1  # reads the most recent write


def test_window_boundary_resets_dependences():
    # A chain of length 64: with window 32, each block's internal depth
    # is 32 (producers in the previous block are "ready").
    ilp = measure_ilp(chain_trace(64))
    # 64 instructions / (32 + 32) cycles = 1.0
    assert ilp["ilp_w32"] == pytest.approx(1.0)
