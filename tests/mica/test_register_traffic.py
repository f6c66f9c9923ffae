"""Known-answer tests for the register-traffic oracle meter."""

import pytest

from repro.isa import NO_REG, OpClass, Trace
from repro.mica import DEP_DISTANCE_BUCKETS

from ..conftest import make_trace
from .oracle import measure_register_traffic


def test_rejects_empty():
    with pytest.raises(ValueError):
        measure_register_traffic(Trace.empty())


def test_avg_input_operands():
    rows = [
        (OpClass.IADD, 1, 2, 3),        # 2 inputs
        (OpClass.IADD, 1, NO_REG, 4),   # 1 input
        (OpClass.IADD, NO_REG, NO_REG, 5),  # 0 inputs
    ]
    out = measure_register_traffic(make_trace(rows))
    assert out["reg_avg_input_operands"] == pytest.approx(1.0)


def test_degree_of_use_counts_reads_per_write():
    rows = [
        (OpClass.IADD, NO_REG, NO_REG, 7),  # write r7
        (OpClass.IADD, 7, NO_REG, 8),       # read r7 (1)
        (OpClass.IADD, 7, 7, 9),            # read r7 twice (2, 3)
    ]
    out = measure_register_traffic(make_trace(rows))
    # 3 matched reads over 3 writes.
    assert out["reg_avg_degree_use"] == pytest.approx(1.0)


def test_degree_of_use_zero_when_no_writes():
    rows = [(OpClass.STORE, 1, 2, NO_REG, 0x100, 0)]
    out = measure_register_traffic(make_trace(rows))
    assert out["reg_avg_degree_use"] == 0.0


def test_dependency_distance_buckets():
    rows = [
        (OpClass.IADD, NO_REG, NO_REG, 7),  # i=0 writes r7
        (OpClass.IADD, 7, NO_REG, 8),       # i=1: distance 1
        (OpClass.IADD, NO_REG, NO_REG, 9),
        (OpClass.IADD, NO_REG, NO_REG, 10),
        (OpClass.IADD, 7, NO_REG, 11),      # i=4: distance 4
    ]
    out = measure_register_traffic(make_trace(rows))
    # Two matched reads: distances {1, 4}.
    assert out["reg_dep_le1"] == pytest.approx(0.5)
    assert out["reg_dep_le2"] == pytest.approx(0.5)
    assert out["reg_dep_le4"] == pytest.approx(1.0)
    assert out["reg_dep_le64"] == pytest.approx(1.0)


def test_unmatched_reads_are_excluded():
    # Read of r3 with no prior write in the interval.
    rows = [(OpClass.IADD, 3, NO_REG, 4)]
    out = measure_register_traffic(make_trace(rows))
    for b in DEP_DISTANCE_BUCKETS:
        assert out[f"reg_dep_le{b}"] == 0.0


def test_distance_uses_most_recent_write():
    rows = [
        (OpClass.IADD, NO_REG, NO_REG, 7),
        (OpClass.IADD, NO_REG, NO_REG, 7),  # overwrites r7
        (OpClass.IADD, 7, NO_REG, 8),       # distance 1 (from i=1)
    ]
    out = measure_register_traffic(make_trace(rows))
    assert out["reg_dep_le1"] == pytest.approx(1.0)


def test_buckets_are_cumulative():
    rows = [(OpClass.IADD, NO_REG, NO_REG, 7)]
    rows += [(OpClass.IADD, NO_REG, NO_REG, 20)] * 10
    rows += [(OpClass.IADD, 7, NO_REG, 8)]
    out = measure_register_traffic(make_trace(rows))
    values = [out[f"reg_dep_le{b}"] for b in DEP_DISTANCE_BUCKETS]
    assert all(b >= a for a, b in zip(values, values[1:]))
