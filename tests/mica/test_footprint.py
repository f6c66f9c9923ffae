"""Known-answer tests for the memory-footprint oracle meter."""

import math

import pytest

from repro.isa import NO_REG, OpClass, Trace

from ..conftest import make_trace
from .oracle import measure_footprint


def loads_at(addresses, pc=0x1000):
    return make_trace([(OpClass.LOAD, 0, NO_REG, 1, a, pc) for a in addresses])


def test_rejects_empty():
    with pytest.raises(ValueError):
        measure_footprint(Trace.empty())


def test_single_block_data_footprint():
    t = loads_at([0x100, 0x108, 0x110])  # same 64B block
    out = measure_footprint(t)
    assert out["foot_data_64b"] == pytest.approx(math.log2(2))  # 1 block
    assert out["foot_data_4k"] == pytest.approx(math.log2(2))   # 1 page


def test_two_blocks_one_page():
    t = loads_at([0x100, 0x140])  # blocks 4 and 5, same page
    out = measure_footprint(t)
    assert out["foot_data_64b"] == pytest.approx(math.log2(3))
    assert out["foot_data_4k"] == pytest.approx(math.log2(2))


def test_pages_counted_at_4k_granularity():
    t = loads_at([0x0, 0x1000, 0x2000])
    out = measure_footprint(t)
    assert out["foot_data_4k"] == pytest.approx(math.log2(4))


def test_instruction_footprint_from_pcs():
    rows = [
        (OpClass.IADD, 0, 1, 2, -1, 0x400000),
        (OpClass.IADD, 0, 1, 2, -1, 0x400004),   # same block
        (OpClass.IADD, 0, 1, 2, -1, 0x400040),   # next block
    ]
    out = measure_footprint(make_trace(rows))
    assert out["foot_instr_64b"] == pytest.approx(math.log2(3))
    assert out["foot_instr_4k"] == pytest.approx(math.log2(2))


def test_no_memory_ops_zero_data_footprint():
    t = make_trace([(OpClass.IADD, 0, 1, 2)])
    out = measure_footprint(t)
    assert out["foot_data_64b"] == 0.0
    assert out["foot_data_4k"] == 0.0


def test_footprint_monotone_in_working_set():
    small = measure_footprint(loads_at(range(0, 1024, 8)))
    large = measure_footprint(loads_at(range(0, 65536, 8)))
    assert large["foot_data_64b"] > small["foot_data_64b"]
    assert large["foot_data_4k"] > small["foot_data_4k"]
