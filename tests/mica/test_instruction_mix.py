"""Known-answer tests for the instruction-mix oracle meter."""

import pytest

from repro.isa import NO_ADDR, NO_REG, OpClass, Trace

from ..conftest import make_trace
from .oracle import measure_instruction_mix


def test_rejects_empty_trace():
    with pytest.raises(ValueError):
        measure_instruction_mix(Trace.empty())


def test_pure_loads():
    t = make_trace([(OpClass.LOAD, 0, NO_REG, 1, 0x100, 0)] * 4)
    mix = measure_instruction_mix(t)
    assert mix["mix_mem_read"] == 1.0
    assert mix["mix_mem_write"] == 0.0
    assert mix["mix_mem"] == 1.0
    assert mix["mix_int_arith"] == 0.0


def test_half_and_half():
    rows = [(OpClass.LOAD, 0, NO_REG, 1, 0x100, 0)] * 2 + [
        (OpClass.FMUL, 1, 2, 3)
    ] * 2
    mix = measure_instruction_mix(make_trace(rows))
    assert mix["mix_mem_read"] == 0.5
    assert mix["mix_fp_mul"] == 0.5
    assert mix["mix_fp_arith"] == 0.5
    assert mix["mix_mul"] == 0.5


def test_aggregates_sum_components():
    rows = [
        (OpClass.IADD, 0, 1, 2),
        (OpClass.IMUL, 0, 1, 2),
        (OpClass.IDIV, 0, 1, 2),
        (OpClass.SHIFT, 0, 1, 2),
        (OpClass.LOGIC, 0, 1, 2),
    ]
    mix = measure_instruction_mix(make_trace(rows))
    assert mix["mix_int_arith"] == pytest.approx(1.0)
    assert mix["mix_int_add"] == pytest.approx(0.2)
    assert mix["mix_mul"] == pytest.approx(0.2)
    assert mix["mix_div"] == pytest.approx(0.2)


def test_mul_and_div_combine_int_and_fp():
    rows = [
        (OpClass.IMUL, 0, 1, 2),
        (OpClass.FMUL, 0, 1, 2),
        (OpClass.IDIV, 0, 1, 2),
        (OpClass.FDIV, 0, 1, 2),
    ]
    mix = measure_instruction_mix(make_trace(rows))
    assert mix["mix_mul"] == pytest.approx(0.5)
    assert mix["mix_div"] == pytest.approx(0.5)


def test_branch_and_call_fractions():
    rows = [
        (OpClass.BRANCH, 0, NO_REG, NO_REG, NO_ADDR, 0x10, True),
        (OpClass.CALL, NO_REG, NO_REG, NO_REG, NO_ADDR, 0x20, True),
        (OpClass.IADD, 0, 1, 2),
        (OpClass.IADD, 0, 1, 2),
    ]
    mix = measure_instruction_mix(make_trace(rows))
    assert mix["mix_branch"] == pytest.approx(0.25)
    assert mix["mix_call"] == pytest.approx(0.25)


def test_all_mix_features_are_fractions():
    rows = [
        (OpClass.LOAD, 0, NO_REG, 1, 0x100, 0),
        (OpClass.STORE, 0, 1, NO_REG, 0x200, 4),
        (OpClass.CMOV, 0, 1, 2),
        (OpClass.OTHER, NO_REG, NO_REG, NO_REG),
        (OpClass.FSQRT, 0, NO_REG, 1),
    ]
    mix = measure_instruction_mix(make_trace(rows))
    for name, value in mix.items():
        assert 0.0 <= value <= 1.0, name
    assert mix["mix_cmov"] == pytest.approx(0.2)
    assert mix["mix_other"] == pytest.approx(0.2)
    assert mix["mix_fp_sqrt"] == pytest.approx(0.2)
