"""Tests for SyntheticProgram interval generation."""

import numpy as np
import pytest

from repro.isa import OpClass
from repro.synth import (
    Phase,
    PhaseSchedule,
    SyntheticProgram,
    matrix_kernel,
    pointer_chase_kernel,
)


@pytest.fixture
def program():
    schedule = PhaseSchedule(
        [
            Phase(matrix_kernel(seed=1), 0.5),
            Phase(pointer_chase_kernel(seed=2), 0.5),
        ]
    )
    return SyntheticProgram("two-phase", schedule, n_intervals=10, seed=42)


def test_interval_has_exact_length(program):
    t = program.interval_trace(0, 777)
    assert len(t) == 777
    t.validate()


def test_interval_index_bounds(program):
    with pytest.raises(ValueError):
        program.interval_trace(10, 100)
    with pytest.raises(ValueError):
        program.interval_trace(-1, 100)


def test_interval_size_must_be_positive(program):
    with pytest.raises(ValueError):
        program.interval_trace(0, 0)


def test_intervals_are_deterministic(program):
    a = program.interval_trace(3, 500)
    b = program.interval_trace(3, 500)
    assert (a.addr == b.addr).all()
    assert (a.pc == b.pc).all()
    assert (a.taken == b.taken).all()


def test_intervals_independent_of_generation_order(program):
    direct = program.interval_trace(7, 400)
    program.interval_trace(0, 400)
    program.interval_trace(4, 400)
    again = program.interval_trace(7, 400)
    assert (direct.addr == again.addr).all()


def test_phase_determines_interval_content(program):
    # Interval 0 is in the matrix phase (FP), interval 9 in the
    # pointer-chase phase (no FP).
    first = program.interval_trace(0, 600)
    last = program.interval_trace(9, 600)
    fp_ops = (int(OpClass.FADD), int(OpClass.FMUL), int(OpClass.FDIV), int(OpClass.FSQRT))
    assert np.isin(first.op, fp_ops).any()
    assert not np.isin(last.op, fp_ops).any()


def test_boundary_interval_mixes_phases(program):
    # With 10 intervals and a 50/50 split, the boundary sits exactly at
    # interval 5's start; use 4 intervals to land inside one.
    schedule = program.schedule
    prog = SyntheticProgram("straddle", schedule, n_intervals=3, seed=1)
    mid = prog.interval_trace(1, 900)  # covers [900, 1800); boundary at 1350
    fp_ops = (int(OpClass.FADD), int(OpClass.FMUL))
    has_fp = np.isin(mid.op, fp_ops)
    assert has_fp.any() and not has_fp.all()


def test_rejects_bad_interval_count():
    schedule = PhaseSchedule([Phase(matrix_kernel(seed=1), 1.0)])
    with pytest.raises(ValueError):
        SyntheticProgram("bad", schedule, n_intervals=0, seed=1)


def test_repr_mentions_name(program):
    assert "two-phase" in repr(program)
