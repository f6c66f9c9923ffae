"""Property-based tests for the MICA pass.

Hypothesis generates random (but valid) traces; every characteristic
must be finite, within its documented range, and internally consistent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AnalysisConfig
from repro.isa import NO_ADDR, N_REGISTERS, OpClass, Trace
from repro.mica import characterize_intervals, feature_names

from ..conftest import measure

CFG = AnalysisConfig.tiny()
SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def random_traces(draw, min_len=4, max_len=400):
    """A random valid trace."""
    n = draw(st.integers(min_len, max_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
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
@given(random_traces())
def test_feature_vector_always_finite_and_in_range(trace):
    vec = characterize_intervals([trace], CFG)[0]
    assert np.isfinite(vec).all()
    names = feature_names()
    for i, name in enumerate(names):
        if name.startswith(("mix_", "stride_", "reg_dep_", "br_", "ppm_")):
            assert 0.0 <= vec[i] <= 1.0, name
        elif name.startswith("ilp_"):
            window = int(name.split("_w")[1])
            assert 0.0 < vec[i] <= window
        else:
            assert vec[i] >= 0.0, name


@settings(**SETTINGS)
@given(random_traces())
def test_mix_components_sum_to_one(trace):
    mix = measure(trace)
    disjoint = (
        mix["mix_mem"]
        + mix["mix_branch"]
        + mix["mix_call"]
        + mix["mix_int_arith"]
        + mix["mix_fp_arith"]
        + mix["mix_cmov"]
        + mix["mix_other"]
    )
    assert disjoint == pytest.approx(1.0)


@settings(**SETTINGS)
@given(random_traces())
def test_register_dep_cdf_monotone(trace):
    out = measure(trace)
    values = [out[f"reg_dep_le{b}"] for b in (1, 2, 4, 8, 16, 32, 64)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert out["reg_avg_input_operands"] <= 2.0


@settings(**SETTINGS)
@given(random_traces())
def test_stride_cdfs_monotone(trace):
    out = measure(trace)
    for prefix, buckets in (
        ("stride_gl", (0, 64, 4096, 262144)),
        ("stride_gs", (0, 64, 4096, 262144)),
        ("stride_ll", (0, 8, 64, 512, 4096)),
        ("stride_ls", (0, 8, 64, 512, 4096)),
    ):
        values = [out[f"{prefix}_le{b}"] for b in buckets]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), prefix


@settings(**SETTINGS)
@given(random_traces(min_len=8, max_len=200))
def test_characterization_invariant_under_pc_translation(trace):
    # Shifting all code addresses by a constant must not change any
    # characteristic (footprints count blocks, strides are relative).
    shifted = Trace(
        op=trace.op,
        src1=trace.src1,
        src2=trace.src2,
        dst=trace.dst,
        addr=trace.addr,
        pc=trace.pc + (1 << 22),
        taken=trace.taken,
    )
    a, b = characterize_intervals([trace, shifted], CFG)
    # Instruction footprint can shift block alignment by at most one
    # block/page; everything else must be identical.
    names = feature_names()
    for i, name in enumerate(names):
        if name.startswith("foot_instr"):
            assert abs(a[i] - b[i]) < 0.2, name
        else:
            assert a[i] == pytest.approx(b[i], abs=1e-12), name


@settings(**SETTINGS)
@given(random_traces(min_len=8, max_len=200))
def test_characterization_deterministic(trace):
    a = characterize_intervals([trace], CFG)[0]
    b = characterize_intervals([trace], CFG)[0]
    assert np.array_equal(a, b)
