"""Known-answer tests for the stride oracle meter."""

import pytest

from repro.isa import NO_REG, OpClass, Trace

from ..conftest import make_trace
from .oracle import measure_strides


def test_rejects_empty():
    with pytest.raises(ValueError):
        measure_strides(Trace.empty())


def test_global_load_strides_unit():
    rows = [(OpClass.LOAD, 0, NO_REG, 1, 0x100 + 8 * i, 0x10) for i in range(5)]
    out = measure_strides(make_trace(rows))
    assert out["stride_gl_le64"] == pytest.approx(1.0)
    assert out["stride_gl_le0"] == pytest.approx(0.0)


def test_global_strides_use_absolute_value():
    rows = [
        (OpClass.LOAD, 0, NO_REG, 1, 0x1000, 0x10),
        (OpClass.LOAD, 0, NO_REG, 1, 0x0F00, 0x14),  # negative diff 256
    ]
    out = measure_strides(make_trace(rows))
    assert out["stride_gl_le64"] == pytest.approx(0.0)
    assert out["stride_gl_le4096"] == pytest.approx(1.0)


def test_zero_stride_counted_at_le0():
    rows = [(OpClass.LOAD, 0, NO_REG, 1, 0x100, 0x10)] * 3
    out = measure_strides(make_trace(rows))
    assert out["stride_gl_le0"] == pytest.approx(1.0)


def test_loads_and_stores_measured_separately():
    rows = [
        (OpClass.LOAD, 0, NO_REG, 1, 0x100, 0x10),
        (OpClass.STORE, 1, 0, NO_REG, 0x900000, 0x14),
        (OpClass.LOAD, 0, NO_REG, 1, 0x108, 0x18),
        (OpClass.STORE, 1, 0, NO_REG, 0x900008, 0x1C),
    ]
    out = measure_strides(make_trace(rows))
    # Load-to-load stride is 8 despite the interleaved distant stores.
    assert out["stride_gl_le64"] == pytest.approx(1.0)
    assert out["stride_gs_le64"] == pytest.approx(1.0)


def test_local_strides_group_by_pc():
    rows = [
        (OpClass.LOAD, 0, NO_REG, 1, 0x1000, 0xA),
        (OpClass.LOAD, 0, NO_REG, 1, 0x9000, 0xB),
        (OpClass.LOAD, 0, NO_REG, 1, 0x1008, 0xA),   # local stride 8 for pc A
        (OpClass.LOAD, 0, NO_REG, 1, 0x9200, 0xB),   # local stride 512 for pc B
    ]
    out = measure_strides(make_trace(rows))
    assert out["stride_ll_le8"] == pytest.approx(0.5)
    assert out["stride_ll_le512"] == pytest.approx(1.0)


def test_single_access_has_no_strides():
    rows = [(OpClass.LOAD, 0, NO_REG, 1, 0x100, 0x10)]
    out = measure_strides(make_trace(rows))
    assert out["stride_gl_le4096"] == 0.0
    assert out["stride_ll_le4096"] == 0.0


def test_no_stores_zero_store_strides():
    rows = [(OpClass.LOAD, 0, NO_REG, 1, 0x100 + i * 8, 0x10) for i in range(3)]
    out = measure_strides(make_trace(rows))
    assert out["stride_gs_le262144"] == 0.0
    assert out["stride_ls_le4096"] == 0.0


def test_stride_cdfs_are_monotone():
    rows = [
        (OpClass.LOAD, 0, NO_REG, 1, 0x100 * i * i, 0x10 + (i % 3) * 4)
        for i in range(1, 30)
    ]
    out = measure_strides(make_trace(rows))
    gl = [out[f"stride_gl_le{b}"] for b in (0, 64, 4096, 262144)]
    ll = [out[f"stride_ll_le{b}"] for b in (0, 8, 64, 512, 4096)]
    assert all(b >= a for a, b in zip(gl, gl[1:]))
    assert all(b >= a for a, b in zip(ll, ll[1:]))


def test_all_18_stride_features_present():
    rows = [(OpClass.LOAD, 0, NO_REG, 1, 0x100, 0x10)]
    out = measure_strides(make_trace(rows))
    assert len(out) == 18
    assert all(name.startswith("stride_") for name in out)
