"""Behavioural tests for the 13 kernel families.

Each family must produce traces whose measured characteristics match
its documented intent — these tests pin the domain semantics the suite
models rely on.
"""

import pytest

from repro.synth import (
    branchy_kernel,
    compress_kernel,
    dsp_kernel,
    dynprog_kernel,
    fsm_kernel,
    generator,
    hashing_kernel,
    matrix_kernel,
    pointer_chase_kernel,
    sorting_kernel,
    sparse_kernel,
    stencil_kernel,
    streaming_kernel,
    string_match_kernel,
)

from ..conftest import measure

N = 8000


def trace_of(kernel, tag="fam"):
    t = kernel.generate(N, generator(tag))
    t.validate()
    return t


ALL_FACTORIES = [
    branchy_kernel,
    compress_kernel,
    dsp_kernel,
    dynprog_kernel,
    fsm_kernel,
    hashing_kernel,
    matrix_kernel,
    pointer_chase_kernel,
    sorting_kernel,
    sparse_kernel,
    stencil_kernel,
    streaming_kernel,
    string_match_kernel,
]


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_family_generates_valid_traces(factory):
    trace_of(factory(seed=11))


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_family_is_deterministic_per_seed(factory):
    k = factory(seed=7)
    a = k.generate(500, generator("d", 1))
    b = k.generate(500, generator("d", 1))
    assert (a.addr == b.addr).all() and (a.taken == b.taken).all()


def test_streaming_is_fp_heavy_when_fp():
    mix = measure(trace_of(streaming_kernel(seed=1, fp=True)))
    assert mix["mix_fp_arith"] > 0.3
    assert mix["mix_int_mul"] == 0.0


def test_streaming_int_variant_has_no_fp():
    mix = measure(trace_of(streaming_kernel(seed=1, fp=False)))
    assert mix["mix_fp_arith"] == 0.0


def test_streaming_short_global_strides():
    s = measure(trace_of(streaming_kernel(seed=2, unroll=8)))
    assert s["stride_gl_le64"] > 0.5


def test_streaming_predictable_branches():
    b = measure(trace_of(streaming_kernel(seed=3)), ppm_sample_branches=500)
    assert b["ppm_gag_h12"] < 0.05


def test_stencil_mixes_short_and_row_strides():
    s = measure(trace_of(stencil_kernel(seed=4, row_bytes=8192)))
    # Local strides of the row streams are small; the column streams
    # produce strides beyond 4KB, so the local-load CDF at 4K is < 1.
    assert s["stride_ll_le4096"] < 1.0
    assert s["stride_ll_le64"] > 0.0


def test_pointer_chase_low_ilp_vs_matrix():
    chase = measure(trace_of(pointer_chase_kernel(seed=5)), ilp_sample_instructions=1000)
    dense = measure(trace_of(matrix_kernel(seed=5)), ilp_sample_instructions=1000)
    assert chase["ilp_w64"] < dense["ilp_w64"]


def test_pointer_chase_poor_branch_predictability():
    b = measure(
        trace_of(pointer_chase_kernel(seed=6, branch_entropy=0.5)),
        ppm_sample_branches=800,
    )
    assert b["ppm_gag_h12"] > 0.1


def test_pointer_chase_large_data_footprint():
    small = measure(trace_of(pointer_chase_kernel(seed=7, n_nodes=1 << 8)))
    large = measure(trace_of(pointer_chase_kernel(seed=7, n_nodes=1 << 16)))
    assert large["foot_data_64b"] > small["foot_data_64b"]


def test_branchy_is_branch_dense():
    mix = measure(trace_of(branchy_kernel(seed=8)))
    assert mix["mix_branch"] > 0.1


def test_branchy_large_instruction_footprint():
    few = measure(trace_of(branchy_kernel(seed=9, n_variants=1)))
    many = measure(trace_of(branchy_kernel(seed=9, n_variants=32)))
    assert many["foot_instr_64b"] > few["foot_instr_64b"]


def test_dsp_is_multiply_dense():
    mix = measure(trace_of(dsp_kernel(seed=10)))
    assert mix["mix_mul"] > 0.15


def test_dsp_accumulators_raise_ilp():
    one = measure(trace_of(dsp_kernel(seed=11, accumulators=1)), ilp_sample_instructions=1000)
    eight = measure(trace_of(dsp_kernel(seed=11, accumulators=8)), ilp_sample_instructions=1000)
    assert eight["ilp_w64"] > one["ilp_w64"]


def test_string_match_integer_add_heavy():
    mix = measure(trace_of(string_match_kernel(seed=12, adds_per_byte=8)))
    assert mix["mix_int_add"] > 0.3


def test_string_match_byte_local_strides():
    s = measure(trace_of(string_match_kernel(seed=13, byte_stride=1)))
    assert s["stride_ll_le8"] > 0.5


def test_dynprog_is_cmov_heavy():
    mix = measure(trace_of(dynprog_kernel(seed=14, cmov_per_cell=4)))
    assert mix["mix_cmov"] > 0.1


def test_dynprog_states_scale_work():
    k1 = dynprog_kernel(seed=15, states=1)
    k3 = dynprog_kernel(seed=15, states=3)
    assert len(k3.body) > len(k1.body)


def test_sorting_branches_are_hard():
    b = measure(trace_of(sorting_kernel(seed=16)), ppm_sample_branches=800)
    assert b["ppm_pas_h12"] > 0.1


def test_hashing_multiplies_and_random_access():
    t = trace_of(hashing_kernel(seed=17))
    mix = measure(t)
    assert mix["mix_int_mul"] > 0.02
    s = measure(t)
    # Table probes are random over MBs: most load strides are huge.
    assert s["stride_gl_le64"] < 0.9


def test_matrix_high_fp_and_ilp():
    t = trace_of(matrix_kernel(seed=18, accumulators=6))
    mix = measure(t)
    assert mix["mix_fp_arith"] > 0.3
    ilp = measure(t, ilp_sample_instructions=1000)
    assert ilp["ilp_w256"] > 10


def test_matrix_divides_show_up():
    mix = measure(trace_of(matrix_kernel(seed=19, divides=4)))
    assert mix["mix_fp_div"] > 0.0
    assert mix["mix_fp_sqrt"] > 0.0


def test_compress_shift_heavy():
    mix = measure(trace_of(compress_kernel(seed=20)))
    assert mix["mix_shift"] > 0.1


def test_fsm_logic_heavy_with_cmov():
    mix = measure(trace_of(fsm_kernel(seed=21)))
    assert mix["mix_logic"] > 0.15
    assert mix["mix_cmov"] > 0.0


def test_sparse_mixed_stride_profile():
    s = measure(trace_of(sparse_kernel(seed=22, cluster_len=12)))
    # Gathers produce a genuine mix: neither all-small nor all-large.
    assert 0.05 < s["stride_gl_le64"] < 0.95
    assert 0.05 < s["stride_ll_le64"] < 0.95


@pytest.mark.parametrize(
    "factory,kwargs",
    [
        (streaming_kernel, {"n_arrays": 0}),
        (stencil_kernel, {"points": 2}),
        (dynprog_kernel, {"states": 0}),
        (hashing_kernel, {"probes": 0}),
        (matrix_kernel, {"accumulators": 0}),
        (fsm_kernel, {"syntax_period": 1}),
        (branchy_kernel, {"n_branches": 0}),
    ],
)
def test_families_reject_bad_parameters(factory, kwargs):
    with pytest.raises(ValueError):
        factory(seed=1, **kwargs)
