"""Contract tests for the shared behaviour archetypes.

Archetypes model shared library code: they must be seed-fixed (every
caller gets a structurally identical kernel) while parameterized
archetypes must differ across parameterizations.
"""

import numpy as np
import pytest

from repro.suites import archetypes as arch
from repro.synth import BlendKernel, generator

from ..conftest import measure

FIXED_ARCHETYPES = [
    arch.video_motion_estimation,
    arch.video_entropy_decode,
    arch.video_deblock_filter,
    arch.image_dct,
    arch.image_filter,
    arch.wavelet_lifting,
    arch.eigen_image,
    arch.speech_frontend,
    arch.gaussian_scoring,
    arch.profile_hmm,
    arch.seq_scan,
    arch.seq_align,
    arch.compress_block,
    arch.script_engine,
]


@pytest.mark.parametrize("factory", FIXED_ARCHETYPES, ids=lambda f: f.__name__)
def test_archetype_is_seed_fixed(factory):
    a = factory()
    b = factory()
    rng_key = ("arch-test", factory.__name__)
    ta = a.generate(800, generator(*rng_key))
    tb = b.generate(800, generator(*rng_key))
    assert np.array_equal(ta.op, tb.op)
    assert np.array_equal(ta.addr, tb.addr)
    assert np.array_equal(ta.pc, tb.pc)
    assert np.array_equal(ta.taken, tb.taken)


@pytest.mark.parametrize("factory", FIXED_ARCHETYPES, ids=lambda f: f.__name__)
def test_archetype_traces_validate(factory):
    t = factory().generate(1000, generator("arch-valid", factory.__name__))
    t.validate()
    assert len(t) == 1000


def test_parameterized_archetypes_differ_by_parameters():
    # A larger linked structure spreads the permutation walk over a
    # bigger region, so pointer strides grow with the node count.
    small = arch.pointer_graph(nodes_k=16, entropy=0.2)
    large = arch.pointer_graph(nodes_k=1024, entropy=0.2)
    ts = small.generate(4000, generator("pg", 1))
    tl = large.generate(4000, generator("pg", 1))
    assert measure(ts)["stride_gl_le262144"] > measure(tl)["stride_gl_le262144"]


def test_parameterized_archetype_same_params_identical():
    a = arch.grid_stencil(grid_mb=32, points=5, trip=512)
    b = arch.grid_stencil(grid_mb=32, points=5, trip=512)
    ta = a.generate(500, generator("gs", 1))
    tb = b.generate(500, generator("gs", 1))
    assert np.array_equal(ta.addr, tb.addr)


def test_game_tree_entropy_changes_predictability():
    tame = arch.game_tree(entropy=0.1)
    wild = arch.game_tree(entropy=0.5)
    bt = measure(tame.generate(5000, generator("gt", 1)), ppm_sample_branches=500)
    bw = measure(wild.generate(5000, generator("gt", 1)), ppm_sample_branches=500)
    assert bw["ppm_gag_h12"] > bt["ppm_gag_h12"]


def test_blend_archetypes_are_blends():
    assert isinstance(arch.eigen_image(), BlendKernel)
    assert isinstance(arch.script_engine(), BlendKernel)
