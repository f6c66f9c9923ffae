"""Behavioural tests for the 77 benchmark models.

These pin the domain intent of the suite definitions: every benchmark
generates valid deterministic intervals, Table 3 lengths are honoured,
and the cross-suite archetype sharing the paper relies on (hmmer pairs,
facerec/face, sphinx3/speak, h264ref/h264) is visible at the raw
feature level.
"""

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.isa import OpClass
from repro.mica import characterize_intervals
from repro.suites import all_benchmarks, get_benchmark

CFG = AnalysisConfig.tiny()

FP_OPS = (int(OpClass.FADD), int(OpClass.FMUL), int(OpClass.FDIV), int(OpClass.FSQRT))


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.key)
def test_benchmark_generates_valid_interval(bench):
    trace = bench.program.interval_trace(0, 400)
    trace.validate()
    assert len(trace) == 400


def test_interval_counts_match_table3_analog():
    expected = {
        ("BioPerf", "fasta"): 69931,
        ("BioPerf", "ce"): 4,
        ("SPECint2000", "mcf"): 59,
        ("SPECfp2006", "calculix"): 74592,
        ("MediaBenchII", "jpeg"): 2,
        ("BMW", "hand"): 10789,
    }
    for (suite, name), n in expected.items():
        assert get_benchmark(suite, name).n_intervals == n


def test_fp_suites_are_fp_heavy():
    for suite, name in (("SPECfp2000", "swim"), ("SPECfp2006", "lbm")):
        b = get_benchmark(suite, name)
        trace = b.program.interval_trace(0, 2000)
        assert np.isin(trace.op, FP_OPS).mean() > 0.15, (suite, name)


def test_int_suites_have_no_fp_in_core_phases():
    b = get_benchmark("SPECint2006", "sjeng")
    trace = b.program.interval_trace(0, 2000)
    assert not np.isin(trace.op, FP_OPS).any()


def _vector(bench, interval=0, n=3000):
    trace = bench.program.interval_trace(interval, n)
    return characterize_intervals([trace], CFG)[0]


def _normalized_distances(vectors):
    """Pairwise distances after z-scoring, like the real pipeline.

    Raw features span wildly different ranges (ILP reaches 256, mixes
    stay in [0, 1]); comparisons are only meaningful on a common scale.
    """
    from repro.stats import normalize, pairwise_distances

    return pairwise_distances(normalize(np.vstack(vectors)))


def test_hmmer_versions_share_an_archetype_phase():
    bio = get_benchmark("BioPerf", "hmmer")
    spec = get_benchmark("SPECint2006", "hmmer")
    # BioPerf hmmer: first 40% is the shared profile-HMM phase; its late
    # phase is the dissimilar full Viterbi.  Compare both to SPEC hmmer.
    late = bio.program.n_intervals - 1
    d = _normalized_distances(
        [_vector(bio, 0), _vector(spec, 0), _vector(bio, late)]
    )
    assert d[0, 1] < d[2, 1]


def test_face_recognition_pair_is_close():
    vecs = [
        _vector(get_benchmark("BMW", "face")),
        _vector(get_benchmark("SPECfp2000", "facerec")),
        _vector(get_benchmark("SPECint2006", "mcf")),
    ]
    d = _normalized_distances(vecs)
    assert d[0, 1] < d[0, 2]


def test_speech_pair_is_close():
    sphinx = get_benchmark("SPECfp2006", "sphinx3")
    # speak starts with the front-end; sphinx3 ends with it.
    late = sphinx.program.n_intervals - 1
    vecs = [
        _vector(get_benchmark("BMW", "speak"), 0),
        _vector(sphinx, late),
        _vector(get_benchmark("BioPerf", "grappa"), 0),
    ]
    d = _normalized_distances(vecs)
    assert d[0, 1] < d[0, 2]


def test_h264_pair_is_close():
    vecs = [
        _vector(get_benchmark("MediaBenchII", "h264"), 0),
        _vector(get_benchmark("SPECint2006", "h264ref"), 0),
        _vector(get_benchmark("SPECfp2006", "lbm"), 0),
    ]
    d = _normalized_distances(vecs)
    assert d[0, 1] < d[0, 2]


def test_homogeneous_benchmarks_have_stable_intervals():
    for suite, name in (
        ("SPECint2006", "sjeng"),
        ("SPECfp2006", "lbm"),
        ("SPECfp2000", "sixtrack"),
    ):
        b = get_benchmark(suite, name)
        first = _vector(b, 0)
        mid = _vector(b, b.n_intervals // 2)
        last = _vector(b, b.n_intervals - 1)
        spread = np.vstack([first, mid, last]).std(axis=0)
        # Every characteristic is near-constant across the run, up to
        # sampling noise (fractions drift by a point or two).
        mix_like = spread[:20]
        assert mix_like.max() < 0.05, (suite, name)


def test_astar_phases_differ():
    astar = get_benchmark("SPECint2006", "astar")
    early = _vector(astar, 0)   # open-list search phase
    late = _vector(astar, astar.n_intervals - 1)  # graph phase
    baseline_noise = np.abs(_vector(astar, 0, n=3000) - _vector(astar, 1, n=3000))
    assert np.abs(early - late).max() > 5 * max(baseline_noise.max(), 1e-3)


def test_grappa_is_far_from_spec_int():
    vecs = [
        _vector(get_benchmark("BioPerf", "grappa")),
        _vector(get_benchmark("SPECint2006", "gcc")),
        _vector(get_benchmark("SPECint2000", "bzip2")),
        _vector(get_benchmark("SPECint2000", "gzip")),
    ]
    d = _normalized_distances(vecs)
    # grappa sits apart from all of them, further than they sit from
    # each other on average.
    grappa_min = min(d[0, 1], d[0, 2], d[0, 3])
    spec_mean = (d[1, 2] + d[1, 3] + d[2, 3]) / 3
    assert grappa_min > 0.5 * spec_mean
