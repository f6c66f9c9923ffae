"""Tests for the PPM branch predictability meter (the fused pass's PPM)."""

import numpy as np
import pytest

from repro.mica import REPORTED_LENGTHS, local_histories
from repro.mica.fused import _fused_ppm
from tests.mica.oracle import global_histories, measure_ppm_reference


def fused_ppm(pcs, outcomes):
    """The fused pass's 12 PPM miss rates for one interval's branch stream."""
    iv = np.zeros(len(pcs), dtype=np.int64)
    return {name: float(col[0]) for name, col in _fused_ppm(iv, pcs, outcomes, 1).items()}


def outcomes_from(bits):
    return np.array([bool(b) for b in bits])


def test_global_histories_encoding():
    out = outcomes_from([1, 0, 1, 1])
    hist = global_histories(out)
    # history[i] bit k = outcome[i-1-k] (bit 0 is the most recent).
    assert hist[0] == 0
    assert hist[1] == 0b1    # saw T
    assert hist[2] == 0b10   # most recent N (bit0=0), then T (bit1=1)
    assert hist[3] == 0b101  # most recent T, then N, then T


def test_local_histories_per_pc():
    pcs = np.array([0, 1, 0, 1, 0])
    out = outcomes_from([1, 0, 1, 0, 0])
    hist = local_histories(pcs, out)
    assert hist[0] == 0
    assert hist[1] == 0
    assert hist[2] == 0b1   # pc0 saw T
    assert hist[3] == 0b0   # pc1 saw N
    assert hist[4] == 0b11  # pc0 saw T, T


def test_measure_ppm_empty():
    out = fused_ppm(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
    assert len(out) == 12
    assert all(v == 0.0 for v in out.values())


def test_measure_ppm_rejects_length_mismatch():
    with pytest.raises(ValueError):
        measure_ppm_reference(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool))


def test_constant_branch_nearly_perfect():
    pcs = np.zeros(500, dtype=np.int64)
    out = np.ones(500, dtype=bool)
    rates = fused_ppm(pcs, out)
    for name, rate in rates.items():
        assert rate < 0.05, name


def test_alternating_branch_learned_with_history():
    pcs = np.zeros(1000, dtype=np.int64)
    out = np.tile([True, False], 500)
    rates = fused_ppm(pcs, out)
    # History-based PPM learns the period-2 pattern quickly.
    assert rates["ppm_gag_h12"] < 0.1
    assert rates["ppm_pas_h4"] < 0.1


def test_random_branch_is_hard():
    rng = np.random.default_rng(7)
    pcs = np.zeros(2000, dtype=np.int64)
    out = rng.random(2000) < 0.5
    rates = fused_ppm(pcs, out)
    assert rates["ppm_gag_h12"] > 0.3
    assert rates["ppm_pas_h12"] > 0.3


def test_longer_history_helps_long_patterns():
    # Period-10 pattern: 4 bits of history cannot disambiguate the run
    # of 1s; 12 bits can.
    pattern = [True] * 9 + [False]
    pcs = np.zeros(3000, dtype=np.int64)
    out = np.tile(pattern, 300)
    rates = fused_ppm(pcs, out)
    assert rates["ppm_gag_h12"] < rates["ppm_gag_h4"]


def test_per_address_tables_separate_conflicting_branches():
    # Two static branches with opposite constant outcomes and identical
    # global history: global-table predictors alias them; per-address
    # tables keep them apart.
    n = 600
    pcs = np.tile([10, 20], n // 2).astype(np.int64)
    out = np.tile([True, False], n // 2)
    rates = fused_ppm(pcs, out)
    assert rates["ppm_pas_h4"] <= rates["ppm_gag_h4"] + 0.02


def test_correlated_branches_favor_global_history():
    # Branch B copies the previous outcome of branch A; global history
    # captures this, per-address history of B alone does too (B's
    # outcomes follow A's random walk so local history fails).
    rng = np.random.default_rng(3)
    a = rng.random(800) < 0.5
    pcs = np.empty(1600, dtype=np.int64)
    out = np.empty(1600, dtype=bool)
    pcs[0::2] = 1
    pcs[1::2] = 2
    out[0::2] = a
    out[1::2] = a  # B mirrors A
    rates = fused_ppm(pcs, out)
    assert rates["ppm_gag_h12"] < rates["ppm_pag_h12"]


def test_simple_pattern_learned_at_every_max_length():
    # A short periodic pattern on one static branch is learned well at
    # every reported maximum history length once tables are warm.
    pcs = np.zeros(3000, dtype=np.int64)
    pattern = np.tile([True, True, False], 1000)
    rates = fused_ppm(pcs, pattern)
    for kind in ("gag", "pag", "gas", "pas"):
        for h in REPORTED_LENGTHS:
            assert rates[f"ppm_{kind}_h{h}"] < 0.15, (kind, h)
