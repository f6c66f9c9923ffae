"""Golden-vector regression tests.

``tests/data/golden_vectors.npz`` pins the full 69-feature vector of six
fixed benchmark intervals, captured from the original sequential meter
implementations before the vectorized kernels landed.  Any change that
shifts a single bit of any characteristic fails here.

Regenerate (only when an intentional semantic change is made) by
re-running ``characterize_interval`` for the stored labels at the stored
subsample sizes and saving the same arrays.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.mica import (
    characterize_interval,
    feature_names,
    measure_ilp_reference,
    measure_ppm_reference,
)
from repro.suites import all_benchmarks

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_vectors.npz"


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return {
            "labels": [str(label) for label in data["labels"]],
            "vectors": data["vectors"],
            "feature_names": [str(n) for n in data["feature_names"]],
            "config": AnalysisConfig(
                interval_instructions=int(data["interval_instructions"]),
                ilp_sample_instructions=int(data["ilp_sample_instructions"]),
                ppm_sample_branches=int(data["ppm_sample_branches"]),
            ),
        }


def _recompute(golden):
    by_key = {b.key: b for b in all_benchmarks()}
    config = golden["config"]
    rows = []
    for label in golden["labels"]:
        key, idx = label.rsplit("@", 1)
        trace = by_key[key].program.interval_trace(
            int(idx), config.interval_instructions
        )
        rows.append(characterize_interval(trace, config))
    return np.vstack(rows)


def test_feature_schema_unchanged(golden):
    assert golden["feature_names"] == feature_names()
    assert golden["vectors"].shape == (len(golden["labels"]), len(feature_names()))


def test_golden_vectors_bit_identical(golden):
    got = _recompute(golden)
    mismatch = got != golden["vectors"]
    if mismatch.any():
        names = feature_names()
        rows, cols = np.nonzero(mismatch)
        detail = ", ".join(
            f"{golden['labels'][r]}:{names[c]}" for r, c in zip(rows[:5], cols[:5])
        )
        raise AssertionError(f"golden vectors drifted at {detail}")


def test_golden_vectors_match_reference_meters(golden, monkeypatch):
    # Swap the sequential reference meters in where the per-interval
    # path calls the ILP and PPM kernels.
    calls = []

    def ilp_reference(trace, *, sample_instructions, profile=None):
        calls.append("ilp")
        return measure_ilp_reference(trace, sample_instructions=sample_instructions)

    def ppm_reference(pcs, outcomes):
        calls.append("ppm")
        return measure_ppm_reference(pcs, outcomes)

    monkeypatch.setattr("repro.mica.meter.measure_ilp", ilp_reference)
    monkeypatch.setattr("repro.mica.branch.measure_ppm", ppm_reference)
    got = _recompute(golden)
    assert calls.count("ilp") == calls.count("ppm") == len(golden["labels"])
    assert np.array_equal(got, golden["vectors"])


def test_golden_vectors_match_fused_pass(golden):
    # All six pinned intervals characterized in one fused batch.
    from repro.mica.fused import _characterize_fused

    by_key = {b.key: b for b in all_benchmarks()}
    config = golden["config"]
    traces = []
    for label in golden["labels"]:
        key, idx = label.rsplit("@", 1)
        traces.append(
            by_key[key].program.interval_trace(int(idx), config.interval_instructions)
        )
    got = _characterize_fused(traces, config)
    assert np.array_equal(got, golden["vectors"])
