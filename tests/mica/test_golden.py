"""Golden-vector regression tests.

``tests/data/golden_vectors.npz`` pins the full 69-feature vector of six
fixed benchmark intervals, captured from the original sequential meter
implementations before the vectorized kernels landed.  Any change that
shifts a single bit of any characteristic fails here.  The production
pass (one interval at a time and as one fused batch) and the sequential
oracle (:mod:`tests.mica.oracle`) must all reproduce them.

Regenerate (only when an intentional semantic change is made) by
re-running the oracle's ``characterize_interval`` for the stored labels
at the stored subsample sizes and saving the same arrays.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.mica import characterize_intervals, feature_names
from repro.mica.fused import _characterize_fused
from repro.suites import all_benchmarks

from .oracle import characterize_interval

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


def _traces(golden):
    by_key = {b.key: b for b in all_benchmarks()}
    config = golden["config"]
    traces = []
    for label in golden["labels"]:
        key, idx = label.rsplit("@", 1)
        traces.append(
            by_key[key].program.interval_trace(int(idx), config.interval_instructions)
        )
    return traces


def _recompute(golden, measure_one):
    return np.vstack([measure_one(t, golden["config"]) for t in _traces(golden)])


def test_feature_schema_unchanged(golden):
    assert golden["feature_names"] == feature_names()
    assert golden["vectors"].shape == (len(golden["labels"]), len(feature_names()))


def test_golden_vectors_bit_identical(golden):
    # The production pass, one interval per call.
    got = _recompute(golden, lambda t, config: characterize_intervals([t], config)[0])
    mismatch = got != golden["vectors"]
    if mismatch.any():
        names = feature_names()
        rows, cols = np.nonzero(mismatch)
        detail = ", ".join(
            f"{golden['labels'][r]}:{names[c]}" for r, c in zip(rows[:5], cols[:5])
        )
        raise AssertionError(f"golden vectors drifted at {detail}")


def test_golden_vectors_match_reference_meters(golden):
    # The sequential oracle, built from the reference meters.
    got = _recompute(golden, characterize_interval)
    assert np.array_equal(got, golden["vectors"])


def test_golden_vectors_match_fused_pass(golden):
    # All six pinned intervals characterized in one fused batch.
    got = _characterize_fused(_traces(golden), golden["config"])
    assert np.array_equal(got, golden["vectors"])
