"""Instrumentation is behaviorally inert: identical results on or off.

The observability layer only reads values the pipeline computes anyway
— it never consumes random numbers or changes control flow — so a run
with an active observation must be bit-identical to one without.
"""

import numpy as np

from repro.config import AnalysisConfig
from repro.core import build_dataset, run_characterization
from repro.obs import missing_stages, observe
from repro.obs.report import build_report
from repro.suites import all_benchmarks


def _run(config, benchmarks, observed):
    if observed:
        with observe(run_id="bitcheck") as ob:
            dataset = build_dataset(benchmarks, config)
            result = run_characterization(dataset, config, select_key=True)
        return dataset, result, ob
    dataset = build_dataset(benchmarks, config)
    result = run_characterization(dataset, config, select_key=True)
    return dataset, result, None


def test_observed_run_is_bit_identical():
    config = AnalysisConfig.tiny()
    benchmarks = [b for b in all_benchmarks() if b.suite == "BMW"]

    dataset_off, result_off, _ = _run(config, benchmarks, observed=False)
    dataset_on, result_on, ob = _run(config, benchmarks, observed=True)

    np.testing.assert_array_equal(dataset_off.features, dataset_on.features)
    np.testing.assert_array_equal(result_off.space, result_on.space)
    np.testing.assert_array_equal(
        result_off.clustering.labels, result_on.clustering.labels
    )
    assert result_off.clustering.bic == result_on.clustering.bic
    assert result_off.key_characteristics == result_on.key_characteristics

    # ... and the observed run actually recorded the whole pipeline.
    report = build_report(ob, config=config)
    assert missing_stages(report) == []
    counters = report["metrics"]["counters"]
    assert counters["kmeans.restarts"] > 0
    gauges = report["metrics"]["gauges"]
    assert 0.0 < gauges["kmeans.skipped_row_ratio"] < 1.0
