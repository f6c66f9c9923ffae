"""E13 — End-to-end wall clock: fused + adaptive pipeline vs baseline.

The headline BENCH number.  Runs the characterization pipeline —
dataset build (sampling + MICA metering), PCA, k-means, prominent-phase
selection — twice over the same benchmarks:

* **optimized**: the defaults — fused whole-trace metering
  (:mod:`repro.mica.fused`) and the triangle-inequality k-means engine
  (:func:`repro.stats.kmeans_engine.lloyd_accelerated`);
* **baseline**: one interval per MICA call and reference Lloyd, forced
  for the run by swapping the dataset builder's featurizer for a loop of
  one-interval production calls, ``characterize_intervals([t], config)``,
  and the k-means engine for the tests' full-distance Lloyd
  (``tests/stats/oracle.py``; :func:`baseline_engines`).

Both runs must be bit-identical (features, PCA space, labels, BIC);
the ratio of their wall clocks is the pipeline's batching payoff.

The preset (``REPRO_BENCH_PRESET``) sets the scale.  ``paper`` is the
paper clustering shape at 500-instruction intervals — 77 benchmarks x
1,000 sampled intervals, k = 300 — where both optimizations are in
their winning regime.  It is *not* ``AnalysisConfig.paper()`` (10,000-
instruction intervals); ``perfbench``'s ``paper-cold`` workload
measures that preset.
``tiny`` is the CI gate scale: the whole run takes
seconds, and at its 308 x 8 clustering the engine costs a few
milliseconds more than reference Lloyd, so the measured ratio is
batched-vs-one-at-a-time metering less that.

Writes ``e2e_wall.txt``/``e2e_wall.json`` and the CI artifact
``BENCH_e2e_wall.json`` under ``benchmarks/output``.  Run it alone::

    REPRO_BENCH_PRESET=tiny PYTHONPATH=src \
        python -m pytest benchmarks/bench_e2e_wall.py -q

Set ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` to enforce the speedup floor:
>= 2x at the paper preset, >= 1x elsewhere (tiny runs are
overhead-dominated; the gate there is "the optimized path never
loses").
"""

import importlib
import os
import time
from contextlib import contextmanager

import numpy as np

import repro.core.dataset as dataset
from repro.config import AnalysisConfig
from repro.core import build_dataset, run_characterization
from repro.io import format_table
from repro.mica import characterize_intervals
from repro.obs import emit_bench
from repro.suites import all_benchmarks
from tests.stats.oracle import lloyd_reference

#: The module, not the ``repro.stats.kmeans`` function that shadows it.
kmeans_module = importlib.import_module("repro.stats.kmeans")

#: Timing repeats per path; the minimum wall clock is reported.  One
#: repeat at paper scale (a run is minutes), three at the test scales.
REPEATS = {"paper": 1, "small": 2, "tiny": 3}

#: Pipeline scale per preset.  ``paper`` is the paper clustering shape
#: at 500-instruction intervals (77 benchmarks x 1,000 intervals ->
#: n = 77,000, k = 300), the interval size where whole-trace metering
#: operates — not ``AnalysisConfig.paper()``; the GA is
#: excluded at every preset (it consumes identical inputs on both
#: paths, so it would only dilute the measured ratio with
#: engine-independent work).
SCALE = {
    "paper": dict(
        interval_instructions=500,
        intervals_per_benchmark=1_000,
        n_clusters=300,
        n_prominent=100,
        kmeans_restarts=2,
        ilp_sample_instructions=500,
        ppm_sample_branches=250,
    ),
    "small": dict(
        interval_instructions=500,
        intervals_per_benchmark=100,
        n_clusters=120,
        n_prominent=40,
        kmeans_restarts=2,
        ilp_sample_instructions=500,
        ppm_sample_branches=250,
    ),
    "tiny": dict(
        interval_instructions=500,
        intervals_per_benchmark=4,
        n_clusters=8,
        n_prominent=4,
        kmeans_restarts=1,
        kmeans_max_iter=10,
        ilp_sample_instructions=200,
        ppm_sample_branches=50,
    ),
}

#: What each preset's scale is, for the report table.
SCALE_LABEL = {
    "paper": "paper clustering shape at 500-instruction intervals",
    "small": "reduced clustering shape at 500-instruction intervals",
    "tiny": "CI gate scale",
}


@contextmanager
def baseline_engines():
    """Force one interval per MICA call and reference Lloyd, then restore.

    The dataset builder featurizes through a loop of one-interval calls
    to the fused pass instead of one call per batch, and every k-means
    restart runs the tests' full-distance Lloyd instead of the engine.
    """

    def one_at_a_time(traces, config):
        return np.vstack([characterize_intervals([t], config) for t in traces])

    saved = dataset.characterize_intervals, kmeans_module.lloyd_accelerated
    dataset.characterize_intervals = one_at_a_time
    kmeans_module.lloyd_accelerated = lloyd_reference
    try:
        yield
    finally:
        dataset.characterize_intervals, kmeans_module.lloyd_accelerated = saved


def _run_pipeline(benchmarks, config):
    dataset = build_dataset(benchmarks, config)
    result = run_characterization(dataset, config, select_key=False)
    return dataset, result


def _timed_run(benchmarks, config, repeats):
    """Best-of-``repeats`` wall clock of one full pipeline variant."""
    best = float("inf")
    outcome = None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = _run_pipeline(benchmarks, config)
        best = min(best, time.perf_counter() - start)
    return outcome, best


def bench_e2e_wall(config, report):
    preset = os.environ.get("REPRO_BENCH_PRESET", "paper")
    e2e_config = AnalysisConfig(**SCALE[preset])
    benchmarks = all_benchmarks()
    repeats = REPEATS[preset]

    (opt_ds, opt_result), optimized_s = _timed_run(benchmarks, e2e_config, repeats)
    with baseline_engines():
        (base_ds, base_result), baseline_s = _timed_run(
            benchmarks, e2e_config, repeats
        )

    # The optimized pipeline is a pure execution-plan change.  Bit for
    # bit, end to end.
    assert np.array_equal(opt_ds.features, base_ds.features)
    assert np.array_equal(opt_result.space, base_result.space)
    assert np.array_equal(
        opt_result.clustering.labels, base_result.clustering.labels
    )
    assert opt_result.clustering.bic == base_result.clustering.bic

    speedup = baseline_s / optimized_s
    n_rows = len(opt_ds)
    rows = [
        [
            "optimized (fused meters + k-means engine)",
            f"{optimized_s:.2f}",
            f"{n_rows / optimized_s:.0f}",
        ],
        [
            "baseline (one interval per call + reference Lloyd)",
            f"{baseline_s:.2f}",
            f"{n_rows / baseline_s:.0f}",
        ],
    ]
    text = format_table(["pipeline", "wall s", "intervals / s"], rows)
    text += (
        f"\npreset={preset} ({SCALE_LABEL[preset]}): "
        f"{len(benchmarks)} benchmarks, {n_rows} interval rows "
        f"({e2e_config.interval_instructions} instr each), "
        f"k={e2e_config.n_clusters}, best of {repeats}; "
        f"e2e speedup {speedup:.2f}x, results bit-identical\n"
    )
    report("e2e_wall.txt", text)
    print("\n" + text)

    payload = {
        "preset": preset,
        "n_benchmarks": len(benchmarks),
        "n_interval_rows": n_rows,
        "interval_instructions": e2e_config.interval_instructions,
        "n_clusters": e2e_config.n_clusters,
        "repeats": repeats,
        "optimized_seconds": round(optimized_s, 6),
        "baseline_seconds": round(baseline_s, 6),
        "speedup": round(speedup, 3),
        "bit_identical": True,
    }
    # emit_bench also writes the stable CI artifact/gate file
    # BENCH_e2e_wall.json (uniform across every gated bench).
    emit_bench("e2e_wall", payload, report=report)

    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP"):
        floor = 2.0 if preset == "paper" else 1.0
        assert speedup >= floor, (
            f"e2e speedup {speedup:.2f}x < {floor}x at preset {preset}"
        )
