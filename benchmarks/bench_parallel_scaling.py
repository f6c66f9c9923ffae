"""E10 — Parallel scaling of the two hot pipeline stages.

Times the serial path against the process-pool fan-out for (a) the
per-benchmark MICA dataset build and (b) the BIC-scored k-means
restarts, asserts the parallel results are bit-identical to serial, and
records the measured speedups.  On a 4-core runner the dataset build
should clear 2x; on fewer cores the bench still verifies correctness
and records whatever the hardware gives.

Run it alone (it does not touch the session-scoped paper cache)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_scaling.py -q

Set ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` to fail the bench when the
dataset-build speedup lands under 2x (meant for >= 4-core machines).
"""

import os
import time

import numpy as np

from repro.config import AnalysisConfig
from repro.core import build_dataset, run_characterization
from repro.io import format_table
from repro.parallel import effective_n_jobs
from repro.stats import kmeans
from repro.suites import all_benchmarks
from repro.synth.rng import generator

#: Worker count for the parallel legs: every core, capped at 4 so the
#: headline number matches the CI runner class, floored at 2 so the
#: pool path is exercised even on a single-core machine.
N_JOBS = max(2, min(4, effective_n_jobs(-1)))


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _scaling_config() -> AnalysisConfig:
    # Small-preset featurization over all 77 benchmarks: ~5 s serial,
    # large enough to amortize pool startup many times over.
    return AnalysisConfig.small()


def bench_parallel_dataset_build(report):
    config = _scaling_config()
    benches = all_benchmarks()

    serial_ds, serial_s = _timed(
        lambda: build_dataset(benches, config.replace(n_jobs=1))
    )
    parallel_ds, parallel_s = _timed(
        lambda: build_dataset(
            benches, config.replace(n_jobs=N_JOBS, parallel_backend="process")
        )
    )

    assert np.array_equal(serial_ds.features, parallel_ds.features)
    assert np.array_equal(serial_ds.interval_indices, parallel_ds.interval_indices)
    speedup = serial_s / parallel_s

    rows = [
        ["dataset build", "serial", 1, f"{serial_s:.2f}", "1.00x"],
        ["dataset build", "process", N_JOBS, f"{parallel_s:.2f}", f"{speedup:.2f}x"],
    ]
    text = format_table(["stage", "backend", "n_jobs", "seconds", "speedup"], rows)
    text += (
        f"\n{len(benches)} benchmarks, {len(serial_ds)} intervals, "
        f"{len(os.sched_getaffinity(0))} usable CPUs; results bit-identical\n"
    )
    report("parallel_scaling_dataset.txt", text)
    print("\n" + text)

    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP"):
        assert speedup >= 2.0, f"dataset build speedup {speedup:.2f}x < 2x"


def bench_parallel_kmeans_restarts(report):
    config = _scaling_config().replace(kmeans_restarts=8)
    benches = [b for b in all_benchmarks() if b.suite.startswith("SPEC")]
    dataset = build_dataset(
        benches, config.replace(n_jobs=N_JOBS)
    )
    # Cluster in the rescaled PCA space, as the pipeline does.
    space = run_characterization(dataset, config, select_key=False).space

    def run(n_jobs, backend):
        return kmeans(
            space,
            config.n_clusters,
            restarts=config.kmeans_restarts,
            max_iter=config.kmeans_max_iter,
            rng=generator("kmeans", config.seed),
            n_jobs=n_jobs,
            backend=backend,
        )

    serial_c, serial_s = _timed(lambda: run(1, "serial"))
    parallel_c, parallel_s = _timed(lambda: run(N_JOBS, "process"))

    assert serial_c.bic == parallel_c.bic
    assert np.array_equal(serial_c.labels, parallel_c.labels)
    speedup = serial_s / parallel_s

    rows = [
        ["kmeans restarts", "serial", 1, f"{serial_s:.2f}", "1.00x"],
        ["kmeans restarts", "process", N_JOBS, f"{parallel_s:.2f}", f"{speedup:.2f}x"],
    ]
    text = format_table(["stage", "backend", "n_jobs", "seconds", "speedup"], rows)
    text += (
        f"\n{config.kmeans_restarts} restarts, k={config.n_clusters}, "
        f"{len(space)} points; winners identical\n"
    )
    report("parallel_scaling_kmeans.txt", text)
    print("\n" + text)
