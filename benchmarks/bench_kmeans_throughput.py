"""E12 — Throughput of the triangle-inequality k-means engine.

Runs one Lloyd fit over a synthetic Gaussian mixture at the paper's
clustering scale (77 benchmarks x 1,000 sampled intervals -> n = 77,000
points, k = 300 clusters) through both inner loops — the accelerated
engine and the reference full-distance pass — from the same
initialization, asserts the fits are bit-identical, and reports
wall-clock, Lloyd iterations/second and the fraction of distance rows
the triangle-inequality bounds eliminated.

Writes a table under ``benchmarks/output`` and emits one ``BENCH
{json}`` line (and ``kmeans_throughput.json``) so the numbers are
machine-collectable across runs.

Run it alone (it does not touch the session-scoped paper cache)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kmeans_throughput.py -q

Set ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` to fail when the engine lands
under 3x (meant for the paper preset; the tiny problem is
overhead-dominated and not gated).
"""

import os
import time

import numpy as np

from repro.io import format_table
from repro.obs import emit_bench
from repro.stats.kmeans import _lloyd
from repro.stats.kmeans_engine import (
    AUTO_CROSSOVER_ENTRIES,
    EngineStats,
    lloyd_accelerated,
    use_accelerated,
)

#: Timing repeats; the minimum is reported.
REPEATS = 3

#: Shapes for the ``auto`` crossover sweep — small fits bracketing
#: ``AUTO_CROSSOVER_ENTRIES`` so the measured ratio can be checked
#: against the shipped threshold.  Each runs in milliseconds.
CROSSOVER_SHAPES = (
    (308, 8, 4),
    (1_000, 20, 8),
    (2_000, 40, 10),
    (4_000, 60, 10),
)

#: Clustering scale per preset: (points, clusters, dimensions).  The
#: paper row is the real workload-space size (77 benchmarks x 1,000
#: intervals in ~20 retained rescaled PCA dimensions, k = 300).
SCALE = {
    "paper": (77_000, 300, 20),
    "small": (7_700, 120, 10),
    "tiny": (308, 8, 4),
}


def _timed_best_interleaved(fn_a, fn_b, repeats=REPEATS):
    """Best-of-``repeats`` wall clock for two callables, interleaved.

    Alternating A/B within each repeat exposes both paths to the same
    machine-load window, so background noise cancels out of the ratio
    instead of inflating or deflating it.
    """
    best_a = best_b = float("inf")
    result_a = result_b = None
    for _ in range(repeats):
        start = time.perf_counter()
        result_a = fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        result_b = fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return (result_a, best_a), (result_b, best_b)


def _mixture(n, k, d, seed=2008):
    """A k-component Gaussian mixture and a shared k-means init."""
    rng = np.random.default_rng(seed)
    true_centers = 3.0 * rng.normal(size=(k, d))
    membership = rng.integers(0, k, size=n)
    points = true_centers[membership] + rng.normal(size=(n, d))
    init = points[rng.choice(n, size=k, replace=False)]
    return points, init


def bench_kmeans_throughput(config, report):
    preset = os.environ.get("REPRO_BENCH_PRESET", "paper")
    n, k, d = SCALE[preset]
    points, init = _mixture(n, k, d)
    max_iter = config.kmeans_max_iter

    stats = EngineStats()
    (engine_fit, engine_s), (reference_fit, reference_s) = (
        _timed_best_interleaved(
            lambda: lloyd_accelerated(points, init, max_iter, stats=stats),
            lambda: _lloyd(points, init, max_iter),
        )
    )

    # The contract the engine lives by: identical fits, bit for bit.
    e_centers, e_labels, e_inertia, e_iter, e_sq = engine_fit
    r_centers, r_labels, r_inertia, r_iter, r_sq = reference_fit
    assert np.array_equal(e_labels, r_labels)
    assert np.array_equal(e_centers, r_centers)
    assert e_inertia == r_inertia and e_iter == r_iter
    assert np.array_equal(e_sq, r_sq)

    speedup = reference_s / engine_s
    rows = [
        [
            "engine (triangle-inequality)",
            f"{engine_s * 1e3:.1f}",
            f"{e_iter / engine_s:.2f}",
            f"{100 * stats.skipped_ratio:.1f}%",
        ],
        [
            "reference (full distance pass)",
            f"{reference_s * 1e3:.1f}",
            f"{r_iter / reference_s:.2f}",
            "0.0%",
        ],
    ]
    text = format_table(
        ["path", "ms / fit", "iterations / s", "distance rows skipped"], rows
    )
    text += (
        f"\nn={n}, k={k}, d={d}, {e_iter} Lloyd iterations to convergence, "
        f"best of {REPEATS}; engine speedup {speedup:.2f}x, "
        f"fits bit-identical\n"
    )
    report("kmeans_throughput.txt", text)
    print("\n" + text)

    payload = {
        "preset": preset,
        "n_points": n,
        "n_clusters": k,
        "n_dims": d,
        "lloyd_iterations": int(e_iter),
        "engine_seconds": round(engine_s, 6),
        "reference_seconds": round(reference_s, 6),
        "engine_iterations_per_second": round(e_iter / engine_s, 3),
        "reference_iterations_per_second": round(r_iter / reference_s, 3),
        "speedup": round(speedup, 2),
        "skipped_distance_ratio": round(stats.skipped_ratio, 4),
        "distance_evals_computed": int(stats.distance_evals_computed),
        "bit_identical": True,
    }
    emit_bench("kmeans_throughput", payload, report=report)

    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP"):
        assert speedup >= 3.0, f"kmeans engine speedup {speedup:.2f}x < 3x"


def bench_kmeans_auto_crossover(config, report):
    """Measure the engine-vs-reference ratio around the auto crossover.

    This is the experiment :data:`AUTO_CROSSOVER_ENTRIES` was read off:
    both inner loops timed (interleaved, best-of-``REPEATS``) at small
    shapes bracketing the threshold, alongside the engine
    :func:`~repro.stats.kmeans_engine.use_accelerated` selects for
    each.  A drifting machine profile shows up here long before it
    misroutes the real pipeline.
    """
    max_iter = config.kmeans_max_iter
    rows = []
    sweep = []
    for n, k, d in CROSSOVER_SHAPES:
        points, init = _mixture(n, k, d)
        (engine_fit, engine_s), (_, reference_s) = _timed_best_interleaved(
            lambda: lloyd_accelerated(points, init, max_iter),
            lambda: _lloyd(points, init, max_iter),
        )
        ratio = reference_s / engine_s
        selected = "accelerated" if use_accelerated(n, k) else "reference"
        agrees = (selected == "accelerated") == (ratio >= 1.0)
        rows.append(
            [
                f"{n} x {k}",
                f"{n * k}",
                f"{engine_s * 1e3:.1f}",
                f"{reference_s * 1e3:.1f}",
                f"{ratio:.2f}x",
                selected,
                "yes" if agrees else "NO",
            ]
        )
        sweep.append(
            {
                "n_points": n,
                "n_clusters": k,
                "n_dims": d,
                "entries": n * k,
                "engine_seconds": round(engine_s, 6),
                "reference_seconds": round(reference_s, 6),
                "engine_speedup": round(ratio, 2),
                "auto_selects": selected,
                "selection_agrees_with_timing": bool(agrees),
            }
        )
    text = format_table(
        ["n x k", "entries", "engine ms", "reference ms", "speedup", "auto", "agrees"],
        rows,
    )
    text += (
        f"\nauto crossover at n*k = {AUTO_CROSSOVER_ENTRIES} entries; "
        f"best of {REPEATS} interleaved repeats\n"
    )
    report("kmeans_auto_crossover.txt", text)
    print("\n" + text)
    emit_bench(
        "kmeans_auto_crossover",
        {"crossover_entries": AUTO_CROSSOVER_ENTRIES, "sweep": sweep},
        report=report,
    )
