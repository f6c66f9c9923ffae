"""E14 — Featurize-once speedup of the streaming feature spool.

Runs the same streaming characterization twice — as shipped
(featurize the plan once, replay every later sweep zero-copy from the
memory-mapped store) and with every spool replay forced to miss
(``FeatureSpool.open_replay`` returns None, as on a failed
verification, so every sweep regenerates traces and re-runs the fused
MICA meters) — asserts the two results are bit-identical, and reports
wall-clock, sweep counts and spool traffic.

The streaming engine makes ``2 + refinement passes`` sweeps over the
plan, so with featurization dominating each sweep the spool's ceiling
is the sweep count itself; the gate is a conservative 3x.

Writes a table under ``benchmarks/output`` and emits one ``BENCH
{json}`` line (and ``streaming_passes.json``) so the numbers are
machine-collectable across runs.

Run it alone (it does not touch the session-scoped paper cache)::

    PYTHONPATH=src python -m pytest benchmarks/bench_streaming_passes.py -q

Set ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` to fail under 3x (the CI
``bench-streaming-passes`` job does, at the tiny preset).
"""

import os
import time
from unittest import mock

import numpy as np

from repro.io import format_table
from repro.io.spool import FeatureSpool
from repro.obs import emit_bench, observe
from repro.streaming import run_streaming_characterization
from repro.suites import SUITE_INT2000, get_suite

#: Timing repeats; the minimum is reported.
REPEATS = 2

#: Problem size per preset: (benchmarks, intervals each, instructions
#: per interval).  Sized so featurization dominates a sweep — the
#: regime the spool exists for — while the gated tiny row still runs
#: in well under a minute.
SCALE = {
    "paper": (6, 24, 3_000),
    "small": (6, 20, 2_500),
    "tiny": (6, 16, 2_000),
}


def _bench_config(config, intervals, instructions):
    return config.replace(
        interval_instructions=instructions,
        intervals_per_benchmark=intervals,
        n_clusters=8,
        n_prominent=4,
        kmeans_restarts=2,
        kmeans_max_iter=15,
        batch_intervals=16,
    )


def _timed_best(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def bench_streaming_passes(config, report):
    preset = os.environ.get("REPRO_BENCH_PRESET", "paper")
    n_benches, intervals, instructions = SCALE[preset]
    cfg = _bench_config(config, intervals, instructions)
    benches = get_suite(SUITE_INT2000).benchmarks[:n_benches]

    with observe() as ob:
        spooled, spool_s = _timed_best(
            lambda: run_streaming_characterization(benches, cfg)
        )
        with mock.patch.object(FeatureSpool, "open_replay", return_value=None):
            recomputed, recompute_s = _timed_best(
                lambda: run_streaming_characterization(benches, cfg)
            )

    # The contract the spool lives by: identical results, bit for bit.
    assert np.array_equal(
        spooled.clustering.labels, recomputed.clustering.labels
    )
    assert np.array_equal(
        spooled.clustering.centers, recomputed.clustering.centers
    )
    assert spooled.clustering.bic == recomputed.clustering.bic
    assert spooled.clustering.inertia == recomputed.clustering.inertia
    assert spooled.explained_variance == recomputed.explained_variance

    speedup = recompute_s / spool_s
    total_sweeps = recomputed.featurize_sweeps
    rows = [
        [
            "spool (featurize once + replay)",
            f"{spool_s * 1e3:.0f}",
            str(spooled.featurize_sweeps),
            str(spooled.replay_sweeps),
            f"{spooled.spool_bytes / 1e6:.2f}",
        ],
        [
            "recompute every pass (forced spool miss)",
            f"{recompute_s * 1e3:.0f}",
            str(recomputed.featurize_sweeps),
            str(recomputed.replay_sweeps),
            f"{recomputed.spool_bytes / 1e6:.2f}",
        ],
    ]
    text = format_table(
        ["path", "ms / run", "featurize sweeps", "replay sweeps", "MB spooled"],
        rows,
    )
    text += (
        f"\n{len(spooled)} rows from {n_benches} benchmarks, "
        f"{instructions} instructions/interval, {total_sweeps} total sweeps, "
        f"best of {REPEATS}; spool speedup {speedup:.2f}x, "
        f"results bit-identical\n"
    )
    report("streaming_passes.txt", text)
    print("\n" + text)

    payload = {
        "preset": preset,
        "n_benchmarks": n_benches,
        "n_rows": len(spooled),
        "interval_instructions": instructions,
        "spool_seconds": round(spool_s, 6),
        "recompute_seconds": round(recompute_s, 6),
        "speedup": round(speedup, 2),
        "total_sweeps": int(total_sweeps),
        "spool_featurize_sweeps": int(spooled.featurize_sweeps),
        "spool_replay_sweeps": int(spooled.replay_sweeps),
        "spool_bytes_written": int(spooled.spool_bytes),
        "prefetch_batches": int(ob.metrics.counter_value("prefetch.batches")),
        "bit_identical": True,
    }
    emit_bench("streaming_passes", payload, report=report)

    assert spooled.featurize_sweeps == 1
    assert recomputed.featurize_sweeps >= 3
    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP"):
        assert speedup >= 3.0, f"feature spool speedup {speedup:.2f}x < 3x"
