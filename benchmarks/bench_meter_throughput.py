"""E11 — Throughput of the vectorized MICA meter kernels.

Times each meter over one interval per suite at the preset's interval
size, reports instructions/second, and measures the kernel-vs-reference
speedups for the two rewritten meters (grouped-scan PPM, single-sweep
ILP) plus the shared :class:`IntervalProfile` build that amortizes
producer matching across meters.  It also times the production fused
pass against the per-interval meter on a fixed batch of real intervals
at each shipped interval size (500, 4,000 and 10,000 instructions,
whatever the preset) and fails unless the fused pass is at least as
fast at every size — the check that keeps one MICA path.  A second
experiment measures the feature-block cache hit path: a warm
``build_dataset`` re-run must be dominated by block loads, not
featurization.

Each experiment writes a table under ``benchmarks/output`` and emits one
``BENCH {json}`` line (and ``meter_throughput.json``) so the numbers are
machine-collectable across runs.

Run it alone (it does not touch the session-scoped paper cache)::

    PYTHONPATH=src python -m pytest benchmarks/bench_meter_throughput.py -q

Set ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` to fail when the PPM kernel lands
under 5x or the ILP kernel under 3x (meant for the paper/default preset;
tiny intervals are overhead-dominated and are not gated).
"""

import os
import tempfile
import time

import numpy as np

from repro.config import AnalysisConfig
from repro.core import build_dataset
from repro.io import FeatureBlockCache, format_table
from repro.isa import OpClass
from repro.mica import (
    IntervalProfile,
    batch_slices,
    characterize_interval,
    characterize_intervals,
    measure_branch,
    measure_footprint,
    measure_ilp,
    measure_ilp_reference,
    measure_instruction_mix,
    measure_ppm,
    measure_ppm_reference,
    measure_register_traffic,
    measure_strides,
)
from repro.obs import emit_bench
from repro.suites import all_benchmarks

#: Timing repeats; the minimum total is reported.
REPEATS = 3

#: Shipped interval size -> the preset that ships it (its ILP/PPM
#: subsample sizes), for the fused-vs-per-interval experiment.
FUSED_SIZES = {
    500: AnalysisConfig.tiny(),
    4_000: AnalysisConfig.small(),
    10_000: AnalysisConfig.paper(),
}

#: Instructions per size in that experiment's fixed interval batch.
FUSED_BATCH_TOTAL = 240_000


def _timed_best(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _suite_traces(config: AnalysisConfig):
    """One representative interval trace per suite at the preset size."""
    traces = []
    seen = set()
    for bench in all_benchmarks():
        if bench.suite in seen:
            continue
        seen.add(bench.suite)
        traces.append(bench.program.interval_trace(0, config.interval_instructions))
    return traces


def _round_robin_traces(count: int, interval_instructions: int):
    """``count`` real intervals: interval 0 of every benchmark, then 1, ..."""
    benches = all_benchmarks()
    traces = []
    index = 0
    while len(traces) < count:
        for bench in benches:
            if index < bench.program.n_intervals and len(traces) < count:
                traces.append(
                    bench.program.interval_trace(index, interval_instructions)
                )
        index += 1
    return traces


def fused_vs_per_interval():
    """Fused pass vs per-interval meter at every shipped interval size.

    Each size measures the same fixed batch both ways — the fused pass
    in the dataset builder's :func:`batch_slices` batches — checks the
    matrices bit-identical, and reports per-interval over fused time.
    """
    results = {}
    for size, config in FUSED_SIZES.items():
        traces = _round_robin_traces(FUSED_BATCH_TOTAL // size, size)
        per, per_s = _timed_best(
            lambda: np.vstack([characterize_interval(t, config) for t in traces])
        )
        fused, fused_s = _timed_best(
            lambda: np.vstack(
                [
                    characterize_intervals(traces[batch], config)
                    for batch in batch_slices(len(traces), size)
                ]
            )
        )
        assert np.array_equal(per, fused)
        results[size] = {
            "intervals": len(traces),
            "per_interval_seconds": round(per_s, 6),
            "fused_seconds": round(fused_s, 6),
            "speedup": round(per_s / fused_s, 2),
        }
    return results


def _branch_streams(traces, config: AnalysisConfig):
    streams = []
    for trace in traces:
        mask = trace.op == OpClass.BRANCH
        pcs = trace.pc[mask][: config.ppm_sample_branches]
        outcomes = trace.taken[mask][: config.ppm_sample_branches]
        streams.append((pcs, outcomes))
    return streams


def bench_meter_throughput(config, report):
    traces = _suite_traces(config)
    streams = _branch_streams(traces, config)
    profiles = [IntervalProfile.from_trace(t) for t in traces]
    total_instructions = sum(len(t) for t in traces)
    ilp_n = config.ilp_sample_instructions

    def sweep(fn):
        def run():
            for trace in traces:
                fn(trace)

        return _timed_best(run)[1]

    # The two rewritten meters, kernel vs retained reference.
    ppm_results, ppm_s = _timed_best(
        lambda: [measure_ppm(p, o) for p, o in streams]
    )
    ppm_ref_results, ppm_ref_s = _timed_best(
        lambda: [measure_ppm_reference(p, o) for p, o in streams]
    )
    assert ppm_results == ppm_ref_results
    ilp_results, ilp_s = _timed_best(
        lambda: [
            measure_ilp(t, sample_instructions=ilp_n, profile=p)
            for t, p in zip(traces, profiles)
        ]
    )
    ilp_ref_results, ilp_ref_s = _timed_best(
        lambda: [
            measure_ilp_reference(t, sample_instructions=ilp_n) for t in traces
        ]
    )
    for got, want in zip(ilp_results, ilp_ref_results):
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) < 1e-9 for k in got)

    _, profile_s = _timed_best(
        lambda: [IntervalProfile.from_trace(t) for t in traces]
    )

    timings = {
        "ppm (kernel)": ppm_s,
        "ppm (reference)": ppm_ref_s,
        "ilp (kernel)": ilp_s,
        "ilp (reference)": ilp_ref_s,
        "profile build": profile_s,
        "instruction mix": sweep(measure_instruction_mix),
        "footprint": sweep(measure_footprint),
        "strides": sweep(measure_strides),
        "register traffic": sweep(measure_register_traffic),
        "branch (incl. ppm)": sweep(
            lambda t: measure_branch(t, sample_branches=config.ppm_sample_branches)
        ),
    }
    ppm_speedup = ppm_ref_s / ppm_s
    ilp_speedup = ilp_ref_s / ilp_s
    fused = fused_vs_per_interval()

    rows = [
        [name, f"{seconds * 1e3:.2f}", f"{total_instructions / seconds / 1e6:.1f}"]
        for name, seconds in timings.items()
    ]
    text = format_table(["meter", "ms / interval set", "Minstr/s"], rows)
    text += (
        f"\n{len(traces)} intervals x {config.interval_instructions} instructions, "
        f"best of {REPEATS}; ppm speedup {ppm_speedup:.2f}x, "
        f"ilp speedup {ilp_speedup:.2f}x (profile-amortized)\n"
    )
    text += format_table(
        ["interval instr", "intervals", "per-interval ms", "fused ms", "fused speedup"],
        [
            [
                str(size),
                str(r["intervals"]),
                f"{r['per_interval_seconds'] * 1e3:.1f}",
                f"{r['fused_seconds'] * 1e3:.1f}",
                f"{r['speedup']:.2f}x",
            ]
            for size, r in fused.items()
        ],
    )
    report("meter_throughput.txt", text)
    print("\n" + text)

    payload = {
        "preset": os.environ.get("REPRO_BENCH_PRESET", "paper"),
        "interval_instructions": config.interval_instructions,
        "n_intervals": len(traces),
        "seconds": {k: round(v, 6) for k, v in timings.items()},
        "instructions_per_second": {
            k: round(total_instructions / v) for k, v in timings.items()
        },
        "ppm_speedup": round(ppm_speedup, 2),
        "ilp_speedup": round(ilp_speedup, 2),
        "fused_vs_per_interval": {str(size): r for size, r in fused.items()},
    }
    emit_bench("meter_throughput", payload, report=report)

    # Ungated by REPRO_BENCH_REQUIRE_SPEEDUP: the fused pass is the only
    # production path, so it must never lose at a shipped size.
    for size, r in fused.items():
        assert r["speedup"] >= 1.0, (
            f"fused pass {r['speedup']:.2f}x the per-interval meter "
            f"at {size}-instruction intervals"
        )

    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP"):
        assert ppm_speedup >= 5.0, f"ppm kernel speedup {ppm_speedup:.2f}x < 5x"
        assert ilp_speedup >= 3.0, f"ilp kernel speedup {ilp_speedup:.2f}x < 3x"


def bench_feature_cache_hit_path(config, report):
    benches = all_benchmarks()[:8]
    with tempfile.TemporaryDirectory() as tmp:
        cache = FeatureBlockCache(tmp)
        cold_ds, cold_s = _timed_best(
            lambda: build_dataset(benches, config, feature_cache=cache), repeats=1
        )
        warm_ds, warm_s = _timed_best(
            lambda: build_dataset(benches, config, feature_cache=cache)
        )
    assert np.array_equal(cold_ds.features, warm_ds.features)
    speedup = cold_s / warm_s

    rows = [
        ["build_dataset", "cold (featurize + store)", f"{cold_s * 1e3:.1f}", "1.00x"],
        ["build_dataset", "warm (feature blocks)", f"{warm_s * 1e3:.1f}", f"{speedup:.2f}x"],
    ]
    text = format_table(["stage", "path", "ms", "speedup"], rows)
    text += (
        f"\n{len(benches)} benchmarks, {len(cold_ds)} intervals; "
        f"warm rerun featurizes nothing (results bit-identical)\n"
    )
    report("feature_cache_hit_path.txt", text)
    print("\n" + text)

    payload = {
        "preset": os.environ.get("REPRO_BENCH_PRESET", "paper"),
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "speedup": round(speedup, 2),
    }
    emit_bench("feature_cache_hit_path", payload, report=report)
