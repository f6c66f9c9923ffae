"""E11 — Per-meter throughput of the fused MICA pass.

Runs the production pass (:func:`repro.mica.characterize_intervals`, in
the dataset builder's :func:`~repro.mica.batch_slices` batches) under
an observation over a fixed batch of real intervals at each shipped
interval size — 500, 4,000 and 10,000 instructions, with the ILP/PPM
subsample sizes of the preset that ships each, whatever
``REPRO_BENCH_PRESET`` says — and reports each meter's time from the
``mica.meter.<name>.seconds`` counters the pass records, as
instructions per second.  Each batch goes through the shipped in-place
path: its intervals are synthesized into one reused
:class:`~repro.mica.workspace.Workspace` and metered there, and the
minor page faults of each batch (``getrusage`` ``ru_minflt`` deltas
around synthesis plus metering) are recorded next to the seconds.
A second experiment measures the
feature-block cache hit path: a warm ``build_dataset`` re-run must be
dominated by block loads, not featurization.

Each experiment writes a table under ``benchmarks/output`` and emits one
``BENCH {json}`` line (and ``meter_throughput.json`` /
``feature_cache_hit_path.json``) so the numbers are machine-collectable
across runs.  Neither experiment gates on speed.

Run it alone (it does not touch the session-scoped paper cache)::

    PYTHONPATH=src python -m pytest benchmarks/bench_meter_throughput.py -q
"""

import os
import resource
import statistics
import tempfile
import time

import numpy as np

from repro.config import AnalysisConfig
from repro.core import build_dataset
from repro.io import FeatureBlockCache, format_table
from repro.mica import batch_slices, characterize_intervals
from repro.mica.workspace import Workspace
from repro.obs import emit_bench, observe
from repro.suites import all_benchmarks

#: Timing repeats; the minimum per meter is reported.
REPEATS = 3

#: The six meters, by their ``mica.meter.<name>.seconds`` counter name.
METERS = (
    "instruction_mix",
    "ilp",
    "register_traffic",
    "footprint",
    "strides",
    "branch",
)

#: Shipped interval size -> the preset that ships it (its ILP/PPM
#: subsample sizes).
SIZES = {
    500: AnalysisConfig.tiny(),
    4_000: AnalysisConfig.small(),
    10_000: AnalysisConfig.paper(),
}

#: Instructions per size in the fixed interval batch.
BATCH_TOTAL = 240_000


def _timed_best(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _round_robin_picks(count: int, interval_instructions: int):
    """``count`` real ``(program, interval)`` picks: interval 0 of every benchmark, then 1, ..."""
    benches = all_benchmarks()
    picks = []
    index = 0
    while len(picks) < count:
        for bench in benches:
            if index < bench.program.n_intervals and len(picks) < count:
                picks.append((bench.program, index))
        index += 1
    return picks


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _meter_seconds(picks, config, size, ws):
    """Each meter's seconds, and each batch's minor faults, in one pass."""
    slices = batch_slices(len(picks), size)
    faults = []
    with observe() as ob:
        for chunk in slices:
            before = _minor_faults()
            batch = ws.batch([size] * (chunk.stop - chunk.start))
            for k, (program, index) in enumerate(picks[chunk]):
                program.interval_trace(index, size, out=batch[k])
            characterize_intervals(batch, config)
            faults.append(_minor_faults() - before)
    reg = ob.metrics
    assert reg.counter_value("mica.fused_batches") == len(slices)
    assert reg.counter_value("mica.intervals") == len(picks)
    return {m: reg.counter_value(f"mica.meter.{m}.seconds") for m in METERS}, faults


def bench_meter_throughput(report):
    results = {}
    for size, config in SIZES.items():
        picks = _round_robin_picks(BATCH_TOTAL // size, size)
        ws = Workspace()
        runs = [_meter_seconds(picks, config, size, ws) for _ in range(REPEATS)]
        seconds = {m: min(run[m] for run, _ in runs) for m in METERS}
        seconds["total"] = sum(seconds.values())
        # The first batch provisions the workspace; every later one reuses it.
        first, *reused = [f for _, batch_faults in runs for f in batch_faults]
        instructions = len(picks) * size
        results[size] = {
            "intervals": len(picks),
            "instructions": instructions,
            "seconds": {m: round(v, 6) for m, v in seconds.items()},
            "instructions_per_second": {
                m: round(instructions / v) for m, v in seconds.items()
            },
            "minor_faults_per_batch": {
                "batches": len(runs[0][1]),
                "first": first,
                "median": statistics.median(reused),
                "max": max(reused),
            },
        }

    names = list(METERS) + ["total"]
    rows = [
        [name]
        + [
            f"{r['seconds'][name] * 1e3:.1f} / "
            f"{r['instructions_per_second'][name] / 1e6:.1f}"
            for r in results.values()
        ]
        for name in names
    ]
    rows.append(
        ["faults/batch"]
        + [
            "{first} first, {median:g} median, {max} max".format(**r["minor_faults_per_batch"])
            for r in results.values()
        ]
    )
    text = format_table(
        ["meter"] + [f"{size}-instr: ms / Minstr/s" for size in results], rows
    )
    text += (
        f"\nfused pass over {BATCH_TOTAL} instructions of real intervals per "
        f"size, in batch_slices batches synthesized into one workspace; "
        f"per-meter counters, best of {REPEATS}; minor faults per batch "
        f"(synthesis + metering) over all repeats\n"
    )
    report("meter_throughput.txt", text)
    print("\n" + text)

    emit_bench(
        "meter_throughput",
        {"per_size": {str(size): r for size, r in results.items()}},
        report=report,
    )


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
