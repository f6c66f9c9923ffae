"""E13 — Overhead of the observability layer.

Runs the full pipeline (featurize, PCA, k-means, prominent phases, GA)
with the observability layer active and inert, asserts the results are
bit-identical either way, and reports the enabled-vs-disabled
wall-clock delta.

The enabled path is the *full* telemetry stack, not just spans and
metrics: the run is recorded as ``repro characterize --telemetry``
records it (:class:`repro.obs.recorded_run`), streaming span,
progress, stage and metric events line-by-line (flushed per line) to
a real file on disk.  The 2% bound therefore covers the worst
observability configuration a user can turn on.

The tiny preset is forced regardless of ``REPRO_BENCH_PRESET``: it is
the worst case for relative overhead (the smallest real work per span),
so a pass here bounds every larger preset.

Timing a sub-second pipeline to 2% on a shared machine needs a design
that cancels load drift rather than hoping it away, so each repeat is a
**bracketed triple** — disabled, enabled, disabled — and the enabled
run is compared against the mean of its two brackets (linear drift
within the triple cancels exactly).  The disagreement between the two
disabled runs of each triple is the repeat's **noise floor**.  Two
independent trials of ``REPEATS`` triples each produce two median
overheads; the reported overhead is the lower of the two, so a load
burst has to span both trials to fake a regression.  The gate fails
only when that overhead exceeds ``2% + noise``, which on a quiet
machine is simply 2%.

Writes a table under ``benchmarks/output`` and emits one ``BENCH
{json}`` line (and ``obs_overhead.json``) so the numbers are
machine-collectable across runs.

Run it alone (it does not touch the session-scoped paper cache)::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q

Set ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` to fail when enabled-path
overhead exceeds the bound.
"""

import os
import statistics
import tempfile
import time

import numpy as np

from repro.config import AnalysisConfig
from repro.core import build_dataset, run_characterization
from repro.io import format_table
from repro.obs import build_report, emit_bench, missing_stages, read_events, recorded_run
from repro.suites import all_benchmarks

#: Bracketed triples per trial (two trials are run).
REPEATS = 7

#: The acceptance bound on enabled-path overhead (plus the measured
#: noise floor).
MAX_OVERHEAD = 0.02


def _run(benchmarks, config, observed, telemetry_path=None):
    if observed:
        with recorded_run(
            "bench-obs-overhead", command="bench", config=config, events=telemetry_path
        ) as run:
            with run.observing() as ob:
                dataset = build_dataset(benchmarks, config)
                result = run_characterization(dataset, config, select_key=True)
        return result, ob
    dataset = build_dataset(benchmarks, config)
    return run_characterization(dataset, config, select_key=True), None


def bench_obs_overhead(report):
    config = AnalysisConfig.tiny()
    benchmarks = all_benchmarks()
    tmpdir = tempfile.mkdtemp(prefix="repro-obs-overhead-")
    events_path = os.path.join(tmpdir, "events.jsonl")

    # Warm both paths (imports, allocator) before timing.
    result_off, _ = _run(benchmarks, config, observed=False)
    result_on, observation = _run(benchmarks, config, observed=True, telemetry_path=events_path)

    # The layer's contract: identical results, bit for bit...
    np.testing.assert_array_equal(result_off.space, result_on.space)
    np.testing.assert_array_equal(
        result_off.clustering.labels, result_on.clustering.labels
    )
    assert result_off.clustering.bic == result_on.clustering.bic
    assert result_off.key_characteristics == result_on.key_characteristics
    # ... while the observed run recorded every methodology stage and
    # streamed an ordered, parseable event log to disk.
    assert missing_stages(build_report(observation)) == []
    events, truncated = read_events(events_path)
    assert events and not truncated
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    n_events = len(events)

    def timed(observed):
        start = time.perf_counter()
        _run(
            benchmarks,
            config,
            observed=observed,
            telemetry_path=events_path if observed else None,
        )
        return time.perf_counter() - start

    def trial():
        ratios, noises, times = [], [], []
        for _ in range(REPEATS):
            off_a = timed(False)
            on = timed(True)
            off_b = timed(False)
            ratios.append(on / ((off_a + off_b) / 2.0) - 1.0)
            noises.append(abs(off_a / off_b - 1.0))
            times.append((on, (off_a + off_b) / 2.0))
        return statistics.median(ratios), statistics.median(noises), times

    trials = [trial(), trial()]
    overhead, noise, times = min(trials, key=lambda t: t[0])
    bound = MAX_OVERHEAD + noise
    best_on = min(on for on, _ in times)
    best_off = min(off for _, off in times)

    rows = [
        ["observability off (inert no-ops)", f"{best_off * 1e3:.1f}", "baseline"],
        [
            "observability on (spans + metrics + event bus)",
            f"{best_on * 1e3:.1f}",
            f"{100 * overhead:+.2f}%",
        ],
    ]
    text = format_table(["path", "ms / pipeline run", "overhead"], rows)
    text += (
        f"\ntiny preset, {len(benchmarks)} benchmarks, full pipeline incl. GA, "
        f"live event bus streaming {n_events} JSONL events to disk per enabled run, "
        f"2 trials x {REPEATS} bracketed triples (median ratio, lower trial); "
        f"noise floor {100 * noise:.2f}%, bound {100 * bound:.2f}%, "
        f"results bit-identical\n"
    )
    report("obs_overhead.txt", text)
    print("\n" + text)

    payload = {
        "preset": "tiny",
        "n_benchmarks": len(benchmarks),
        "disabled_seconds": round(best_off, 6),
        "enabled_seconds": round(best_on, 6),
        "overhead_ratio": round(overhead, 4),
        "noise_ratio": round(noise, 4),
        "max_overhead_ratio": MAX_OVERHEAD,
        "telemetry_events": n_events,
        "bit_identical": True,
    }
    emit_bench("obs_overhead", payload, report=report)

    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP"):
        assert overhead < bound, (
            f"observability overhead {100 * overhead:.2f}% "
            f">= {100 * MAX_OVERHEAD:.0f}% + noise {100 * noise:.2f}%"
        )
