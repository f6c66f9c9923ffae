"""Repository benchmark: end-to-end and per-layer timings of shipped presets.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 2008 --seconds 30 --trace 0

Workloads (see ``harness/workloads.py``): ``paper-cold``, ``paper-warm``,
``small-stream``.  A run sets the workload up ``SETUP_REPEATS`` times,
then makes timed calls for ``--seconds`` (at least ``MIN_CALLS``), each
one verified against the pinned and the run's own result digests.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, and the
medians over the calls of ``wall_s``, ``rows_per_s``, ``cpu_s`` and
``peak_rss_mb``, plus ``ok_frac``.  ``--trace 1`` alternates untraced
and traced calls and reports per-layer medians over the traced ones
(``harness/tracing.py``) and the tracing overhead.  The last line of
standard output is the JSON result; the line before it, and
``perfbench/_out/``, hold the run record: environment, result
quantities, every sample and, when traced, every span.

Before numpy loads, the BLAS and OpenMP pools are pinned to one thread:
with two threads, OpenBLAS's first SVD now and then spins for up to a
second of CPU.  The pipeline runs with ``n_jobs=1`` and the serial
executor.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("paper-cold", "paper-warm", "small-stream")

#: Set-up repetitions per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3
#: Fewest timed calls per run, whatever ``--seconds`` says.
MIN_CALLS = 3


def _reset_peak_rss() -> bool:
    """Reset the kernel's RSS high-water mark (``VmHWM``) to current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _environment(np, rss_reset: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {
            key: blas.get(key)
            for key in ("name", "version", "openblas configuration")
        },
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "executor": "serial",
        "n_jobs": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "peak_rss_reset": rss_reset,
    }


def _timed_call(workload, out_dir: Path, index: int, tracer) -> dict:
    """One timed, verified call; traced when ``tracer`` is given."""
    from harness import tracing
    from repro import obs

    out_dir.mkdir()
    gc.collect()
    _reset_peak_rss()
    record = {"index": index, "traced": tracer is not None, "ok": False}
    output = out_dir / "result.npz"
    layers = None
    try:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        if tracer is None:
            loaded = workload.run(output)
        else:
            with tracing.patched(tracer), obs.observe() as observation:
                tracer.begin(index)
                with tracer.span(tracing.ROOT):
                    loaded = workload.run(output)
        record["wall_s"] = time.perf_counter() - wall0
        record["cpu_s"] = time.process_time() - cpu0
        record["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            layers = tracer.fold(index, observation.metrics)
            record["layers"] = layers
        record["digest"] = workload.result_digest(loaded)
        record["problems"] = workload.problems(loaded)
        record["ok"] = not record["problems"]
        record["quantities"] = workload.quantities(loaded)
    except Exception as exc:  # a failed operation is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if layers is not None:
        tracing.require_layers(layers, workload.required_layers)
    return record


def _measure(args, work: Path) -> dict:
    import numpy as np

    from harness import tracing, workloads
    from repro.suites import all_suites

    all_suites()
    workload = workloads.make_workload(args.workload, args.seed)
    once_s = time.perf_counter() - _START
    repeats = []
    for i in range(SETUP_REPEATS):
        setup_dir = work / f"setup-{i}"
        setup_dir.mkdir()
        t0 = time.perf_counter()
        workload.setup(setup_dir)
        repeats.append(time.perf_counter() - t0)
    setup_s = once_s + statistics.median(repeats)

    tracer = tracing.Tracer() if args.trace else None
    min_calls = 2 * MIN_CALLS if tracer else MIN_CALLS
    calls = []
    deadline = time.perf_counter() + args.seconds
    while len(calls) < min_calls or time.perf_counter() < deadline or (
        tracer and len(calls) % 2
    ):
        index = len(calls)
        traced = tracer if tracer is not None and index % 2 else None
        calls.append(_timed_call(workload, work / f"call-{index}", index, traced))

    done = [c for c in calls if "wall_s" in c]
    if not done:
        raise RuntimeError(f"no call completed: {calls[0].get('error')}")
    ok = sum(c["ok"] for c in calls)
    plain = [c for c in done if not c["traced"]]
    wall_s = statistics.median(c["wall_s"] for c in plain)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "rows_per_s": (workload.rows / wall_s, "1/s"),
            "cpu_s": (statistics.median(c["cpu_s"] for c in plain), "s"),
            "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in plain), "MB"),
            "ok_frac": (ok / len(calls), "ratio"),
        }
    else:
        traced_calls = [c for c in done if c["traced"]]
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            if name == "trace.overhead_frac":
                traced_wall = statistics.median(c["wall_s"] for c in traced_calls)
                value = traced_wall / wall_s - 1.0
            else:
                value = statistics.median(c["layers"][name] for c in traced_calls)
            metrics[name] = (value, unit)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rows": workload.rows,
        "benchmarks": [b.key for b in workload.benchmarks],
        "environment": _environment(np, _reset_peak_rss()),
        "setup": {"once_s": once_s, "repeats_s": repeats},
        "expected_digest": workload.expected,
        "quantities": next((c["quantities"] for c in calls if c["ok"]), None),
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "calls": calls,
    }
    result = {
        "correct": ok == len(calls),
        "attempted": len(calls),
        "failed": len(calls) - ok,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = dict(record, spans=tracer.records(_START) if tracer else [])
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1))
    summary = {k: v for k, v in record.items() if k != "calls"}
    summary["call_walls_s"] = [c.get("wall_s") for c in calls]
    summary["errors"] = [c["error"] for c in calls if "error" in c]
    summary["problems"] = [p for c in calls for p in c.get("problems", [])]
    print(json.dumps(summary))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    # The streaming spool's default per-run directory comes from
    # tempfile; keep it inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    try:
        result = _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
