"""The perf ledger: every layer of the shipped presets, gated per layer.

Runs ``python -m repro characterize --preset P --run-report R`` for
each of ``tiny``, ``small`` and ``paper`` (all 77 benchmarks, GA
included, serial, BLAS on one thread as perfbench pins it, fresh
output directory so no stage resumes) and
folds each run report into one ledger row with
:func:`repro.obs.ledger_row`: per span name the summed ``wall_s`` and
``cpu_s`` and the span count, every counter, and every gauge (result
quantities and ``proc.peak_rss_mb``).

The rows are published with ``emit_bench("layers", ...)``
(``benchmarks/output/BENCH_layers.json``) and compared, preset by
preset, against the committed ``BENCH_layers.json`` at the repo root
through :func:`repro.obs.diff_records`, the comparer ``repro runs
diff`` uses.  The gate's policy is the module constants below:
counts and answers must be equal; timings and memory may grow to
:data:`WALL_FACTOR` times the committed value, and never fail on
growth under :data:`FLOOR`.

Run it alone (it ignores ``REPRO_BENCH_PRESET``; about a minute)::

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py -q -s

A deliberate change to the ledger (a new span, a changed answer, a
real speed-up) is committed by copying
``benchmarks/output/BENCH_layers.json`` to the repo root.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.obs import diff_records, emit_bench, ledger_row, load_report, render_diff

REPO = Path(__file__).resolve().parents[1]

#: The committed ledger the fresh rows are gated against.
LEDGER = REPO / "BENCH_layers.json"

#: The presets ``repro characterize`` ships, smallest first.
PRESETS = ("tiny", "small", "paper")

#: Timings and memory may grow to this multiple of the committed value.
WALL_FACTOR = 4.0

#: Growth below this (seconds, MB or bytes) never fails: a sub-10 ms
#: layer's jitter is no regression.
FLOOR = 0.010

#: One BLAS thread, as perfbench runs: on a shared 2-vCPU host a
#: two-thread OpenBLAS spin-waits for a busy core, and the PCA layer
#: has read 0.12 s and 1.24 s in back-to-back paper runs.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_report(preset: str) -> dict:
    """The run report of one fresh, serial ``characterize`` at ``preset``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.update({name: "1" for name in BLAS_THREADS})
    with tempfile.TemporaryDirectory(prefix=f"ledger-{preset}-") as workdir:
        report = Path(workdir) / "report.json"
        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "characterize",
                str(Path(workdir) / "out.npz"),
                "--preset",
                preset,
                "--run-report",
                str(report),
            ],
            check=True,
            env=env,
            cwd=workdir,
            stdout=subprocess.DEVNULL,
            timeout=1800,
        )
        return load_report(report)


def gate(committed: dict, fresh: dict) -> dict:
    """Compare a fresh ledger row against its committed one."""
    return diff_records(committed, fresh, tolerance=WALL_FACTOR - 1.0, floor=FLOOR)


def bench_layers(report):
    rows = {preset: ledger_row(run_report(preset)) for preset in PRESETS}
    emit_bench("layers", rows, report=report)
    committed = json.loads(LEDGER.read_text())
    flagged = []
    for preset in PRESETS:
        diff = gate(committed[preset], rows[preset])
        print(f"\n[{preset}] ledger against {LEDGER.name}")
        print(render_diff(diff), end="")
        flagged += [f"{preset}: {name}" for name in diff["flagged"]]
    assert not flagged, "ledger differs from the committed file: " + ", ".join(flagged)
