"""Tiny-scale smoke test of the benchmark harness.

Runs every workload at ``AnalysisConfig.tiny()`` scale with an explicit
seed: two calls must give equal digests, the second one traced and
reaching every layer the workload requires.  Run from the repository
root with::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from harness import tracing, workloads  # noqa: E402
from repro import obs  # noqa: E402

SEED = 7


def _traced_run(workload, output):
    tracer = tracing.Tracer()
    with tracing.patched(tracer), obs.observe() as observation:
        tracer.begin(1)
        with tracer.span(tracing.ROOT):
            loaded = workload.run(output)
    return loaded, tracer.fold(1, observation.metrics)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_calls_give_equal_digests(name, tmp_path):
    workload = workloads.make_workload(name, SEED, scale="tiny")
    workload.setup(tmp_path / "setup")
    first = workload.run(tmp_path / "a" / "result.npz")
    second, layers = _traced_run(workload, tmp_path / "b" / "result.npz")
    assert workload.problems(first) == []
    assert workload.problems(second) == []
    assert workload.result_digest(first) == workload.result_digest(second)

    tracing.require_layers(layers, workload.required_layers)
    assert all(layers[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)
    if name == "paper-warm":
        assert layers["mica.calls"] == 0 and layers["synth.calls"] == 0
        assert layers["io.feature_blocks.hit_frac"] == 1.0
    if name == "small-stream":
        assert layers["io.spool.featurize_sweeps"] == 1
        assert layers["prefetch.batches"] > 0


def test_warm_digest_equals_cold_digest(tmp_path):
    cold = workloads.make_workload("paper-cold", SEED, scale="tiny")
    warm = workloads.make_workload("paper-warm", SEED, scale="tiny")
    warm.setup(tmp_path / "warm")
    loaded = cold.run(tmp_path / "cold" / "result.npz")
    assert cold.result_digest(loaded) == warm.reference


def test_a_changed_digest_fails_the_call(tmp_path):
    workload = workloads.make_workload("paper-cold", SEED, scale="tiny")
    workload.reference = "0" * 64
    loaded = workload.run(tmp_path / "result.npz")
    assert workload.problems(loaded)


def test_a_layer_without_calls_fails_loudly(tmp_path):
    workload = workloads.make_workload("paper-warm", SEED, scale="tiny")
    workload.setup(tmp_path / "setup")
    _, layers = _traced_run(workload, tmp_path / "result.npz")
    with pytest.raises(tracing.LayerNotReached, match="synth"):
        tracing.require_layers(layers, ("synth",))


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "rows_per_s", "cpu_s", "peak_rss_mb", "ok_frac",
    ]
