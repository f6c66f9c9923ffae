"""The perf ledger's gate policy (``benchmarks/bench_layers.py``)."""

import copy

from benchmarks.bench_layers import FLOOR, WALL_FACTOR, gate

COMMITTED = {
    "spans": {
        "mica": {"wall_s": 16.8, "cpu_s": 16.7, "count": 77},
        "prominent": {"wall_s": 0.001, "cpu_s": 0.001, "count": 1},
    },
    "counters": {"kmeans.iterations": 41.0, "mica.meter.ilp.seconds": 6.5},
    "gauges": {"prominent.coverage": 0.655, "proc.peak_rss_mb": 105.0},
}


def _fresh():
    return copy.deepcopy(COMMITTED)


def test_an_unchanged_row_passes():
    assert gate(COMMITTED, _fresh())["flagged"] == []


def test_a_changed_answer_fails():
    fresh = _fresh()
    fresh["gauges"]["prominent.coverage"] = 0.66
    assert gate(COMMITTED, fresh)["flagged"] == ["prominent.coverage"]


def test_a_five_fold_layer_wall_fails():
    fresh = _fresh()
    fresh["spans"]["mica"]["wall_s"] *= 5
    assert gate(COMMITTED, fresh)["flagged"] == ["mica.wall_s"]
    fresh["spans"]["mica"]["wall_s"] = COMMITTED["spans"]["mica"]["wall_s"] * WALL_FACTOR
    assert gate(COMMITTED, fresh)["flagged"] == []


def test_jitter_on_a_sub_floor_layer_passes():
    fresh = _fresh()
    fresh["spans"]["prominent"]["wall_s"] = 0.001 + 0.9 * FLOOR  # ~10x
    fresh["spans"]["prominent"]["cpu_s"] = 0.001 + 0.9 * FLOOR
    assert gate(COMMITTED, fresh)["flagged"] == []
