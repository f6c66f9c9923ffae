"""Metrics registry: instruments, thread-safety, snapshot/merge."""

import math
import threading

from repro.obs import MetricsRegistry, NoopMetricsRegistry


def test_counter_add_and_read():
    reg = MetricsRegistry()
    reg.counter_add("a")
    reg.counter_add("a", 2.5)
    assert reg.counter_value("a") == 3.5
    assert reg.counter_value("missing") == 0.0


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    reg.gauge_set("g", 1.0)
    reg.gauge_set("g", 7.0)
    assert reg.gauge_value("g") == 7.0
    assert math.isnan(reg.gauge_value("missing"))


def test_counters_thread_safe_exact_total():
    reg = MetricsRegistry()
    n_threads, per_thread = 8, 5000

    def work():
        for _ in range(per_thread):
            reg.counter_add("hits")

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.counter_value("hits") == n_threads * per_thread


def test_snapshot_merge_adds_counters_and_takes_gauges():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter_add("c", 1)
    b.counter_add("c", 2)
    b.counter_add("only_b", 5)
    a.gauge_set("g", 1.0)
    b.gauge_set("g", 2.0)
    b.gauge_set("only_b", 3.0)
    a.merge(b.snapshot())
    assert a.counter_value("c") == 3
    assert a.counter_value("only_b") == 5
    assert a.gauge_value("g") == 2.0  # merged value wins
    assert a.snapshot()["gauges"] == {"g": 2.0, "only_b": 3.0}


def test_merge_same_snapshot_twice_double_counts():
    # The registry itself does not dedupe — exactly-once is the
    # executor's contract (tested in tests/obs/test_executor_obs.py).
    a = MetricsRegistry()
    b = MetricsRegistry()
    b.counter_add("c", 2)
    snap = b.snapshot()
    a.merge(snap)
    a.merge(snap)
    assert a.counter_value("c") == 4


def test_noop_registry_records_nothing():
    reg = NoopMetricsRegistry()
    reg.counter_add("c", 5)
    reg.gauge_set("g", 1.0)
    reg.counter_add_many([("c", 1.0), ("d", 2.0)])
    reg.merge({"counters": {"c": 9}, "gauges": {"g": 2.0}})
    snap = reg.snapshot()
    assert snap == {"counters": {}, "gauges": {}}
