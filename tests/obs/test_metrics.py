"""Metrics registry: instruments, thread-safety, snapshot."""

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


def test_noop_registry_records_nothing():
    reg = NoopMetricsRegistry()
    reg.counter_add("c", 5)
    reg.gauge_set("g", 1.0)
    reg.counter_add_many([("c", 1.0), ("d", 2.0)])
    snap = reg.snapshot()
    assert snap == {"counters": {}, "gauges": {}}
