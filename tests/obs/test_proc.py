"""Peak-RSS gauges: getrusage reader, registry recording, report inclusion."""

import subprocess
import sys

import numpy as np
import pytest

from repro.obs import (
    MetricsRegistry,
    build_report,
    observe,
    peak_rss_mb,
    record_peak_rss,
    validate_report,
)
from repro.obs.proc import _maxrss_to_mb, peak_rss_children_mb


def test_peak_rss_mb_is_positive_and_plausible():
    peak = peak_rss_mb()
    # The interpreter plus numpy resident set is megabytes, not zero
    # and not terabytes.
    assert 1.0 < peak < 1_000_000.0


def test_peak_rss_grows_monotonically_with_allocation():
    before = peak_rss_mb()
    ballast = np.ones((4 << 20,), dtype=np.float64)  # 32 MiB touched
    ballast[::4096] = 2.0
    after = peak_rss_mb()
    assert after >= before
    del ballast


def test_record_peak_rss_sets_gauge():
    registry = MetricsRegistry()
    peak = record_peak_rss(registry)
    snap = registry.snapshot()
    assert snap["gauges"]["proc.peak_rss_mb"] == peak
    assert peak > 0


def test_record_peak_rss_defaults_to_active_registry():
    with observe(run_id="rss-test") as ob:
        record_peak_rss()
        gauges = ob.metrics.snapshot()["gauges"]
    assert gauges["proc.peak_rss_mb"] > 0


def test_run_report_includes_peak_rss_gauge():
    with observe(run_id="rss-report") as ob:
        pass
    report = build_report(ob)
    assert validate_report(report) == []
    assert report["metrics"]["gauges"]["proc.peak_rss_mb"] > 0


def test_maxrss_units_differ_by_platform(monkeypatch):
    # ru_maxrss is kilobytes on Linux but *bytes* on macOS: the same
    # raw value must normalize 1024x apart.
    monkeypatch.setattr(sys, "platform", "linux")
    linux_mb = _maxrss_to_mb(2048.0)
    monkeypatch.setattr(sys, "platform", "darwin")
    darwin_mb = _maxrss_to_mb(2048.0)
    assert linux_mb == 2.0
    assert darwin_mb == pytest.approx(2048.0 / (1024.0 * 1024.0))
    assert linux_mb == pytest.approx(darwin_mb * 1024.0)


def test_children_peak_counts_waited_for_children():
    # Spawn a child that holds ~48 MiB resident, wait for it, and the
    # RUSAGE_CHILDREN high-water mark must reflect it.
    before = peak_rss_children_mb()
    subprocess.run(
        [
            sys.executable,
            "-c",
            "b = bytearray(48 * 1024 * 1024)\n"
            "b[::4096] = bytes(len(b[::4096]))\n",
        ],
        check=True,
    )
    after = peak_rss_children_mb()
    assert after >= before
    assert after >= 24.0  # well above zero, below is implausible


def test_record_peak_rss_includes_children_gauge_after_wait():
    registry = MetricsRegistry()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    record_peak_rss(registry)
    gauges = registry.snapshot()["gauges"]
    # A child has been waited for, so the children gauge must be
    # present (nonzero lifetime high-water mark) alongside self.
    assert gauges["proc.peak_rss_mb"] > 0
    assert gauges.get("proc.peak_rss_children_mb", 0.0) > 0


def test_children_gauge_absent_when_no_child_memory(monkeypatch):
    import repro.obs.proc as proc_mod

    registry = MetricsRegistry()
    monkeypatch.setattr(proc_mod, "peak_rss_children_mb", lambda: 0.0)
    proc_mod.record_peak_rss(registry)
    gauges = registry.snapshot()["gauges"]
    assert "proc.peak_rss_children_mb" not in gauges
