"""The event log is the one record: a live report equals the log's fold.

A run report built from a live observation and one rebuilt from the
JSONL its bus wrote must have the same span tree — names, nesting
(executor ``task`` nodes and their labels included), attrs, and every
non-root duration — and the same counters, on every executor backend.
A worker whose bounded log overflows must show up as a partial report
with the drop count, not as silently missing spans.
"""

import io
import json

import pytest

from repro.config import AnalysisConfig
from repro.core import build_dataset, run_characterization
from repro.obs import (
    EventBus,
    JsonlSink,
    build_report,
    emit_event,
    observe,
    report_from_events,
    span,
    validate_report,
)
from repro.obs.events import MAX_WORKER_EVENTS
from repro.parallel import SerialExecutor, fork_available, get_executor
from repro.suites import get_suite

BACKENDS = [
    pytest.param("serial", id="serial"),
    pytest.param("thread", id="thread"),
    pytest.param(
        "process",
        id="process",
        marks=pytest.mark.skipif(not fork_available(), reason="no fork"),
    ),
]


def _shape(node, root=True):
    """A span tree as comparable data; the root's clocks are excluded."""
    clocks = None if root else (node["wall_s"], node["cpu_s"])
    return (
        node["name"],
        node["attrs"],
        clocks,
        [_shape(child, root=False) for child in node["children"]],
    )


def _walk(node):
    yield node
    for child in node["children"]:
        yield from _walk(child)


def _observed(run):
    """Run ``run()`` observed with a bus; the live report and the log."""
    handle = io.StringIO()
    bus = EventBus(JsonlSink(handle), "one-log")
    with observe(run_id="one-log", emitter=bus) as ob:
        run()
    live = build_report(ob)
    ob.emit_metric_deltas()
    bus.close(ok=True)
    events = [json.loads(line) for line in handle.getvalue().splitlines()]
    return live, report_from_events(events)


@pytest.mark.parametrize("backend", BACKENDS)
def test_live_report_equals_the_fold_of_its_log(backend):
    config = AnalysisConfig.tiny().replace(
        n_jobs=1 if backend == "serial" else 2, parallel_backend=backend
    )
    benches = list(get_suite("BMW").benchmarks[:3]) + list(
        get_suite("BioPerf").benchmarks[:3]
    )

    def run():
        dataset = build_dataset(benches, config)
        run_characterization(dataset, config, select_key=True)

    live, folded = _observed(run)
    assert validate_report(live) == [] and validate_report(folded) == []
    assert "partial" not in live and "partial" not in folded
    assert _shape(live["spans"]) == _shape(folded["spans"])
    labels = [n["attrs"]["label"] for n in _walk(live["spans"]) if n["name"] == "task"]
    assert [b.key for b in benches] == labels[: len(benches)]
    assert live["metrics"]["counters"] == folded["metrics"]["counters"]


def _noisy(payload, i):
    with span("work", index=i):
        for j in range(payload if i == 1 else 3):
            emit_event("tick", j=j)
    return i


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_overflowing_worker_makes_the_report_partial(backend):
    overflow = 25
    # Task 1 logs its task and work opens, the ticks, and two closes:
    # MAX_WORKER_EVENTS + overflow events survive as MAX_WORKER_EVENTS.
    ticks = MAX_WORKER_EVENTS + overflow - 4
    executor = (
        SerialExecutor() if backend == "serial" else get_executor(backend, 2)
    )

    def run():
        with span("fanout"):
            executor.map(_noisy, range(3), payload=ticks)

    live, folded = _observed(run)
    for doc in (live, folded):
        assert validate_report(doc) == []
        assert doc["partial"] is True
        assert doc["dropped_events"] == overflow
    assert _shape(live["spans"]) == _shape(folded["spans"])
    fanout = live["spans"]["children"][0]
    # The tasks that fit keep their task node; the overflowing one lost
    # its opens, so only its report's partial flag accounts for it.
    labels = [c["attrs"].get("label") for c in fanout["children"] if c["name"] == "task"]
    assert labels == ["task 0", "task 2"]
