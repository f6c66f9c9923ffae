"""The event log is the one record: a live report equals the log's fold.

A run report built from a live observation and one rebuilt from the
JSONL its bus wrote must have the same span tree — names, nesting
(executor ``task`` nodes and their labels included), attrs, and every
duration, the root's included — and the same counters, on every
executor backend.  A worker whose bounded log overflows must show up
as a partial report with the drop count, keep its ``task`` node, and
never hang a span under one that was not its parent.
"""

import io
import json

import pytest

from repro.config import AnalysisConfig
from repro.core import build_dataset, run_characterization
from repro.obs import (
    build_report,
    emit_event,
    metrics,
    recorded_run,
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


def _shape(node):
    """A span tree as comparable data, every node's clocks included."""
    return (
        node["name"],
        node["attrs"],
        (node["wall_s"], node["cpu_s"]),
        [_shape(child) for child in node["children"]],
    )


def _walk(node):
    yield node
    for child in node["children"]:
        yield from _walk(child)


def _observed(run):
    """Run ``run()`` recorded with an event log; the live report and the log."""
    handle = io.StringIO()
    with recorded_run(
        "one-log", command="characterize", config=AnalysisConfig.tiny(), events=handle
    ) as recording:
        with recording.observing() as ob:
            run()
        live = build_report(ob)
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


def test_a_counter_still_at_zero_reaches_the_fold():
    # The k-means engine adds kmeans.full_refreshes even when it is 0.
    live, folded = _observed(lambda: metrics().counter_add("probe.zero", 0))
    assert live["metrics"]["counters"]["probe.zero"] == 0.0
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
    # MAX_WORKER_EVENTS + overflow events.  Its log keeps the first
    # MAX_WORKER_EVENTS and both closes, so overflow - 2 ticks drop.
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
        assert doc["dropped_events"] == overflow - 2
    assert _shape(live["spans"]) == _shape(folded["spans"])
    fanout = live["spans"]["children"][0]
    # Every task keeps its task node, the overflowing one included.
    labels = [c["attrs"].get("label") for c in fanout["children"] if c["name"] == "task"]
    assert labels == ["task 0", "task 1", "task 2"]


def _late_child(payload, i):
    for j in range(MAX_WORKER_EVENTS + 10):
        emit_event("tick", j=j)
    with span("late.child"):
        pass
    return i


def test_a_span_opened_past_the_bound_is_dropped_whole():
    def run():
        with span("fanout"):
            SerialExecutor().map(_late_child, range(1))

    live, folded = _observed(run)
    for doc in (live, folded):
        assert validate_report(doc) == []
        assert doc["partial"] is True
        # The task open and MAX_WORKER_EVENTS - 1 ticks fit; the other
        # 11 ticks and late.child's open and close are dropped, while
        # the task's close is kept.
        assert doc["dropped_events"] == 13
        (fanout,) = doc["spans"]["children"]
        assert fanout["name"] == "fanout"
        (task,) = fanout["children"]
        assert task["name"] == "task" and task["attrs"]["label"] == "task 0"
        assert task["children"] == []
    assert _shape(live["spans"]) == _shape(folded["spans"])
