"""Worker telemetry through the executors: one merge per task, any backend.

The executor contract under an active observation: every task's spans
and metrics come back with its result and are merged under the caller's
current span exactly once, in submission order — so counter totals and
the span tree are identical in-process and through the fork pool.
"""

import pytest

from repro.obs import metrics, observe, span
from repro.parallel import Executor, WorkerError

BACKENDS = [
    pytest.param(Executor(1), id="serial"),
    pytest.param(Executor(3), id="process"),
]


def _task(payload, i):
    with span("work", index=i):
        pass
    metrics().counter_add("tasks_done", 1)
    metrics().counter_add("weights", i)
    return i * 10


def _failing(payload, i):
    metrics().counter_add("attempted", 1)
    if i == 2:
        raise RuntimeError("planned")
    return i


@pytest.mark.parametrize("executor", BACKENDS)
def test_worker_spans_merge_in_submission_order(executor):
    with observe() as ob:
        with span("fanout"):
            results = executor.map(
                _task, range(5), labels=[f"t{i}" for i in range(5)]
            )
    assert results == [0, 10, 20, 30, 40]
    fanout = ob.root.children[0]
    assert fanout.name == "fanout"
    assert [child.name for child in fanout.children] == ["task"] * 5
    assert [child.attrs["label"] for child in fanout.children] == [
        "t0",
        "t1",
        "t2",
        "t3",
        "t4",
    ]
    # each task span carries the worker-side children
    for i, child in enumerate(fanout.children):
        assert [g.name for g in child.children] == ["work"]
        assert child.children[0].attrs["index"] == i


@pytest.mark.parametrize("executor", BACKENDS)
def test_worker_metrics_counted_exactly_once(executor):
    with observe() as ob:
        executor.map(_task, range(8))
    assert ob.metrics.counter_value("tasks_done") == 8
    assert ob.metrics.counter_value("weights") == sum(range(8))


@pytest.mark.parametrize("executor", BACKENDS)
def test_same_tree_and_totals_across_backends(executor):
    with observe() as ob:
        with span("fanout"):
            executor.map(_task, range(6))
    names = [
        (child.name, tuple(g.name for g in child.children))
        for child in ob.root.children[0].children
    ]
    assert names == [("task", ("work",))] * 6
    assert ob.metrics.counter_value("tasks_done") == 6


@pytest.mark.parametrize("executor", BACKENDS)
def test_failed_task_aborts_without_double_merge(executor):
    with observe() as ob:
        with pytest.raises(WorkerError):
            executor.map(_failing, range(4))
    # Tasks before the failure merged once each; the failed task's
    # telemetry is discarded, and later tasks never merge.
    assert ob.metrics.counter_value("attempted") == 2


@pytest.mark.parametrize("executor", BACKENDS)
def test_no_observation_no_snapshots(executor):
    results = executor.map(_task, range(3))
    assert results == [0, 10, 20]


def test_serial_tasks_do_not_leak_into_parent_stack():
    # capture() swaps the thread-local observation during the task, so
    # inline (serial) execution builds the same tree as a pool would.
    with observe() as ob:
        with span("outer"):
            Executor(1).map(_task, range(2))
            with span("sibling"):
                pass
    outer = ob.root.children[0]
    assert [c.name for c in outer.children] == ["task", "task", "sibling"]
