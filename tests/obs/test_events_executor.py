"""Worker events through the executors: exactly once, submission order.

Worker tasks never touch the sink; their events log into a bounded
worker log, ride back inside the telemetry snapshot, and replay into
the parent's log and bus at the single merge point.  The resulting stream must
be identical — strictly monotonic seqs, task events in submission
order — in-process and through the fork pool, and a failed task's
events must be discarded with its snapshot.
"""

import io
import json

import pytest

from repro.config import AnalysisConfig
from repro.obs import emit_event, observe, recorded_run, span
from repro.parallel import Executor, WorkerError

BACKENDS = [
    pytest.param(Executor(1), id="serial"),
    pytest.param(Executor(3), id="process"),
]


def _task(payload, i):
    with span("work", index=i):
        emit_event("marker", index=i)
    return i


def _failing(payload, i):
    emit_event("marker", index=i)
    if i == 2:
        raise RuntimeError("planned")
    return i


def _recording(handle):
    return recorded_run("r1", command="test", config=AnalysisConfig.tiny(), events=handle)


def _run(executor, fn, n, **kwargs):
    handle = io.StringIO()
    with _recording(handle) as run:
        with run.observing():
            with span("fanout"):
                executor.map(fn, range(n), labels=[f"t{i}" for i in range(n)], **kwargs)
    return [json.loads(line) for line in handle.getvalue().splitlines()]


@pytest.mark.parametrize("executor", BACKENDS)
def test_worker_events_replay_in_submission_order(executor):
    events = _run(executor, _task, 5)
    seqs = [e["seq"] for e in events]
    assert seqs == list(range(len(events)))
    markers = [e["index"] for e in events if e["type"] == "marker"]
    assert markers == [0, 1, 2, 3, 4]
    # Each task contributes exactly one open/close pair for its span.
    opens = [e for e in events if e["type"] == "span.open" and e["span"] == "work"]
    closes = [e for e in events if e["type"] == "span.close" and e["span"] == "work"]
    assert [e["attrs"]["index"] for e in opens] == [0, 1, 2, 3, 4]
    assert len(closes) == 5


@pytest.mark.parametrize("executor", BACKENDS)
def test_stream_is_identical_across_backends(executor):
    events = _run(executor, _task, 4)
    shape = [
        (e["type"], e.get("span"), e.get("index"))
        for e in events
        if e["type"] in ("span.open", "span.close", "marker")
    ]
    # The same canonical stream whatever the backend: each task's
    # task span, worker-side span and marker, in submission order.
    expected = []
    for i in range(4):
        expected += [
            ("span.open", "task", None),
            ("span.open", "work", None),
            ("marker", None, i),
            ("span.close", "work", None),
            ("span.close", "task", None),
        ]
    assert shape == [("span.open", "fanout", None)] + expected + [
        ("span.close", "fanout", None)
    ]


@pytest.mark.parametrize("executor", BACKENDS)
def test_failed_task_events_are_discarded(executor):
    handle = io.StringIO()
    with pytest.raises(WorkerError):
        with _recording(handle) as run:
            with run.observing():
                executor.map(_failing, range(4))
    events = [json.loads(line) for line in handle.getvalue().splitlines()]
    markers = [e["index"] for e in events if e["type"] == "marker"]
    # Tasks before the failure replayed once each; the failing task's
    # buffer died with its snapshot, and later tasks never merge.
    assert markers == [0, 1]
    assert events[-1]["type"] == "run.end" and events[-1]["ok"] is False


def test_capture_always_logs_its_task_span():
    # A worker logs whether or not the parent has a bus: its events are
    # the only record of its spans.
    from repro.obs.spans import capture

    with observe() as ob:
        with capture("t0") as worker:
            with span("work"):
                pass
        assert worker.emitter is None
        events = worker.snapshot().events
        assert [(e["type"], e["span"]) for e in events] == [
            ("span.open", "task"),
            ("span.open", "work"),
            ("span.close", "work"),
            ("span.close", "task"),
        ]
        assert events[0]["attrs"] == {"label": "t0"}
        ob.merge_snapshot(worker)
    task = ob.root.children[0]
    assert (task.name, task.attrs["label"]) == ("task", "t0")
    assert [c.name for c in task.children] == ["work"]
