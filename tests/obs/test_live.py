"""Live log consumption: watch state, rendering, report reconstruction.

Includes the during-execution contract: a reader thread parses the
event log at a deterministic mid-run point (a handshake sink blocks
the writer until the reader has looked), proving events stream as they
happen rather than at exit.
"""

import io
import json
import threading

import pytest

from repro.config import AnalysisConfig
from repro.core import build_dataset, run_characterization
from repro.obs import (
    EventBus,
    JsonlSink,
    missing_stages,
    observe,
    read_events,
    render_live,
    report_from_events,
    span,
    summarize_events,
    validate_report,
    watch,
)
from repro.suites import SUITE_INT2000, get_suite


def _events_for_small_run():
    handle = io.StringIO()
    bus = EventBus(JsonlSink(handle), "r1")
    bus.start(command="characterize", preset="tiny", config={"digest": "d1"})
    with observe(emitter=bus) as ob:
        with span("characterize"):
            with span("pca"):
                pass
        ob.metrics.counter_add("dataset.rows", 64)
        bus.emit_metric_deltas(ob.metrics)
        bus.progress("kmeans", 5, 10)
        bus.heartbeat("BMW/face", 3, 5)
    bus.close(ok=True)
    return [json.loads(line) for line in handle.getvalue().splitlines()]


def test_summarize_folds_events_into_state():
    state = summarize_events(_events_for_small_run())
    assert state["run_id"] == "r1"
    assert state["command"] == "characterize"
    assert state["preset"] == "tiny"
    assert state["ended"] is not None and state["ok"] is True
    assert state["open_spans"] == []
    assert state["progress"]["kmeans"]["done"] == 5
    assert state["heartbeat"]["label"] == "BMW/face"
    assert state["counters"]["dataset.rows"] == 64


def test_summarize_tracks_open_spans_mid_run():
    events = _events_for_small_run()
    # Cut the log right after the "pca" open: both spans still open.
    opens = [i for i, e in enumerate(events) if e["type"] == "span.open"]
    state = summarize_events(events[: opens[1] + 1])
    assert state["open_spans"] == ["characterize", "pca"]
    assert state["ended"] is None


def test_render_live_statuses():
    events = _events_for_small_run()
    finished = render_live(summarize_events(events))
    assert "finished ok" in finished and "r1" in finished
    running = render_live(summarize_events(events[:-1]))
    assert "running" in running
    assert "no events yet" in render_live(summarize_events([]))
    truncated = render_live(summarize_events(events), truncated=True)
    assert "mid-line" in truncated


def test_render_live_shows_progress_and_heartbeat():
    text = render_live(summarize_events(_events_for_small_run()))
    assert "kmeans" in text and "5/10" in text
    assert "eta" in text
    assert "BMW/face" in text and "3/5 tasks" in text


def test_watch_once_renders_and_returns_zero(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    bus = EventBus(JsonlSink(path), "r2")
    bus.start(command="characterize")
    bus.emit("span.open", span="characterize", depth=1)
    assert watch(path, once=True) == 0
    out = capsys.readouterr().out
    assert "r2" in out and "running" in out
    bus.close()


def test_watch_returns_when_the_run_ends(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = EventBus(JsonlSink(path), "r3")
    bus.emit("tick")
    frames = []
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) == 2:
            bus.close(ok=True)  # the run finishes while we watch

    assert watch(path, echo=frames.append, sleep=fake_sleep) == 0
    assert "finished ok" in frames[-1]


def test_watch_gives_up_on_a_stale_log(tmp_path):
    # No pid in the log (legacy writer): quiet polls are the only
    # liveness signal, so the watch still gives up after 10 of them.
    path = tmp_path / "events.jsonl"
    bus = EventBus(JsonlSink(path), "r4")
    bus.emit("tick")
    frames = []
    assert watch(path, echo=frames.append, sleep=lambda _s: None) == 1
    assert "giving up" in frames[-1]
    bus.close()


def test_summarize_captures_writer_pid():
    import os

    handle = io.StringIO()
    bus = EventBus(JsonlSink(handle), "rp")
    bus.start(command="characterize", pid=os.getpid())
    bus.close(ok=True)
    events = [json.loads(line) for line in handle.getvalue().splitlines()]
    assert summarize_events(events)["pid"] == os.getpid()


def test_watch_keeps_following_a_slow_writer_that_is_alive(tmp_path):
    """A quiet log whose writer pid is alive must not end the watch.

    Regression: the watcher used to give up unconditionally after 10
    quiet polls, abandoning live runs inside any stage slower than
    10 refresh intervals.  Here the writer (this process) stays silent
    for 25 polls — well past the old give-up point — then finishes the
    run; the watch must ride it out and exit 0 on ``run.end``.
    """
    import os

    path = tmp_path / "events.jsonl"
    bus = EventBus(JsonlSink(path), "r5")
    bus.start(command="characterize", pid=os.getpid())
    frames = []
    polls = [0]

    def fake_sleep(_seconds):
        polls[0] += 1
        if polls[0] == 25:
            bus.close(ok=True)  # the slow stage finally ends

    assert watch(path, echo=frames.append, sleep=fake_sleep) == 0
    assert polls[0] >= 25
    assert "finished ok" in frames[-1]
    assert any("still alive, waiting" in f for f in frames)


def test_watch_gives_up_when_the_writer_pid_is_dead(tmp_path):
    import subprocess
    import sys

    gone = int(
        subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
        ).stdout.strip()
    )
    path = tmp_path / "events.jsonl"
    bus = EventBus(JsonlSink(path), "r6")
    bus.start(command="characterize", pid=gone)
    frames = []
    assert watch(path, echo=frames.append, sleep=lambda _s: None) == 1
    assert "giving up" in frames[-1]
    assert f"writer pid {gone} is gone" in frames[-1]
    bus.close()


def test_report_from_events_round_trips_a_complete_run():
    events = _events_for_small_run()
    doc = report_from_events(events)
    assert validate_report(doc) == []
    assert "partial" not in doc
    assert doc["run_id"] == "r1"
    assert doc["config"]["digest"] == "d1"
    names = {c["name"] for c in doc["spans"]["children"]}
    assert "characterize" in names
    assert doc["metrics"]["counters"]["dataset.rows"] == 64


def test_report_from_events_marks_killed_spans_partial():
    events = _events_for_small_run()
    # Drop everything after the "pca" open — the SIGKILL residue.
    opens = [i for i, e in enumerate(events) if e["type"] == "span.open"]
    doc = report_from_events(events[: opens[1] + 1], truncated=True)
    assert doc["partial"] is True
    assert validate_report(doc) == []
    outer = doc["spans"]["children"][0]
    assert outer["name"] == "characterize"
    assert outer["attrs"].get("partial") is True
    assert outer["children"][0]["attrs"].get("partial") is True


def test_report_from_events_keeps_recorded_durations():
    buffer = io.StringIO()
    bus = EventBus(JsonlSink(buffer), "r5")
    bus.emit("span.open", span="kmeans", depth=1)
    bus.emit("span.close", span="kmeans", depth=1, wall_s=1.5, cpu_s=0.5,
             attrs={"k": 8})
    bus.close()
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    doc = report_from_events(events)
    node = doc["spans"]["children"][0]
    assert node["wall_s"] == 1.5 and node["cpu_s"] == 0.5
    assert node["attrs"]["k"] == 8


def _names(node):
    return (node["name"], [_names(child) for child in node["children"]])


def test_report_from_events_folds_each_thread_under_its_base():
    # A producer thread's spans interleave with the observing thread's:
    # in event order the producer's "synth.generate" opens before the
    # observing thread's "pca" and closes while "pca" is still open.
    # Folded by order alone, "pca" would nest inside "synth.generate";
    # per thread, both hang under "streaming", as in the live tree.
    handle = io.StringIO()
    bus = EventBus(JsonlSink(handle), "r6")
    producer_open, pca_open, producer_done = (threading.Event() for _ in range(3))
    errors = []

    def produce():
        try:
            with span("synth.generate"):
                producer_open.set()
                assert pca_open.wait(10)
                with span("inner"):
                    pass
            producer_done.set()
        except Exception as exc:  # relayed to the assertion below
            errors.append(exc)

    with observe(emitter=bus) as ob:
        with span("streaming"):
            worker = threading.Thread(target=produce, name="producer")
            worker.start()
            assert producer_open.wait(10)
            with span("pca"):
                pca_open.set()
                assert producer_done.wait(10)
            worker.join(10)
    bus.close(ok=True)
    assert errors == [] and not worker.is_alive()
    events = [json.loads(line) for line in handle.getvalue().splitlines()]
    spans = [(e["type"], e["span"], e.get("thread")) for e in events if "span" in e]
    assert spans == [
        ("span.open", "streaming", None),
        ("span.open", "synth.generate", "producer#1"),
        ("span.open", "pca", None),
        ("span.open", "inner", "producer#1"),
        ("span.close", "inner", "producer#1"),
        ("span.close", "synth.generate", "producer#1"),
        ("span.close", "pca", None),
        ("span.close", "streaming", None),
    ]
    doc = report_from_events(events)
    assert validate_report(doc) == []
    assert "partial" not in doc
    expected = (
        "run",
        [("streaming", [("synth.generate", [("inner", [])]), ("pca", [])])],
    )
    assert _names(doc["spans"]) == expected
    assert _names(ob.root.to_dict()) == expected


class _HandshakeSink(JsonlSink):
    """Blocks the writer after a trigger event until a reader looked."""

    def __init__(self, path, trigger, ready, resume):
        super().__init__(path)
        self._trigger = trigger
        self._ready = ready
        self._resume = resume
        self._fired = False

    def write_event(self, event):
        super().write_event(event)
        if not self._fired and self._trigger(event):
            self._fired = True
            self._ready.set()
            assert self._resume.wait(30), "reader never released the writer"


def test_events_stream_during_execution_not_post_hoc(tmp_path):
    """A reader thread sees ordered, parseable events mid-pipeline."""
    path = tmp_path / "events.jsonl"
    ready, resume = threading.Event(), threading.Event()
    sink = _HandshakeSink(
        path,
        lambda e: e.get("type") == "span.close" and e.get("span") == "pca",
        ready,
        resume,
    )
    seen = {}

    def reader():
        if not ready.wait(60):
            seen["error"] = "writer never reached the pca close"
            resume.set()
            return
        try:
            events, truncated = read_events(path)
            seen["events"] = events
            seen["truncated"] = truncated
            seen["state"] = summarize_events(events)
        finally:
            resume.set()

    thread = threading.Thread(target=reader)
    thread.start()
    config = AnalysisConfig.tiny().replace(
        intervals_per_benchmark=8, n_clusters=4, kmeans_restarts=2
    )
    benches = get_suite(SUITE_INT2000).benchmarks[:3]
    bus = EventBus(sink, "mid-run")
    with observe(emitter=bus):
        dataset = build_dataset(benches, config)
        run_characterization(dataset, config, select_key=False)
    bus.close(ok=True)
    thread.join(60)
    assert not thread.is_alive()
    assert "error" not in seen, seen.get("error")

    # The mid-run view: parseable, strictly ordered, visibly unfinished.
    events = seen["events"]
    assert events and not seen["truncated"]
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert events[-1]["type"] == "span.close" and events[-1]["span"] == "pca"
    assert all(e["type"] != "run.end" for e in events)
    assert seen["state"]["ended"] is None
    # Progress had already streamed while the dataset was building.
    assert "dataset.build" in seen["state"]["progress"]

    # And the final log strictly extends what the reader saw.
    final_events, truncated = read_events(path)
    assert not truncated
    assert final_events[-1]["type"] == "run.end"
    assert [e["seq"] for e in final_events[: len(events)]] == seqs
    doc = report_from_events(final_events)
    assert validate_report(doc) == []
    assert missing_stages(doc) == ["ga"]  # select_key=False skips the GA


@pytest.mark.parametrize("bad", [[], [{"type": "metric"}]])
def test_report_from_events_degrades_gracefully(bad):
    # An empty or contentless log still reconstructs to a schema-valid
    # document — flagged partial, since run.end never arrived.
    doc = report_from_events(bad, truncated=False)
    assert doc["partial"] is True
    assert validate_report(doc) == []
