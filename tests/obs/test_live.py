"""Live log consumption: watch state, rendering, report reconstruction.

Includes the during-execution contract: a reader thread parses the
event log at a deterministic mid-run point (a handshake sink blocks
the writer until the reader has looked), proving events stream as they
happen rather than at exit.
"""

import io
import json
import threading
import time

import pytest

from repro.cli import main
from repro.config import AnalysisConfig
from repro.core import build_dataset, run_characterization
from repro.obs import (
    EventBus,
    emit_progress,
    missing_stages,
    read_events,
    recorded_run,
    render_live,
    report_from_events,
    span,
    summarize_events,
    validate_report,
    watch,
)
from repro.parallel import Executor
from repro.streaming import run_streaming_characterization
from repro.suites import SUITE_INT2000, get_suite


def _recorded(run_id, work, **fields):
    """Record ``work(observation)`` as a tiny-preset run; its event log."""
    handle = io.StringIO()
    with recorded_run(
        run_id, command="characterize", config=AnalysisConfig.tiny(), events=handle, **fields
    ) as run:
        with run.observing() as ob:
            work(ob)
    return [json.loads(line) for line in handle.getvalue().splitlines()]


def _task(payload, i):
    return i


def _small_run(ob):
    with span("characterize"):
        with span("pca"):
            pass
    ob.metrics.counter_add("dataset.rows", 64)
    ob.emit_metric_deltas()
    emit_progress("kmeans", 5, 10)
    Executor(1).map(_task, range(2), labels=["BMW/sift", "BMW/face"])


def _events_for_small_run():
    return _recorded("r1", _small_run, preset="tiny")


def _write(bus, etype, **fields):
    """Write one event straight to a bus, as a writer process would."""
    bus.write({"ts": time.time(), "type": etype, **fields})


def test_summarize_folds_events_into_state():
    state = summarize_events(_events_for_small_run())
    assert state["run_id"] == "r1"
    assert state["command"] == "characterize"
    assert state["preset"] == "tiny"
    assert state["ended"] is not None and state["ok"] is True
    assert state["open_spans"] == []
    assert state["progress"]["kmeans"]["done"] == 5
    assert state["last_task"] == "BMW/face"
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


def test_render_live_shows_progress_and_last_task():
    text = render_live(summarize_events(_events_for_small_run()))
    assert "kmeans" in text and "5/10" in text and "50.0%" in text
    assert "eta" in text
    assert "last task: BMW/face" in text


@pytest.mark.parametrize("n_jobs", [1, 2], ids=["serial", "process"])
def test_watch_names_the_last_finished_task(tmp_path, n_jobs):
    path = tmp_path / "events.jsonl"
    labels = ["BMW/face", "BMW/sift", "BioPerf/hmmer"]
    with recorded_run(
        "rt", command="characterize", config=AnalysisConfig.tiny(), events=path
    ) as run:
        with run.observing():
            Executor(n_jobs).map(_task, range(3), labels=labels)
    frames = []
    assert watch(path, once=True, echo=frames.append) == 0
    assert "last task: BioPerf/hmmer" in frames[0]


def test_a_v1_log_with_heartbeats_still_folds_and_renders(tmp_path, capsys):
    # Version 1 logs carried a heartbeat per merged task and logged
    # progress fractions; the fold ignores the one and recomputes the
    # other from done, total and ts.
    v1 = [
        {"type": "run.start", "command": "characterize", "preset": "tiny"},
        {"type": "progress", "stage": "dataset.build", "done": 1, "total": 4,
         "fraction": 0.25, "elapsed_s": 0.0, "eta_s": 0.0, "ts": 10.0},
        {"type": "span.open", "span": "task", "depth": 1, "attrs": {"label": "BMW/face"}},
        {"type": "span.close", "span": "task", "depth": 1, "wall_s": 1.0, "cpu_s": 1.0,
         "attrs": {"label": "BMW/face"}},
        {"type": "heartbeat", "label": "BMW/face", "completed": 2, "total": 4},
        {"type": "progress", "stage": "dataset.build", "done": 2, "total": 4,
         "fraction": 0.9, "elapsed_s": 99.0, "eta_s": 99.0, "ts": 12.0},
    ]
    path = tmp_path / "v1.jsonl"
    path.write_text(
        "".join(
            json.dumps({"ts": 11.0, **event, "v": 1, "seq": i, "run_id": "old"}) + "\n"
            for i, event in enumerate(v1)
        )
    )
    events, _ = read_events(path)
    state = summarize_events(events)
    assert state["progress"]["dataset.build"] == {
        "done": 2, "total": 4, "fraction": 0.5, "elapsed_s": 2.0, "eta_s": 2.0
    }
    assert state["last_task"] == "BMW/face"
    assert validate_report(report_from_events(events)) == []

    assert main(["watch", str(path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "run old" in out and "running" in out
    assert "2/4 ( 50.0%)  eta 00:02" in out
    assert "last task: BMW/face" in out


def test_watch_once_renders_and_returns_zero(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    bus = EventBus(path, "r2")
    _write(bus, "run.start", command="characterize")
    _write(bus, "span.open", span="characterize", depth=1)
    assert watch(path, once=True) == 0
    out = capsys.readouterr().out
    assert "r2" in out and "running" in out
    bus.close()


def test_watch_returns_when_the_run_ends(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = EventBus(path, "r3")
    _write(bus, "tick")
    frames = []
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) == 2:
            _write(bus, "run.end", ok=True)  # the run finishes while we watch
            bus.close()

    assert watch(path, echo=frames.append, sleep=fake_sleep) == 0
    assert "finished ok" in frames[-1]


def test_watch_gives_up_on_a_stale_log(tmp_path):
    # No pid in the log (legacy writer): quiet polls are the only
    # liveness signal, so the watch still gives up after 10 of them.
    path = tmp_path / "events.jsonl"
    bus = EventBus(path, "r4")
    _write(bus, "tick")
    frames = []
    assert watch(path, echo=frames.append, sleep=lambda _s: None) == 1
    assert "giving up" in frames[-1]
    bus.close()


def test_summarize_captures_writer_pid():
    import os

    events = _recorded("rp", lambda ob: None)
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
    bus = EventBus(path, "r5")
    _write(bus, "run.start", command="characterize", pid=os.getpid())
    frames = []
    polls = [0]

    def fake_sleep(_seconds):
        polls[0] += 1
        if polls[0] == 25:
            _write(bus, "run.end", ok=True)  # the slow stage finally ends
            bus.close()

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
    bus = EventBus(path, "r6")
    _write(bus, "run.start", command="characterize", pid=gone)
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
    assert doc["config"]["digest"] == AnalysisConfig.tiny().full_key()
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
    bus = EventBus(buffer, "r5")
    _write(bus, "span.open", span="kmeans", depth=1)
    _write(bus, "span.close", span="kmeans", depth=1, wall_s=1.5, cpu_s=0.5, attrs={"k": 8})
    _write(bus, "run.end", ok=True)
    bus.close()
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    doc = report_from_events(events)
    node = doc["spans"]["children"][0]
    assert node["wall_s"] == 1.5 and node["cpu_s"] == 0.5
    assert node["attrs"]["k"] == 8


def test_streaming_producer_spans_arrive_in_batch_order():
    # The prefetch producer logs each batch into its own ``task``, which
    # the consumer merges as it takes the batch: every producer span
    # sits in a task under streaming.pca, tasks in batch order, each
    # before the progress event of its batch, and no event is tagged
    # with a thread.
    config = AnalysisConfig.tiny().replace(batch_intervals=4)
    benches = list(get_suite("BMW").benchmarks[:3])
    observed = {}

    def work(ob):
        observed["result"] = run_streaming_characterization(benches, config)

    events = _recorded("r6", work)
    n = len(observed["result"])
    batches = -(-n // config.batch_intervals)
    assert batches >= 3
    assert not [e for e in events if "thread" in e]

    order = []
    for e in events:
        if e["type"] == "span.close" and e["span"] == "task":
            order.append(e["attrs"]["label"])
        elif e["type"] == "progress" and e["stage"] == "streaming.pca":
            order.append(e["done"])
    expected = []
    for i in range(batches):
        expected += [f"prefetch {i}", min((i + 1) * config.batch_intervals, n)]
    # The last step finds the stream exhausted; it is a task too.
    assert order == expected + [f"prefetch {batches}"]

    doc = report_from_events(events)
    assert validate_report(doc) == [] and "partial" not in doc
    pca = next(c for c in doc["spans"]["children"] if c["name"] == "streaming.pca")
    assert [c["name"] for c in pca["children"]] == ["task"] * (batches + 1)
    generated = [
        child["name"] for task in pca["children"] for child in task["children"]
    ]
    assert generated and set(generated) == {"synth.generate"}


def test_a_log_with_thread_tags_still_folds():
    # Logs written while the prefetch producer logged from its own
    # thread tagged its spans with ``thread``; the fold ignores the tag
    # and nests them by order, here "pca" inside "synth.generate".
    def ev(etype, name, depth, **fields):
        return {"type": etype, "span": name, "depth": depth, "ts": 1.0, **fields}

    tag = {"thread": "repro-prefetch#1"}
    events = [
        ev("span.open", "streaming", 1),
        ev("span.open", "synth.generate", 2, **tag),
        ev("span.open", "pca", 2),
        ev("span.close", "synth.generate", 2, wall_s=0.5, **tag),
        ev("span.close", "pca", 2, wall_s=0.25),
        ev("span.close", "streaming", 1, wall_s=1.0),
    ]
    doc = report_from_events(events)
    assert validate_report(doc) == []
    (streaming,) = doc["spans"]["children"]
    (generate,) = streaming["children"]
    assert generate["name"] == "synth.generate" and generate["wall_s"] == 0.5
    assert [(c["name"], c["wall_s"]) for c in generate["children"]] == [("pca", 0.25)]


class _HandshakeStream:
    """A log file that blocks the writer after a trigger event's line is
    flushed, until a reader has looked."""

    def __init__(self, path, trigger, ready, resume):
        self._fh = open(path, "w", encoding="utf-8")
        self._trigger = trigger
        self._ready = ready
        self._resume = resume
        self._line = ""
        self._fired = False

    def write(self, text):
        self._fh.write(text)
        self._line = text

    def flush(self):
        self._fh.flush()
        if not self._fired and self._trigger(json.loads(self._line)):
            self._fired = True
            self._ready.set()
            assert self._resume.wait(30), "reader never released the writer"

    def close(self):
        self._fh.close()


def test_events_stream_during_execution_not_post_hoc(tmp_path):
    """A reader thread sees ordered, parseable events mid-pipeline."""
    path = tmp_path / "events.jsonl"
    ready, resume = threading.Event(), threading.Event()
    stream = _HandshakeStream(
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
    with recorded_run("mid-run", command="characterize", config=config, events=stream) as run:
        with run.observing():
            dataset = build_dataset(benches, config)
            run_characterization(dataset, config, select_key=False)
    stream.close()
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
