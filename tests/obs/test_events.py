"""Event bus: ordering, sinks, progress/ETA, buffers, crash-tolerant reads."""

import io
import json
import threading

import pytest

from repro.obs import (
    EVENT_SCHEMA_VERSION,
    EventBus,
    Observation,
    Snapshot,
    emit_event,
    emit_progress,
    observe,
    read_events,
    report_from_events,
    span,
    summarize_events,
)


def _bus(run_id="r1"):
    handle = io.StringIO()
    return EventBus(handle, run_id), handle


def _lines(handle):
    return [json.loads(line) for line in handle.getvalue().splitlines()]


def test_every_event_carries_the_envelope_fields():
    bus, handle = _bus()
    for etype in ("run.start", "custom", "run.end"):
        bus.write({"ts": 123.0, "type": etype})
    bus.close()
    events = _lines(handle)
    assert [e["type"] for e in events] == ["run.start", "custom", "run.end"]
    assert [e["seq"] for e in events] == [0, 1, 2]
    for event in events:
        assert event["v"] == EVENT_SCHEMA_VERSION
        assert event["run_id"] == "r1"
        assert event["ts"] == 123.0  # the logged timestamp is kept


def test_seq_is_strictly_monotonic_across_threads():
    bus, handle = _bus()
    threads = [
        threading.Thread(target=lambda: [bus.write({"type": "tick"}) for _ in range(50)])
        for _ in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seqs = [e["seq"] for e in _lines(handle)]
    assert seqs == list(range(200))


def test_emit_after_close_is_dropped():
    bus, handle = _bus()
    bus.write({"type": "run.end", "ok": False})
    bus.close()
    assert bus.write({"type": "late"}) is None
    events = _lines(handle)
    assert [e["type"] for e in events] == ["run.end"]
    assert events[0]["ok"] is False


def test_every_line_is_flushed_as_written(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = EventBus(path, "r2")
    bus.write({"type": "first"})
    # Without closing the bus (the SIGKILL scenario), the line must
    # already be on disk and parseable.
    events, truncated = read_events(path)
    assert not truncated
    assert [e["type"] for e in events] == ["first"]
    bus.close()


def test_read_events_tolerates_a_truncated_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"seq": 0, "type": "a"}\n{"seq": 1, "ty')
    events, truncated = read_events(path)
    assert truncated
    assert [e["seq"] for e in events] == [0]


def test_read_events_stops_at_first_bad_line(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"seq": 0}\nnot json\n{"seq": 2}\n')
    events, truncated = read_events(path)
    assert truncated
    assert [e["seq"] for e in events] == [0]


def test_read_events_missing_file_is_empty_not_an_error(tmp_path):
    events, truncated = read_events(tmp_path / "absent.jsonl")
    assert events == [] and truncated is False


def test_bus_progress_tracks_one_estimator_per_stage():
    bus, handle = _bus()
    with observe(emitter=bus):
        emit_progress("mica", 1, 4)
        emit_progress("kmeans", 2, 10)
        emit_progress("mica", 4, 4)
    events = _lines(handle)
    assert [(e["stage"], e["done"], e["total"]) for e in events] == [
        ("mica", 1, 4),
        ("kmeans", 2, 10),
        ("mica", 4, 4),
    ]
    # Each event logs what the caller knows and nothing derived.
    assert {frozenset(e) for e in events} == {
        frozenset({"v", "seq", "run_id", "ts", "type", "stage", "done", "total"})
    }
    progress = summarize_events(events)["progress"]
    assert progress["mica"]["fraction"] == 1.0
    assert progress["kmeans"]["fraction"] == 0.2


def _progress(ts, stage, done, total):
    return {"ts": ts, "type": "progress", "stage": stage, "done": done, "total": total}


def test_the_fold_derives_fraction_elapsed_and_eta():
    # A log holds only stage, done and total; the fold derives the rest
    # per stage: done clamped to total, elapsed from the stage's first
    # report, ETA extrapolated linearly, each rounded to 6 places.
    events = [
        _progress(100.0, "mica", 0, 4),
        _progress(101.0, "kmeans", 0, 3),
        _progress(110.0, "mica", 1, 4),
        _progress(104.0, "kmeans", 7, 3),
        _progress(50.0, "ga", 0, 3),
        _progress(51.0, "ga", 2, 3),
        _progress(20.0, "dataset.build", 0, 5),
    ]
    progress = summarize_events(events)["progress"]
    # 1 of 4 units in 10s -> 30s for the remaining 3.
    assert progress["mica"] == {
        "done": 1, "total": 4, "fraction": 0.25, "elapsed_s": 10.0, "eta_s": 30.0
    }
    assert progress["kmeans"] == {
        "done": 3, "total": 3, "fraction": 1.0, "elapsed_s": 3.0, "eta_s": 0.0
    }
    assert progress["ga"] == {
        "done": 2, "total": 3, "fraction": 0.666667, "elapsed_s": 1.0, "eta_s": 0.5
    }
    # No ETA before the first unit.
    assert progress["dataset.build"] == {
        "done": 0, "total": 5, "fraction": 0.0, "elapsed_s": 0.0, "eta_s": None
    }


def test_bus_progress_total_can_be_refined():
    bus, handle = _bus()
    with observe(emitter=bus):
        emit_progress("streaming.pca", 10, 100)
        emit_progress("streaming.pca", 20, 120)  # the batch ledger grew
    events = _lines(handle)
    assert events[-1]["total"] == 120
    assert summarize_events(events)["progress"]["streaming.pca"]["fraction"] == 0.166667


def test_event_buffer_is_bounded_and_counts_drops():
    # A worker's log (capture) is bounded the same way.
    ob = Observation(max_events=3)
    for i in range(5):
        ob.emit("tick", i=i)
    assert [e["i"] for e in ob.events] == [0, 1, 2]  # later ones dropped
    assert ob.dropped == 2


def test_replay_preserves_payload_and_assigns_fresh_seqs():
    events = [
        {"ts": 5.0, "type": "span.open", "span": "work", "depth": 1},
        {"ts": 6.0, "type": "span.close", "span": "work", "depth": 1, "wall_s": 0.5},
    ]
    bus, handle = _bus()
    Observation(emitter=bus).merge_snapshot(Snapshot(events, 0))
    bus.close()
    replayed = _lines(handle)
    assert [e["type"] for e in replayed] == ["span.open", "span.close"]
    assert [e["seq"] for e in replayed] == [0, 1]
    assert replayed[1]["wall_s"] == 0.5
    # Worker timestamps are preserved (seq, not ts, orders the stream).
    assert replayed[0]["ts"] == events[0]["ts"]


def test_replay_drop_counts_surface_in_run_end():
    # A worker's drop count is logged where its events merge; the fold
    # of the finished log reports it.
    bus, handle = _bus()
    ob = Observation(emitter=bus)
    ob.merge_snapshot(Snapshot([], 7))
    ob.emit("run.end", ok=True, wall_s=0.0, cpu_s=0.0)
    bus.close()
    events = _lines(handle)
    assert [(e["type"], e.get("count")) for e in events[:-1]] == [("events.dropped", 7)]
    doc = report_from_events(events)
    assert doc["partial"] is True and doc["dropped_events"] == 7


def test_metric_deltas_are_movement_since_last_event():
    bus, handle = _bus()
    with observe(emitter=bus) as ob:
        ob.metrics.counter_add("rows", 5)
        ob.metrics.gauge_set("coverage", 0.9)
        ob.emit_metric_deltas()
        ob.metrics.counter_add("rows", 2)
        ob.emit_metric_deltas()
    first, second = _lines(handle)
    assert first["counters"] == {"rows": 5}
    assert first["gauges"]["coverage"] == 0.9
    assert second["counters"] == {"rows": 2}  # the delta, not the total


def test_spans_stream_through_an_attached_bus():
    bus, handle = _bus()
    with observe(emitter=bus):
        with span("outer"):
            with span("inner", k=8):
                pass
    events = _lines(handle)
    assert [(e["type"], e["span"], e["depth"]) for e in events] == [
        ("span.open", "outer", 1),
        ("span.open", "inner", 2),
        ("span.close", "inner", 2),
        ("span.close", "outer", 1),
    ]
    assert events[3]["wall_s"] >= 0.0
    assert events[2]["attrs"] == {"k": 8}


def test_emit_helpers_are_inert_without_an_emitter():
    # No observation at all, and an observation without an emitter:
    # both must be silent no-ops.
    emit_event("stage", stage="mica", action="completed")
    emit_progress("mica", 1, 2)
    with observe():
        emit_event("stage", stage="mica", action="completed")
        emit_progress("mica", 1, 2)


def test_emit_helpers_route_to_the_active_emitter():
    bus, handle = _bus()
    with observe(emitter=bus):
        emit_event("stage", stage="dataset", action="completed")
        emit_progress("dataset.build", 1, 3)
    events = _lines(handle)
    assert [e["type"] for e in events] == ["stage", "progress"]
    fraction = summarize_events(events)["progress"]["dataset.build"]["fraction"]
    assert fraction == pytest.approx(1 / 3, abs=1e-6)


def test_sink_does_not_close_borrowed_handles():
    bus, handle = _bus()
    bus.write({"type": "x"})
    bus.close()
    bus.close()  # idempotent
    assert not handle.closed  # borrowed, not owned
