"""Event bus: ordering, sinks, progress/ETA, buffers, crash-tolerant reads."""

import io
import json
import threading

import pytest

from repro.obs import (
    EVENT_SCHEMA_VERSION,
    EventBus,
    JsonlSink,
    Observation,
    ProgressEstimator,
    Snapshot,
    emit_event,
    emit_progress,
    observe,
    read_events,
    span,
)


def _bus(run_id="r1", clock=None):
    handle = io.StringIO()
    kwargs = {"clock": clock} if clock is not None else {}
    return EventBus(JsonlSink(handle), run_id, **kwargs), handle


def _lines(handle):
    return [json.loads(line) for line in handle.getvalue().splitlines()]


def test_every_event_carries_the_envelope_fields():
    bus, handle = _bus(clock=lambda: 123.0)
    bus.start(command="characterize", preset="tiny")
    bus.emit("custom", detail=1)
    bus.close(ok=True)
    events = _lines(handle)
    assert [e["type"] for e in events] == ["run.start", "custom", "run.end"]
    for event in events:
        assert event["v"] == EVENT_SCHEMA_VERSION
        assert event["run_id"] == "r1"
        assert event["ts"] == 123.0
    assert events[-1]["ok"] is True


def test_seq_is_strictly_monotonic_across_threads():
    bus, handle = _bus()
    threads = [
        threading.Thread(target=lambda: [bus.emit("tick") for _ in range(50)])
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
    bus.close(ok=False)
    assert bus.emit("late") is None
    events = _lines(handle)
    assert [e["type"] for e in events] == ["run.end"]
    assert events[0]["ok"] is False


def test_every_line_is_flushed_as_written(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = EventBus(JsonlSink(path), "r2")
    bus.emit("first")
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


def test_progress_estimator_eta_is_linear_extrapolation():
    ticks = iter([0.0, 10.0])
    estimator = ProgressEstimator("mica", 4, clock=lambda: next(ticks))
    fields = estimator.update(1)
    # 1 of 4 units in 10s -> 30s for the remaining 3.
    assert fields["fraction"] == 0.25
    assert fields["elapsed_s"] == 10.0
    assert fields["eta_s"] == 30.0


def test_progress_estimator_no_eta_before_first_unit():
    estimator = ProgressEstimator("mica", 4)
    assert estimator.update(0)["eta_s"] is None


def test_progress_estimator_clamps_done_to_total():
    estimator = ProgressEstimator("mica", 3)
    assert estimator.update(7)["done"] == 3
    assert estimator.update(7)["fraction"] == 1.0


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
    assert events[-1]["fraction"] == 1.0


def test_bus_progress_total_can_be_refined():
    bus, handle = _bus()
    with observe(emitter=bus):
        emit_progress("streaming.pca", 10, 100)
        emit_progress("streaming.pca", 20, 120)  # the batch ledger grew
    assert _lines(handle)[-1]["total"] == 120


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
    Observation(emitter=bus).merge_snapshot(Snapshot(events, 0, {}))
    bus.close()
    replayed = _lines(handle)
    assert [e["type"] for e in replayed[:-1]] == ["span.open", "span.close"]
    assert [e["seq"] for e in replayed] == [0, 1, 2]
    assert replayed[1]["wall_s"] == 0.5
    # Worker timestamps are preserved (seq, not ts, orders the stream).
    assert replayed[0]["ts"] == events[0]["ts"]


def test_replay_drop_counts_surface_in_run_end():
    bus, handle = _bus()
    Observation(emitter=bus).merge_snapshot(Snapshot([], 7, {}))
    bus.close()
    assert _lines(handle)[-1]["dropped_events"] == 7


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
    assert events[1]["fraction"] == pytest.approx(1 / 3, abs=1e-6)


def test_sink_does_not_close_borrowed_handles():
    handle = io.StringIO()
    sink = JsonlSink(handle)
    sink.write_event({"type": "x"})
    sink.close()
    assert not handle.closed  # borrowed, not owned
