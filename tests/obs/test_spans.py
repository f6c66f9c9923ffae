"""Span nesting, no-op inertness, and worker snapshot merging."""

import pickle
import threading

import pytest

from repro.obs import (
    Observation,
    Span,
    active,
    capture,
    current,
    metrics,
    observe,
    span,
)
from repro.obs.metrics import NOOP_REGISTRY


def test_span_is_noop_without_observation():
    assert not active()
    with span("anything", x=1) as sp:
        sp.set(y=2)  # accepted, recorded nowhere
    assert current() is None
    assert metrics() is NOOP_REGISTRY


def test_observe_installs_and_restores():
    assert not active()
    with observe(run_id="abc") as ob:
        assert active()
        assert current() is ob
        assert ob.run_id == "abc"
    assert not active()


def test_observe_restores_on_exception():
    with pytest.raises(RuntimeError):
        with observe():
            raise RuntimeError("boom")
    assert not active()


def test_spans_nest_into_a_tree():
    with observe() as ob:
        with span("a"):
            with span("b", depth=2):
                pass
            with span("c"):
                pass
        with span("d"):
            pass
    root = ob.root
    assert [child.name for child in root.children] == ["a", "d"]
    assert [child.name for child in root.children[0].children] == ["b", "c"]
    assert root.children[0].children[0].attrs == {"depth": 2}


def test_span_records_nonnegative_durations_and_closes_on_error():
    with observe() as ob:
        with pytest.raises(ValueError):
            with span("fails"):
                raise ValueError("x")
        with span("after"):
            pass
    names = [child.name for child in ob.root.children]
    assert names == ["fails", "after"]
    failed = ob.root.children[0]
    assert failed.attrs.get("error") == "ValueError"
    for node in ob.root.children:
        assert node.wall_s >= 0.0
        assert node.cpu_s >= 0.0


def test_set_attrs_at_exit():
    with observe() as ob:
        with span("stage") as sp:
            sp.set(bic=-12.5, label="x")
    assert ob.root.children[0].attrs == {"bic": -12.5, "label": "x"}


def test_attrs_coerced_json_safe():
    class Weird:
        def __str__(self):
            return "weird"

    with observe() as ob:
        with span("s", obj=Weird(), n=1, f=0.5, b=True, none=None):
            pass
    attrs = ob.root.children[0].attrs
    assert attrs["obj"] == "weird"
    assert attrs["n"] == 1 and attrs["f"] == 0.5 and attrs["b"] is True
    assert attrs["none"] is None


def test_span_dict_roundtrip():
    with observe() as ob:
        with span("outer", k=1):
            with span("inner"):
                pass
    data = ob.root.to_dict()
    rebuilt = Span.from_dict(data)
    assert rebuilt.to_dict() == data
    assert rebuilt.names() == {"run", "outer", "inner"}


def test_find_and_names():
    with observe() as ob:
        with span("kmeans"):
            with span("kmeans.restart"):
                pass
    assert ob.root.find("kmeans.restart") is not None
    assert ob.root.find("missing") is None
    assert "kmeans" in ob.root.names()


def test_capture_isolates_and_merges_under_current_span():
    with observe() as ob:
        with span("dataset.build"):
            with capture("BMW/gait") as worker:
                assert current() is worker
                with span("mica"):
                    pass
                metrics().counter_add("rows", 4)
                snap = worker.snapshot()
            # capture restored the parent observation
            assert current() is ob
            ob.merge_snapshot(snap)
    build = ob.root.children[0]
    assert build.name == "dataset.build"
    task = build.children[0]
    assert task.name == "task"
    assert task.attrs["label"] == "BMW/gait"
    assert [c.name for c in task.children] == ["mica"]
    assert ob.metrics.counter_value("rows") == 4


def test_other_thread_spans_keep_their_own_stack():
    # A producer thread holds a span open in its own capture while the
    # observing thread opens and closes its own; neither pops the
    # other's span, and the producer's task hangs where it is merged.
    opened, release = threading.Event(), threading.Event()
    errors, snaps = [], []

    def produce():
        try:
            with capture("producer") as log:
                with span("synth.generate"):
                    opened.set()
                    release.wait(timeout=10)
                    with span("inner"):
                        pass
            snaps.append(log.snapshot())
        except Exception as exc:  # relayed to the assertion below
            errors.append(exc)

    with observe() as ob:
        with span("streaming.pca"):
            worker = threading.Thread(target=produce)
            worker.start()
            assert opened.wait(timeout=10)
            with span("main.step"):
                pass
            release.set()
            worker.join(timeout=10)
            ob.merge_snapshot(snaps[0])
        with span("after"):
            pass
    assert not worker.is_alive()
    assert errors == []
    pca = ob.root.children[0]
    assert [c.name for c in pca.children] == ["main.step", "task"]
    task = pca.children[1]
    assert task.attrs["label"] == "producer"
    assert [c.name for c in task.children] == ["synth.generate"]
    assert [c.name for c in task.children[0].children] == ["inner"]
    assert [c.name for c in ob.root.children] == ["streaming.pca", "after"]
    assert not [e for e in ob.events if "thread" in e]


def test_snapshot_pickles():
    ob = Observation(run_id="w")
    with ob.span("work"):
        ob.metrics.counter_add("x", 2)
    snap = ob.snapshot()
    clone = pickle.loads(pickle.dumps(snap))
    assert [e["type"] for e in clone.events] == ["span.open", "span.close"]
    assert clone.events_dropped == 0
    # The metrics travel inside the events: the close carries them.
    assert clone.events[1]["metrics"]["counters"] == {"x": 2}
