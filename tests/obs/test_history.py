"""Run-history store: append/verify/query, sequence discipline, diffs."""

import json
import os

from repro.obs import (
    HistoryStore,
    Observation,
    build_report,
    diff_records,
    emit_bench,
    ledger_row,
    render_diff,
)
from repro.obs.history import _flag


def _report(run_id="r1", walls=None):
    walls = walls or {"pca": 0.1, "kmeans": 0.4}
    ob = Observation(run_id=run_id)
    with ob.span("characterize"):
        for stage in walls:
            with ob.span(stage):
                pass
    ob.metrics.gauge_set("prominent.coverage", 0.8)
    doc = build_report(ob)

    # Pin every wall and CPU time (measured ones jitter) so diffs are
    # deterministic: named stages get their requested value,
    # containers get 1.0; the process's peak RSS is pinned too.
    def pin(node):
        node["wall_s"] = node["cpu_s"] = walls.get(node["name"], 1.0)
        for child in node.get("children") or []:
            pin(child)

    pin(doc["spans"])
    doc["metrics"]["gauges"]["proc.peak_rss_mb"] = 50.0
    return doc


def test_append_run_and_read_back(tmp_path):
    store = HistoryStore(tmp_path)
    path = store.append_run(_report("abc123"))
    assert path.exists() and path.parent.name == "runs"
    records = store.records()
    assert len(records) == 1
    assert records[0]["seq"] == 1
    assert records[0]["run_id"] == "abc123"
    assert records[0]["schema"] == "history:run"
    assert records[0]["record"]["run_id"] == "abc123"


def test_lost_counter_never_reuses_a_seq(tmp_path):
    store = HistoryStore(tmp_path)
    store.append_run(_report("r1"))
    store.append_run(_report("r2"))
    os.unlink(tmp_path / "COUNTER")  # simulate a lost COUNTER file
    path = store.append_run(_report("r3"))
    assert path.name.startswith("run-000003-")
    assert [e["seq"] for e in store.records()] == [1, 2, 3]


def _envelope(kind, seq, record, *, run_id, name, git_sha):
    from repro.io import canonical_digest

    return {
        "schema": f"history:{kind}",
        "version": 1,
        "seq": seq,
        "run_id": run_id,
        "name": name,
        "created": 1700000000.0 + seq,
        "git_sha": git_sha,
        "sha256": canonical_digest(record),
        "record": record,
    }


def test_store_written_in_the_original_layout_still_reads(tmp_path):
    """A store laid out by hand in the on-disk format keeps reading.

    ``runs/`` envelopes plus a root ``COUNTER``: the records come back
    unchanged.  A ``bench/`` record that older versions wrote is left
    on disk and not read, and the next append continues past its
    sequence number.
    """
    run = _envelope(
        "run", 1, {"run_id": "old1", "spans": {}}, run_id="old1", name=None, git_sha="abc"
    )
    bench = _envelope(
        "bench", 2, {"speedup": 2.5}, run_id=None, name="probe", git_sha="def"
    )
    (tmp_path / "runs").mkdir()
    (tmp_path / "bench").mkdir()
    (tmp_path / "runs" / "run-000001-old1.json").write_text(
        json.dumps(run, indent=2, sort_keys=True) + "\n"
    )
    bench_path = tmp_path / "bench" / "bench-000002-probe.json"
    bench_path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    (tmp_path / "COUNTER").write_text("2")
    store = HistoryStore(tmp_path)
    [read_run] = store.records()
    assert {k: v for k, v in read_run.items() if k != "path"} == run
    path = store.append_run(_report("new1"))
    assert path.name == "run-000003-new1.json"
    assert (tmp_path / "COUNTER").read_text() == "3"
    assert [e["seq"] for e in store.records()] == [1, 3]
    assert bench_path.exists()


def test_corrupt_record_is_quarantined_not_served(tmp_path):
    store = HistoryStore(tmp_path)
    path = store.append_run(_report("r1"))
    doc = json.loads(path.read_text())
    doc["record"]["run_id"] = "tampered"
    path.write_text(json.dumps(doc))
    assert store.records() == []
    assert not path.exists()  # moved aside, not deleted
    leftovers = [p.name for p in path.parent.iterdir()]
    assert any("corrupt" in name for name in leftovers)


def test_get_resolves_latest_seq_and_run_id_prefix(tmp_path):
    store = HistoryStore(tmp_path)
    store.append_run(_report("aaa111"))
    store.append_run(_report("bbb222"))
    assert store.get("latest")["run_id"] == "bbb222"
    assert store.get("1")["run_id"] == "aaa111"
    assert store.get("bbb")["run_id"] == "bbb222"
    assert store.get("zzz") is None


def test_emit_bench_without_env_stays_out_of_history(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_HISTORY_DIR", raising=False)
    monkeypatch.setattr("pathlib.Path.home", lambda: tmp_path)
    emit_bench("tiny_probe", {"speedup": 3.0})
    capsys.readouterr()
    assert not (tmp_path / ".repro" / "history").exists()


def test_ledger_row_sums_repeated_span_names():
    ob = Observation(run_id="row")
    with ob.span("characterize"):
        for _ in range(3):
            with ob.span("kmeans"):
                pass
    ob.metrics.counter_add("kmeans.iterations", 4)
    ob.metrics.gauge_set("prominent.coverage", 0.8)
    report = build_report(ob)
    row = ledger_row(report)
    kmeans = [c for c in report["spans"]["children"][0]["children"]]
    assert row["spans"]["kmeans"] == {
        "wall_s": sum(c["wall_s"] for c in kmeans),
        "cpu_s": sum(c["cpu_s"] for c in kmeans),
        "count": 3,
    }
    assert row["spans"]["characterize"]["count"] == 1
    assert row["counters"] == {"kmeans.iterations": 4.0}
    assert row["gauges"]["prominent.coverage"] == 0.8


def _diff(a, b, **kwargs):
    return diff_records(ledger_row(a["record"]), ledger_row(b["record"]), **kwargs)


def test_diff_flags_stage_wall_regressions(tmp_path):
    store = HistoryStore(tmp_path)
    store.append_run(_report("r1", walls={"pca": 0.1, "kmeans": 0.4}))
    store.append_run(_report("r2", walls={"pca": 0.1, "kmeans": 0.9}))
    a, b = store.records()
    diff = _diff(a, b, tolerance=0.10)
    assert "kmeans.wall_s" in diff["flagged"]
    assert "pca.wall_s" not in diff["flagged"]
    text = render_diff(diff)
    assert "REGRESSION" in text and "kmeans" in text


def _row(spans=None, counters=None, gauges=None):
    return {"spans": spans or {}, "counters": counters or {}, "gauges": gauges or {}}


def test_diff_flags_a_changed_answer_in_either_direction():
    # Both moved the "good" way, and neither is a timing: both changed.
    a = _row(counters={"kmeans.iterations": 3}, gauges={"pca.explained_variance": 0.88})
    b = _row(counters={"kmeans.iterations": 4}, gauges={"pca.explained_variance": 0.91})
    diff = diff_records(a, b)
    assert diff["flagged"] == ["kmeans.iterations", "pca.explained_variance"]
    assert {e["flag"] for e in diff["entries"]} == {"changed"}
    assert "CHANGED" in render_diff(diff)
    assert diff_records(a, a)["flagged"] == []


def test_names_that_only_contain_s_are_compared_exactly():
    # "_s" inside a name is no timing: sweep counts must be equal.
    a = _row(gauges={"streaming.featurize_sweeps": 1, "streaming.replay_sweeps": 3})
    b = _row(gauges={"streaming.featurize_sweeps": 1, "streaming.replay_sweeps": 2})
    assert diff_records(a, b, tolerance=5.0)["flagged"] == ["streaming.replay_sweeps"]


def test_span_counts_must_be_equal():
    a = _row(spans={"mica": {"wall_s": 1.0, "cpu_s": 1.0, "count": 77}})
    b = _row(spans={"mica": {"wall_s": 1.0, "cpu_s": 1.0, "count": 76}})
    assert diff_records(a, b, tolerance=5.0)["flagged"] == ["mica.count"]


def test_a_value_on_one_side_only_is_changed():
    a = _row(gauges={"prominent.coverage": 0.6})
    b = _row(gauges={"prominent.coverage": 0.6, "proc.peak_rss_children_mb": 40.0})
    diff = diff_records(a, b, tolerance=5.0)
    assert diff["flagged"] == ["proc.peak_rss_children_mb"]
    assert "-" in render_diff(diff).splitlines()[1].split()


def test_direction_inference_rules():
    # Timings and memory (by suffix) may grow within the tolerance;
    # shrinking is never flagged.
    for name in ("stage.wall_s", "mica.meter.ilp.seconds", "proc.peak_rss_mb", "io.spool.bytes"):
        assert _flag(name, 1.0, 2.0, 0.1, 0.0) == "regression", name
        assert _flag(name, 2.0, 1.0, 0.1, 0.0) is None, name
        assert _flag(name, 1.0, 1.05, 0.1, 0.0) is None, name
    # Every other number must be equal, whichever way it moves.
    for name in ("kmeans.iterations", "pca.explained_variance", "rows_per_second", "mystery"):
        assert _flag(name, 1.0, 2.0, 5.0, 0.0) == "changed", name
        assert _flag(name, 2.0, 1.0, 5.0, 0.0) == "changed", name
        assert _flag(name, 1.0, 1.0, 0.0, 0.0) is None, name
    # Growth under the absolute floor is never a regression.
    assert _flag("prominent.wall_s", 0.001, 0.009, 0.1, 0.010) is None
    assert _flag("prominent.wall_s", 0.001, 0.020, 0.1, 0.010) == "regression"


def test_render_diff_reports_no_regressions(tmp_path):
    store = HistoryStore(tmp_path)
    store.append_run(_report("r1"))
    store.append_run(_report("r2"))
    a, b = store.records()
    diff = _diff(a, b, tolerance=5.0)
    assert diff["flagged"] == []
    assert "nothing flagged" in render_diff(diff)
