"""Run-history store: append/verify/query, sequence discipline, diffs."""

import json
import os

from repro.config import AnalysisConfig
from repro.obs import (
    HistoryStore,
    Observation,
    build_report,
    default_history_dir,
    diff_records,
    emit_bench,
    flatten_span_walls,
    render_diff,
)
from repro.obs.history import _is_regression


def _report(run_id="r1", walls=None):
    walls = walls or {"pca": 0.1, "kmeans": 0.4}
    ob = Observation(run_id=run_id)
    with ob.span("characterize"):
        for stage in walls:
            with ob.span(stage):
                pass
    ob.metrics.gauge_set("prominent.coverage", 0.8)
    doc = build_report(ob, config=AnalysisConfig.tiny(), command="characterize")

    # Pin every wall (measured ones jitter) so diffs are deterministic:
    # named stages get their requested value, containers get 1.0.
    def pin(node):
        node["wall_s"] = walls.get(node["name"], 1.0)
        for child in node.get("children") or []:
            pin(child)

    pin(doc["spans"])
    return doc


def test_append_run_and_read_back(tmp_path):
    store = HistoryStore(tmp_path)
    path = store.append_run(_report("abc123"))
    assert path.exists() and path.parent.name == "runs"
    records = store.records("run")
    assert len(records) == 1
    assert records[0]["seq"] == 1
    assert records[0]["run_id"] == "abc123"
    assert records[0]["schema"] == "history:run"
    assert records[0]["record"]["run_id"] == "abc123"


def test_sequence_numbers_are_monotonic_across_kinds(tmp_path):
    store = HistoryStore(tmp_path)
    store.append_run(_report("r1"))
    store.append_bench("e2e_wall", {"speedup": 2.0})
    store.append_run(_report("r2"))
    seqs = [e["seq"] for e in store.records("run")] + [
        e["seq"] for e in store.records("bench")
    ]
    assert sorted(seqs) == [1, 2, 3]


def test_lost_counter_never_reuses_a_seq(tmp_path):
    store = HistoryStore(tmp_path)
    store.append_run(_report("r1"))
    store.append_run(_report("r2"))
    os.unlink(tmp_path / "COUNTER")  # simulate a lost COUNTER file
    store.append_run(_report("r3"))
    assert [e["seq"] for e in store.records("run")] == [1, 2, 3]


def test_lost_counter_never_reuses_a_seq_across_kinds(tmp_path):
    store = HistoryStore(tmp_path)
    store.append_run(_report("r1"))
    store.append_bench("e2e_wall", {"speedup": 2.0})  # bench #2
    os.unlink(tmp_path / "COUNTER")
    path = store.append_run(_report("r2"))
    assert path.name.startswith("run-000003-")
    assert [e["seq"] for e in store.records("run")] == [1, 3]


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

    ``runs/`` and ``bench/`` envelopes plus a root ``COUNTER``: the
    records come back unchanged, and the next append continues the
    shared sequence.
    """
    run = _envelope(
        "run", 1, {"run_id": "old1", "spans": {}}, run_id="old1", name=None, git_sha="abc"
    )
    bench = _envelope(
        "bench", 2, {"speedup": 2.5}, run_id=None, name="e2e_wall", git_sha="def"
    )
    (tmp_path / "runs").mkdir()
    (tmp_path / "bench").mkdir()
    (tmp_path / "runs" / "run-000001-old1.json").write_text(
        json.dumps(run, indent=2, sort_keys=True) + "\n"
    )
    (tmp_path / "bench" / "bench-000002-e2e_wall.json").write_text(
        json.dumps(bench, indent=2, sort_keys=True) + "\n"
    )
    (tmp_path / "COUNTER").write_text("2")
    store = HistoryStore(tmp_path)
    [read_run] = store.records("run")
    [read_bench] = store.records("bench", name="e2e_wall")
    assert {k: v for k, v in read_run.items() if k != "path"} == run
    assert {k: v for k, v in read_bench.items() if k != "path"} == bench
    path = store.append_bench("e2e_wall", {"speedup": 2.6})
    assert path.name == "bench-000003-e2e_wall.json"
    assert (tmp_path / "COUNTER").read_text() == "3"
    assert [e["seq"] for e in store.records("bench")] == [2, 3]


def test_corrupt_record_is_quarantined_not_served(tmp_path):
    store = HistoryStore(tmp_path)
    path = store.append_run(_report("r1"))
    doc = json.loads(path.read_text())
    doc["record"]["run_id"] = "tampered"
    path.write_text(json.dumps(doc))
    assert store.records("run") == []
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


def test_bench_baseline_skips_the_current_payload(tmp_path):
    store = HistoryStore(tmp_path)
    old = {"speedup": 2.0, "preset": "tiny"}
    new = {"speedup": 1.5, "preset": "tiny"}
    store.append_bench("e2e_wall", old)
    store.append_bench("e2e_wall", new)
    baseline = store.bench_baseline("e2e_wall", current=new)
    assert baseline["record"] == old
    # Without a current payload, the newest record is the baseline.
    assert store.bench_baseline("e2e_wall")["record"] == new
    assert store.bench_baseline("other") is None


def test_emit_bench_appends_to_history_when_env_set(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "hist"))
    emit_bench("tiny_probe", {"speedup": 3.0, "note": "x"})
    capsys.readouterr()
    records = HistoryStore(tmp_path / "hist").records("bench", name="tiny_probe")
    assert len(records) == 1
    assert records[0]["record"]["speedup"] == 3.0
    assert records[0]["git_sha"]  # stamped from the repo


def test_emit_bench_without_env_stays_out_of_history(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_HISTORY_DIR", raising=False)
    monkeypatch.setattr("pathlib.Path.home", lambda: tmp_path)
    emit_bench("tiny_probe", {"speedup": 3.0})
    capsys.readouterr()
    assert not (tmp_path / ".repro" / "history").exists()


def test_default_history_dir_prefers_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path))
    assert default_history_dir() == tmp_path
    monkeypatch.delenv("REPRO_HISTORY_DIR")
    assert default_history_dir().name == "history"


def test_default_history_dir_headless_falls_back_to_tempdir(
    tmp_path, monkeypatch, caplog
):
    """No usable home (scrubbed $HOME): warn once, use one temp dir.

    Regression: ``Path.home()`` in a headless container either raises
    or yields a directory that does not exist, and the history append —
    the last step of a finished run — crashed on it.  The store must
    instead land in a per-process temporary directory, announced at
    WARNING exactly once, and stay *stable* across calls so every
    record of the run ends up in the same place.
    """
    import logging

    from repro.obs import history as H

    # Scrub every path Path.home() consults, plus our own override.
    for var in ("HOME", "USERPROFILE", "HOMEDRIVE", "HOMEPATH", "REPRO_HISTORY_DIR"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(
        "pathlib.Path.home",
        classmethod(lambda cls: (_ for _ in ()).throw(RuntimeError("no home"))),
    )
    monkeypatch.setattr(H, "_FALLBACK_HISTORY_DIR", None)
    with caplog.at_level(logging.WARNING, logger="repro.obs.history"):
        first = default_history_dir()
    assert first.is_dir()
    assert "repro-history-" in first.name
    warned = [r for r in caplog.records if "no usable home" in r.getMessage()]
    assert len(warned) == 1
    assert default_history_dir() == first  # cached: one store per process
    # And it actually works as a store root.
    HistoryStore(first).append_run(_report())
    # A later $HOME restoration is irrelevant while the env override wins.
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path))
    assert default_history_dir() == tmp_path


def test_flatten_span_walls_sums_repeated_names():
    report = _report(walls={"kmeans": 0.3})
    walls = flatten_span_walls(report["spans"])
    assert walls["kmeans"] == 0.3
    assert "characterize" in walls


def test_diff_flags_stage_wall_regressions(tmp_path):
    store = HistoryStore(tmp_path)
    store.append_run(_report("r1", walls={"pca": 0.1, "kmeans": 0.4}))
    store.append_run(_report("r2", walls={"pca": 0.1, "kmeans": 0.9}))
    a, b = store.records("run")
    diff = diff_records(a, b, tolerance=0.10)
    # Stage names carry no direction hint; the stage-wall section
    # defaults to lower-is-better, so the kmeans blow-up is flagged.
    assert "kmeans" in diff["regressions"]
    assert "pca" not in diff["regressions"]
    text = render_diff(diff)
    assert "REGRESSION" in text and "kmeans" in text


def test_diff_bench_records_infers_direction_from_names(tmp_path):
    store = HistoryStore(tmp_path)
    store.append_bench("e2e_wall", {"speedup": 2.0, "optimized_seconds": 1.0})
    store.append_bench("e2e_wall", {"speedup": 1.2, "optimized_seconds": 1.05})
    a, b = store.records("bench")
    diff = diff_records(a, b, tolerance=0.10)
    assert "speedup" in diff["regressions"]  # dropped >10%: bad
    assert "optimized_seconds" not in diff["regressions"]  # +5% < tolerance
    improved = diff_records(b, a, tolerance=0.10)
    assert "speedup" not in improved["regressions"]  # it went up


def test_direction_inference_rules():
    assert _is_regression("stage.wall_s", 1.0, 2.0, 0.1)
    assert not _is_regression("stage.wall_s", 2.0, 1.0, 0.1)
    assert _is_regression("rows_per_second", 100.0, 50.0, 0.1)
    assert not _is_regression("rows_per_second", 50.0, 100.0, 0.1)
    # No hint, no default: never flagged.
    assert not _is_regression("mystery", 1.0, 100.0, 0.1)
    # No hint, section default supplies the direction.
    assert _is_regression("mystery", 1.0, 100.0, 0.1, default="lower")
    # Within tolerance is never a regression.
    assert not _is_regression("wall_s", 1.0, 1.05, 0.1)


def test_render_diff_reports_no_regressions(tmp_path):
    store = HistoryStore(tmp_path)
    store.append_run(_report("r1"))
    store.append_run(_report("r2"))
    a, b = store.records("run")
    diff = diff_records(a, b, tolerance=5.0)
    assert diff["regressions"] == []
    assert "no regressions" in render_diff(diff)
