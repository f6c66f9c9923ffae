"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main


@pytest.fixture(scope="module")
def characterization_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "char.npz"
    code = main(
        [
            "characterize",
            str(path),
            "--preset",
            "tiny",
            "--suite",
            "BMW",
            "--suite",
            "MediaBenchII",
        ]
    )
    assert code == 0
    return path


def test_features_lists_69(capsys):
    assert main(["features"]) == 0
    out = capsys.readouterr().out
    assert "ppm_pas_h12" in out
    assert out.count("\n") >= 70


def test_suites_lists_77(capsys):
    assert main(["suites"]) == 0
    out = capsys.readouterr().out
    assert "77 benchmarks" in out
    assert "BioPerf" in out and "fasta" in out


def test_characterize_writes_file(characterization_file, capsys):
    assert characterization_file.exists()


def test_characterize_reports_summary(tmp_path, capsys):
    path = tmp_path / "c.npz"
    assert main(["characterize", str(path), "--preset", "tiny", "--suite", "BMW", "--no-ga"]) == 0
    out = capsys.readouterr().out
    assert "prominent phases" in out
    assert path.exists()


def test_characterize_rejects_unknown_preset(tmp_path):
    with pytest.raises(SystemExit):
        main(["characterize", str(tmp_path / "x.npz"), "--preset", "gigantic"])


def test_bad_artifact_is_one_line_error(tmp_path):
    headerless = tmp_path / "plain.npz"
    np.savez(headerless, features=np.zeros(3))
    junk = tmp_path / "junk.npz"
    junk.write_bytes(b"not a zip archive")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    for path, reason in [
        (headerless, "missing artifact header"),
        (junk, "unreadable npz"),
    ]:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "compare", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"repro: {path}: {reason}")
        assert done.stderr.rstrip().endswith("(regenerate it)")
        assert done.stderr.count("\n") == 1


def test_compare_prints_suite_table(characterization_file, capsys):
    assert main(["compare", str(characterization_file)]) == 0
    out = capsys.readouterr().out
    assert "BMW" in out and "MediaBenchII" in out
    assert "unique" in out


def test_phases_prints_distribution(characterization_file, capsys):
    assert main(["phases", str(characterization_file), "BMW", "face"]) == 0
    out = capsys.readouterr().out
    assert "cluster" in out
    assert "unique" in out


def test_render_writes_svg(characterization_file, tmp_path, capsys):
    out_dir = tmp_path / "figs"
    assert main(["render", str(characterization_file), str(out_dir)]) == 0
    svgs = list(out_dir.glob("*.svg"))
    assert svgs


def test_simulate_prints_cpi(characterization_file, capsys):
    assert (
        main(
            [
                "simulate",
                str(characterization_file),
                "BMW",
                "face",
                "--preset",
                "tiny",
                "--full",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "phase-based CPI estimate" in out
    assert "full-simulation CPI" in out


def test_map_writes_svg(characterization_file, tmp_path, capsys):
    out = tmp_path / "space.svg"
    assert main(["map", str(characterization_file), str(out)]) == 0
    assert out.exists()
    assert out.read_text().startswith("<svg")


def test_subset_prints_trajectory(characterization_file, capsys):
    assert main(["subset", str(characterization_file), "--count", "4"]) == 0
    out = capsys.readouterr().out
    assert "cumulative coverage" in out
    assert out.count("%") >= 4


def test_characterize_writes_run_report(tmp_path, capsys):
    from repro.obs import load_report, missing_stages, validate_report

    report_path = tmp_path / "run.json"
    assert (
        main(
            [
                "characterize",
                str(tmp_path / "c.npz"),
                "--preset",
                "tiny",
                "--suite",
                "BMW",
                "--run-report",
                str(report_path),
            ]
        )
        == 0
    )
    report = load_report(report_path)
    assert validate_report(report) == []
    assert missing_stages(report) == []
    assert report["command"] == "characterize"
    assert report["config"]["digest"]
    assert report["metrics"]["counters"]["kmeans.restarts"] > 0
    assert 0.0 < report["metrics"]["gauges"]["kmeans.skipped_row_ratio"] < 1.0
    capsys.readouterr()


def test_report_renders_run_report(tmp_path, capsys):
    report_path = tmp_path / "run.json"
    main(
        [
            "characterize",
            str(tmp_path / "c.npz"),
            "--preset",
            "tiny",
            "--suite",
            "BMW",
            "--no-ga",
            "--run-report",
            str(report_path),
        ]
    )
    capsys.readouterr()
    assert main(["report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "run report" in out
    assert "characterize" in out
    assert "kmeans" in out
    assert "counters" in out


def test_report_rejects_invalid_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"run_id": "x"}')
    assert main(["report", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "missing required key" in err


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_characterize_streaming(tmp_path, capsys):
    from repro.streaming import load_streaming_result

    path = tmp_path / "stream.npz"
    code = main(
        [
            "characterize",
            str(path),
            "--preset",
            "tiny",
            "--suite",
            "BMW",
            "--streaming",
            "--batch-intervals",
            "8",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "streaming, 8 intervals/batch" in out
    assert "intervals (streamed)" in out
    result = load_streaming_result(path)
    assert result.batch_intervals == 8
    assert len(result) > 0


def test_characterize_streaming_rejects_bad_batch(tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "characterize",
                str(tmp_path / "x.npz"),
                "--preset",
                "tiny",
                "--suite",
                "BMW",
                "--streaming",
                "--batch-intervals",
                "0",
            ]
        )


def test_characterize_streaming_reuses_feature_cache(tmp_path, capsys):
    from repro.obs import load_report
    from repro.streaming import load_streaming_result

    path = tmp_path / "stream.npz"
    args = ["characterize", str(path), "--preset", "tiny", "--suite", "BMW"]
    args += ["--streaming", "--feature-cache", str(tmp_path / "blocks")]
    characterized = []
    results = []
    for i in range(2):
        report_path = tmp_path / f"stream-{i}.json"
        assert main(args + ["--run-report", str(report_path)]) == 0
        assert "sweeps: 1 featurized" in capsys.readouterr().out
        counters = load_report(report_path)["metrics"]["counters"]
        characterized.append(counters.get("streaming.intervals_characterized", 0))
        results.append(load_streaming_result(path))

    # The rerun reads every interval from the warm feature blocks.
    assert characterized[0] > 0
    assert characterized[1] == 0
    assert results[1].clustering.bic == results[0].clustering.bic


def test_characterize_telemetry_streams_events(tmp_path, capsys):
    from repro.obs import read_events

    events_path = tmp_path / "events.jsonl"
    assert (
        main(
            [
                "characterize",
                str(tmp_path / "c.npz"),
                "--preset",
                "tiny",
                "--suite",
                "BMW",
                "--no-ga",
                "--telemetry",
                str(events_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    events, truncated = read_events(events_path)
    assert events and not truncated
    assert events[0]["type"] == "run.start"
    assert events[0]["command"] == "characterize"
    assert events[-1]["type"] == "run.end" and events[-1]["ok"] is True
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    closed = {e.get("span") for e in events if e["type"] == "span.close"}
    assert {"pca", "kmeans"} <= closed
    assert any(e["type"] == "progress" for e in events)

    # The same log feeds the follower and the report reconstructor.
    assert main(["watch", str(events_path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "finished ok" in out
    assert main(["report", str(events_path), "--from-events"]) == 0
    out = capsys.readouterr().out
    assert "run report" in out and "kmeans" in out


def test_rebuilt_report_has_the_live_root_clocks(tmp_path, capsys):
    from repro.obs import load_report, read_events, report_from_events

    events_path = tmp_path / "events.jsonl"
    report_path = tmp_path / "report.json"
    argv = ["characterize", str(tmp_path / "c.npz"), "--preset", "tiny"]
    argv += ["--suite", "BMW", "--no-ga", "--telemetry", str(events_path)]
    assert main(argv + ["--run-report", str(report_path)]) == 0
    capsys.readouterr()
    live = load_report(report_path)["spans"]
    events, truncated = read_events(events_path)
    rebuilt = report_from_events(events, truncated=truncated)["spans"]
    assert live["cpu_s"] > 0.0
    assert (rebuilt["wall_s"], rebuilt["cpu_s"]) == (live["wall_s"], live["cpu_s"])


def test_characterize_history_records_and_runs_commands(tmp_path, capsys):
    history = tmp_path / "history"
    for out_npz in ("c1.npz", "c2.npz"):
        # Distinct artifact paths so the second run re-executes every
        # stage instead of resuming from the first run's stage cache
        # (a resumed run records no per-stage spans to diff).
        assert (
            main(
                [
                    "characterize",
                    str(tmp_path / out_npz),
                    "--preset",
                    "tiny",
                    "--suite",
                    "BMW",
                    "--no-ga",
                    "--history-dir",
                    str(history),
                ]
            )
            == 0
        )
    capsys.readouterr()

    assert main(["runs", "list", "--history-dir", str(history)]) == 0
    out = capsys.readouterr().out
    assert "seq" in out and "git" in out and "wall" in out  # table header
    from repro.obs import HistoryStore

    run_ids = [e["run_id"] for e in HistoryStore(history).records()]
    assert len(run_ids) == 2
    assert all(run_id in out for run_id in run_ids)
    assert main(["runs", "show", "latest", "--history-dir", str(history)]) == 0
    out = capsys.readouterr().out
    assert "run report" in out

    # Two records in the store: diff prints every ledger value.
    assert main(["runs", "diff", "--history-dir", str(history)]) == 0
    out = capsys.readouterr().out
    assert "history diff" in out
    assert "kmeans.wall_s" in out and "kmeans.count" in out
    assert "pca.explained_variance" in out


def test_runs_list_empty_store(tmp_path, capsys):
    assert main(["runs", "list", "--history-dir", str(tmp_path / "empty")]) == 0
    out = capsys.readouterr().out
    assert "no records in" in out


def test_runs_diff_needs_two_records(tmp_path, capsys):
    from repro.obs import HistoryStore, Observation, build_report

    store = HistoryStore(tmp_path / "h")
    ob = Observation(run_id="only")
    store.append_run(build_report(ob))
    assert main(["runs", "diff", "--history-dir", str(tmp_path / "h")]) == 1
    assert "need two" in capsys.readouterr().err


def test_runs_diff_fail_on_regression(tmp_path, capsys):
    from repro.obs import HistoryStore, Observation, build_report

    def pinned(run_id, kmeans_wall):
        ob = Observation(run_id=run_id)
        with ob.span("characterize"):
            with ob.span("kmeans"):
                pass
        doc = build_report(ob)

        def pin(node):
            node["wall_s"] = node["cpu_s"] = kmeans_wall if node["name"] == "kmeans" else 1.0
            for child in node.get("children") or []:
                pin(child)

        pin(doc["spans"])
        return doc

    store = HistoryStore(tmp_path / "h")
    store.append_run(pinned("r1", 0.4))
    store.append_run(pinned("r2", 0.9))
    assert (
        main(
            [
                "runs",
                "diff",
                "--history-dir",
                str(tmp_path / "h"),
                "--tolerance",
                "0.10",
                "--fail-on-regression",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "kmeans" in out
    # The same pair within a huge tolerance passes.
    assert (
        main(
            [
                "runs",
                "diff",
                "--history-dir",
                str(tmp_path / "h"),
                "--tolerance",
                "5.0",
                "--fail-on-regression",
            ]
        )
        == 0
    )
    capsys.readouterr()


def test_runs_diff_fails_on_a_changed_answer(tmp_path, capsys):
    from repro.obs import HistoryStore, Observation, build_report

    store = HistoryStore(tmp_path / "h")
    for coverage in (0.88, 0.91):  # moved the "good" way: still changed
        ob = Observation(run_id=f"c{coverage}")
        ob.metrics.gauge_set("prominent.coverage", coverage)
        doc = build_report(ob)
        doc["spans"]["wall_s"] = doc["spans"]["cpu_s"] = 1.0
        doc["metrics"]["gauges"]["proc.peak_rss_mb"] = 50.0
        store.append_run(doc)
    argv = ["runs", "diff", "--history-dir", str(tmp_path / "h"), "--tolerance", "5.0"]
    assert main(argv) == 0
    assert main(argv + ["--fail-on-regression"]) == 1
    out = capsys.readouterr().out
    assert "CHANGED" in out and "prominent.coverage" in out


def test_telemetry_flags_leave_results_bit_identical(tmp_path, capsys):
    """The inert path promise: observing a run must not change it."""
    import numpy as np

    plain = tmp_path / "plain.npz"
    observed = tmp_path / "observed.npz"
    base = ["--preset", "tiny", "--suite", "BMW", "--no-ga"]
    assert main(["characterize", str(plain)] + base) == 0
    assert (
        main(
            ["characterize", str(observed)]
            + base
            + [
                "--run-report",
                str(tmp_path / "run.json"),
                "--telemetry",
                str(tmp_path / "events.jsonl"),
                "--history-dir",
                str(tmp_path / "history"),
            ]
        )
        == 0
    )
    capsys.readouterr()
    with np.load(plain, allow_pickle=True) as a, np.load(
        observed, allow_pickle=True
    ) as b:
        assert set(a.files) == set(b.files)
        for key in a.files:
            assert np.array_equal(a[key], b[key]), key


def test_work_once_on_an_empty_queue_exits_cleanly(tmp_path, capsys):
    assert main(["work", str(tmp_path / "svc"), "--once"]) == 0


def test_work_once_drains_a_submitted_job(tmp_path, capsys):
    from repro.config import AnalysisConfig
    from repro.service import JobQueue

    root = tmp_path / "svc"
    queue = JobQueue(root)
    view, _ = queue.submit(suites=["BMW"], config=AnalysisConfig.tiny())
    assert main(["work", str(root), "--once", "--name", "cli-w"]) == 0
    capsys.readouterr()
    done = JobQueue(root).get(view.job_id)
    assert done.state == "done"
    assert done.result["sha256"]


def test_serve_parser_accepts_the_documented_flags():
    # Parser wiring only: serve itself blocks forever, so stop at parse.
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "/tmp/svc", "--port", "0", "--workers", "2", "--preset", "tiny"]
    )
    assert args.command == "serve"
    assert args.workers == 2
    assert args.port == 0


def test_characterize_resumes_from_stage_checkpoints(tmp_path, capsys):
    """A second identical run reuses stage checkpoints instead of rebuilding."""
    out = tmp_path / "c.npz"
    base = ["characterize", str(out), "--preset", "tiny", "--suite", "BMW", "--no-ga"]
    assert main(base) == 0
    first = out.read_bytes()
    assert (out.parent / (out.name + ".stages")).is_dir()
    assert main(base) == 0
    capsys.readouterr()
    assert out.read_bytes() == first
