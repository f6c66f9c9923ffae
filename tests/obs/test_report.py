"""Run report: build → write → load → validate round-trip, rendering."""

import json

import pytest

from repro.config import AnalysisConfig
from repro.obs import (
    REQUIRED_KEYS,
    SCHEMA_VERSION,
    STAGES,
    STREAMING_STAGES,
    Observation,
    build_report,
    load_report,
    metrics,
    missing_stages,
    observe,
    recorded_run,
    render_report,
    span,
    validate_report,
    write_report,
)


def _report_with_stages():
    with recorded_run("r1", command="characterize", config=AnalysisConfig.tiny()) as run:
        with run.observing() as ob:
            with span("characterize"):
                for stage in STAGES:
                    with span(stage):
                        pass
            metrics().counter_add("kmeans.restarts", 10)
            metrics().gauge_set("kmeans.skipped_row_ratio", 0.5)
        return build_report(ob)


def test_round_trip_is_valid(tmp_path):
    report = _report_with_stages()
    path = write_report(tmp_path / "run.json", report)
    loaded = load_report(path)
    assert validate_report(loaded) == []
    assert missing_stages(loaded) == []
    assert loaded["schema_version"] == SCHEMA_VERSION
    assert loaded["run_id"] == "r1"
    assert loaded["config"]["digest"] == AnalysisConfig.tiny().full_key()
    assert (
        loaded["config"]["fields"]["intervals_per_benchmark"]
        == AnalysisConfig.tiny().intervals_per_benchmark
    )
    assert loaded["metrics"]["counters"]["kmeans.restarts"] == 10


def test_report_is_plain_json(tmp_path):
    report = _report_with_stages()
    text = json.dumps(report)  # raises if anything non-serializable leaked
    assert "kmeans.skipped_row_ratio" in text
    assert json.loads(text) == report


def test_build_report_closes_the_observation():
    with recorded_run("r2", command="characterize", config=AnalysisConfig.tiny()) as run:
        with run.observing() as ob:
            pass
        report = build_report(ob)
    assert report["spans"]["wall_s"] == ob.wall_s >= 0.0
    assert report["environment"]["python"]
    # run.end follows the report, with the clocks the report read.
    assert ob.events[-1]["type"] == "run.end"
    assert ob.events[-1]["wall_s"] == ob.wall_s


def test_validate_flags_missing_keys():
    problems = validate_report({"run_id": "x"})
    missing = {p for p in problems if p.startswith("missing required key")}
    assert len(missing) == len(REQUIRED_KEYS) - 1


def test_validate_flags_bad_shapes():
    report = _report_with_stages()
    report["schema_version"] = 99
    report["spans"] = []
    report["metrics"] = {"counters": {}}
    report["config"] = {}
    problems = validate_report(report)
    assert any("schema_version" in p for p in problems)
    assert any("span tree" in p for p in problems)
    assert any("gauges" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_a_report_with_a_histograms_section_still_validates():
    # Reports written while the metrics carried histograms stay valid,
    # and render without them.
    report = _report_with_stages()
    report["metrics"]["histograms"] = {"kmeans.restart_bic": {"count": 1}}
    assert validate_report(report) == []
    assert "kmeans.restarts" in render_report(report)


def test_missing_stages_reports_absent_names():
    ob = Observation(run_id="r3")
    with ob.span("pca"):
        pass
    report = build_report(ob)
    assert missing_stages(report) == [
        s for s in STAGES if s != "pca"
    ]


def test_missing_stages_checks_streaming_names_for_streaming_runs():
    # A streaming run replaces the six batch stages with its pass
    # structure; judging it against the batch names would flag all six.
    ob = Observation(run_id="s1", root_name="characterize.streaming")
    for stage in STREAMING_STAGES:
        with ob.span(stage):
            pass
    report = build_report(ob)
    assert missing_stages(report) == []


def test_missing_stages_recognizes_streaming_by_span_prefix():
    # Even without the characterize.streaming root (e.g. a report built
    # around a bare engine call), any streaming.* span flips the check.
    ob = Observation(run_id="s2")
    with ob.span("streaming.pca"):
        pass
    report = build_report(ob)
    assert missing_stages(report) == ["streaming.kmeans", "streaming.score"]


def test_streaming_run_report_round_trip(tmp_path):
    from repro.streaming import run_streaming_characterization
    from repro.suites import SUITE_INT2000, get_suite

    config = AnalysisConfig.tiny().replace(
        intervals_per_benchmark=8, n_clusters=4, kmeans_restarts=2
    )
    benches = get_suite(SUITE_INT2000).benchmarks[:3]
    with observe(run_id="s3", root_name="characterize.streaming") as ob:
        run_streaming_characterization(benches, config)
    report = build_report(ob)
    loaded = load_report(write_report(tmp_path / "streaming.json", report))
    assert validate_report(loaded) == []
    assert missing_stages(loaded) == []
    for stage in STREAMING_STAGES:
        assert stage in json.dumps(loaded["spans"])


def test_render_report_shows_tree_and_metrics():
    text = render_report(_report_with_stages())
    assert "run report r1" in text
    assert "characterize" in text
    for stage in STAGES:
        assert stage in text
    assert "kmeans.restarts" in text
    assert "kmeans.skipped_row_ratio" in text
    assert "missing methodology stages" not in text


def test_render_elides_excess_siblings():
    ob = Observation(run_id="r4")
    with ob.span("fanout"):
        for i in range(10):
            with ob.span("task", index=i):
                pass
    text = render_report(build_report(ob), max_children=3)
    assert "... 7 more spans elided" in text


def test_render_notes_missing_stages():
    ob = Observation(run_id="r5")
    text = render_report(build_report(ob))
    assert "missing methodology stages" in text
    assert "mica" in text


@pytest.mark.parametrize("key", REQUIRED_KEYS)
def test_every_required_key_is_required(key):
    report = _report_with_stages()
    del report[key]
    assert any(key in p for p in validate_report(report))
