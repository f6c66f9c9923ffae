"""BENCH emission: line format and report writes."""

import json

import pytest

from repro.obs import emit_bench


def test_emit_bench_line_and_payload():
    lines = []
    payload = emit_bench("demo", {"speedup": 2.5, "ok": True}, echo=lines.append)
    assert payload["bench"] == "demo"
    assert len(lines) == 1
    assert lines[0].startswith("BENCH ")
    parsed = json.loads(lines[0][len("BENCH "):])
    assert parsed == {"bench": "demo", "speedup": 2.5, "ok": True}


def test_emit_bench_writes_report(tmp_path):
    def report(name, text):
        (tmp_path / name).write_text(text)

    emit_bench("demo", {"speedup": 2.0}, report=report, echo=lambda _: None)
    written = json.loads((tmp_path / "demo.json").read_text())
    assert written["speedup"] == 2.0
    # Every reported bench also leaves the stable collector artifact.
    stable = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert stable == written


def test_emit_bench_propagates_non_directory_errors():
    def report(name, text):
        raise FileNotFoundError()  # a failing writer is not swallowed

    with pytest.raises(FileNotFoundError):
        emit_bench("demo", {"x": 1}, report=report, echo=lambda _: None)
