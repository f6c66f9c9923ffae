"""Socket-free tests of the HTTP API handler, error paths included."""

import json

import pytest

from repro.config import AnalysisConfig
from repro.service import MAX_BODY_BYTES, JobQueue, ServiceAPI, Worker, job_id_for

CFG = AnalysisConfig.tiny()


@pytest.fixture
def api(tmp_path):
    return ServiceAPI(tmp_path / "svc", default_preset="tiny")


def _post(api, doc):
    return api.handle("POST", "/jobs", body=json.dumps(doc).encode())


def _body(response):
    return json.loads(response.payload().decode())


class TestSubmission:
    def test_submit_returns_202_and_the_job(self, api):
        response = _post(api, {"suites": ["BMW"], "priority": 2})
        assert response.status == 202
        doc = _body(response)
        assert doc["deduped"] is False
        assert doc["job"]["state"] == "queued"
        assert doc["job"]["priority"] == 2
        assert doc["job"]["job_id"] == job_id_for(["BMW"], CFG)

    def test_duplicate_submission_dedups_with_200(self, api):
        first = _post(api, {"suites": ["BMW"]})
        second = _post(api, {"suites": ["BMW"]})
        assert first.status == 202
        assert second.status == 200
        doc = _body(second)
        assert doc["deduped"] is True
        assert doc["job"]["submissions"] == 2

    def test_empty_body_submits_the_default_job(self, api):
        response = api.handle("POST", "/jobs", body=b"")
        assert response.status == 202
        assert _body(response)["job"]["suites"] is None

    def test_config_override_changes_the_job(self, api):
        a = _body(_post(api, {"config": {"seed": 1}}))["job"]["job_id"]
        b = _body(_post(api, {"config": {"seed": 2}}))["job"]["job_id"]
        assert a != b
        assert a == job_id_for(None, CFG.replace(seed=1))


class TestSubmissionErrors:
    def test_malformed_json_body_is_400(self, api):
        response = api.handle("POST", "/jobs", body=b"{not json!")
        assert response.status == 400
        assert "malformed JSON" in _body(response)["error"]

    def test_non_object_body_is_400(self, api):
        assert api.handle("POST", "/jobs", body=b"[1,2]").status == 400

    def test_unknown_suite_is_400(self, api):
        response = _post(api, {"suites": ["NotASuite"]})
        assert response.status == 400
        assert "unknown suite 'NotASuite'" in _body(response)["error"]

    def test_non_list_suites_is_400(self, api):
        assert _post(api, {"suites": "BMW"}).status == 400

    def test_unknown_preset_is_400(self, api):
        response = _post(api, {"preset": "gigantic"})
        assert response.status == 400
        assert "unknown preset" in _body(response)["error"]

    def test_unknown_config_field_is_400(self, api):
        response = _post(api, {"config": {"n_cluster": 5}})  # typo'd field
        assert response.status == 400
        assert "n_cluster" in _body(response)["error"]

    def test_invalid_config_value_is_400(self, api):
        response = _post(api, {"config": {"n_key_characteristics": 0}})
        assert response.status == 400
        assert "invalid config" in _body(response)["error"]

    def test_execution_knob_in_config_is_400(self, api):
        response = _post(api, {"config": {"n_jobs": 8}})
        assert response.status == 400
        assert "execution knob" in _body(response)["error"]

    def test_retired_spool_dir_is_unknown_field(self, api):
        response = _post(api, {"config": {"spool_dir": "/x"}})
        assert response.status == 400
        assert "unknown config field(s): spool_dir" in _body(response)["error"]

    def test_streaming_config_is_400(self, api):
        assert _post(api, {"config": {"streaming": True}}).status == 400

    def test_non_integer_priority_is_400(self, api):
        assert _post(api, {"priority": "high"}).status == 400

    def test_oversized_body_is_413(self, api):
        padding = b"x" * (MAX_BODY_BYTES + 1)
        response = api.handle("POST", "/jobs", body=padding)
        assert response.status == 413

    def test_nothing_was_enqueued_by_any_bad_request(self, api):
        assert _body(api.handle("GET", "/jobs"))["jobs"] == []


class TestRoutes:
    def test_health_reports_stats(self, api):
        _post(api, {"suites": ["BMW"]})
        doc = _body(api.handle("GET", "/health"))
        assert doc["ok"] is True
        assert doc["jobs"] == 1
        assert doc["by_state"]["queued"] == 1

    def test_unknown_route_is_404(self, api):
        assert api.handle("GET", "/nope").status == 404
        assert api.handle("GET", "/jobs/zzz/nope").status == 404

    def test_unknown_job_is_404(self, api):
        assert api.handle("GET", "/jobs/zzz").status == 404
        assert api.handle("GET", "/jobs/zzz/progress").status == 404

    def test_wrong_method_is_405(self, api):
        assert api.handle("DELETE", "/jobs").status == 405
        assert api.handle("POST", "/health").status == 405
        _post(api, {"suites": ["BMW"]})
        job_id = job_id_for(["BMW"], CFG)
        assert api.handle("POST", f"/jobs/{job_id}").status == 405

    def test_artifact_before_done_is_404(self, api):
        _post(api, {"suites": ["BMW"]})
        job_id = job_id_for(["BMW"], CFG)
        response = api.handle("GET", f"/jobs/{job_id}/artifact")
        assert response.status == 404
        assert "state: queued" in _body(response)["error"]

    def test_report_before_done_is_404(self, api):
        _post(api, {"suites": ["BMW"]})
        job_id = job_id_for(["BMW"], CFG)
        assert api.handle("GET", f"/jobs/{job_id}/report").status == 404


class TestFinishedJobRoutes:
    @pytest.fixture
    def finished(self, api, tmp_path):
        _post(api, {"suites": ["BMW"]})
        Worker(tmp_path / "svc", "w1").run(once=True)
        return job_id_for(["BMW"], CFG)

    def test_job_doc_reports_done_with_result(self, api, finished):
        doc = _body(api.handle("GET", f"/jobs/{finished}"))
        assert doc["state"] == "done"
        assert doc["result"]["sha256"]

    def test_artifact_bytes_round_trip(self, api, finished, tmp_path):
        import hashlib

        response = api.handle("GET", f"/jobs/{finished}/artifact")
        assert response.status == 200
        assert response.content_type == "application/octet-stream"
        payload = response.payload()
        doc = _body(api.handle("GET", f"/jobs/{finished}"))
        assert hashlib.sha256(payload).hexdigest() == doc["result"]["sha256"]
        assert response.headers["X-Artifact-Sha256"] == doc["result"]["sha256"]
        # The bytes are a loadable characterization.
        out = tmp_path / "fetched.npz"
        out.write_bytes(payload)
        from repro.core import load_characterization

        assert load_characterization(out).clustering.k >= 1

    def test_events_stream_is_raw_jsonl(self, api, finished):
        response = api.handle("GET", f"/jobs/{finished}/events")
        assert response.status == 200
        assert response.content_type == "application/x-ndjson"
        lines = response.payload().decode().splitlines()
        first = json.loads(lines[0])
        assert first["type"] == "run.start"
        assert json.loads(lines[-1])["type"] == "run.end"

    def test_events_bad_attempt_is_400(self, api, finished):
        assert (
            api.handle("GET", f"/jobs/{finished}/events", {"attempt": "x"}).status
            == 400
        )

    def test_progress_summarizes_the_event_log(self, api, finished):
        doc = _body(api.handle("GET", f"/jobs/{finished}/progress"))
        assert doc["job"]["state"] == "done"
        assert doc["live"]["ended"] is not None
        assert doc["live"]["ok"] is True
        assert doc["live"]["truncated"] is False

    def test_report_is_schema_valid(self, api, finished):
        from repro.obs import validate_report

        response = api.handle("GET", f"/jobs/{finished}/report")
        assert response.status == 200
        assert validate_report(_body(response)) == []


class TestDedupOnFinishedJobs:
    def test_submission_after_done_is_an_immediate_cache_hit(self, api, tmp_path):
        _post(api, {"suites": ["BMW"]})
        Worker(tmp_path / "svc", "w1").run(once=True)
        response = _post(api, {"suites": ["BMW"]})
        assert response.status == 200
        doc = _body(response)
        assert doc["deduped"] is True
        assert doc["job"]["state"] == "done"  # artifact ready right now
        assert len(JobQueue(tmp_path / "svc").builds()) == 1
