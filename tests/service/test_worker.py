"""Worker tests: build, cache hit, failure, and SIGKILL'd-worker resume."""

import subprocess
import sys

import pytest

from repro.config import AnalysisConfig
from repro.core import characterize_to_file
from repro.obs import read_events, summarize_events
from repro.service import JobQueue, Worker, artifact_path, events_path, job_dir
from repro.service.worker import config_from_fields, file_digest
from tests.io.faults import env_with_src, sigkill_rc

CFG = AnalysisConfig.tiny()
SUITES = ["BMW"]


@pytest.fixture
def root(tmp_path):
    return tmp_path / "svc"


def test_config_round_trips_through_the_payload():
    queue_payloadish = {
        k: v
        for k, v in CFG.replace(seed=5).__dict__.items()
        if k not in AnalysisConfig.EXECUTION_KNOBS
    }
    rebuilt = config_from_fields(queue_payloadish)
    assert rebuilt.full_key() == CFG.replace(seed=5).full_key()


class TestProcess:
    def test_worker_builds_and_completes(self, root):
        queue = JobQueue(root)
        view, _ = queue.submit(suites=SUITES, config=CFG)
        worker = Worker(root, "w1")
        assert worker.run(once=True) == 1
        done = queue.get(view.job_id)
        assert done.state == "done"
        assert done.result["cached"] is False
        artifact = artifact_path(root, view.job_id)
        assert artifact.exists()
        assert done.result["sha256"] == file_digest(artifact)
        assert done.result["n_intervals"] > 0
        # One build in the ledger, telemetry + report on disk.
        assert len(queue.builds()) == 1
        assert events_path(root, view.job_id, 1).exists()
        assert (job_dir(root, view.job_id) / "report.json").exists()

    def test_job_scoped_run_id_stamps_the_event_log(self, root):
        import json

        queue = JobQueue(root)
        view, _ = queue.submit(suites=SUITES, config=CFG)
        Worker(root, "w1").run(once=True)
        first = json.loads(
            events_path(root, view.job_id, 1).read_text().splitlines()[0]
        )
        assert first["run_id"] == f"{view.job_id}.a1"
        assert first["type"] == "run.start"
        assert first["pid"] > 0

    def test_report_json_equals_the_fold_of_its_event_log(self, root):
        from repro.obs import load_report, read_events, report_from_events

        queue = JobQueue(root)
        view, _ = queue.submit(suites=SUITES, config=CFG)
        Worker(root, "w1").run(once=True)
        report = load_report(job_dir(root, view.job_id) / "report.json")
        events, truncated = read_events(events_path(root, view.job_id, 1))
        assert not truncated and events[-1]["type"] == "run.end"
        assert report == report_from_events(events)
        assert report["command"] == "service.characterize"
        assert report["config"]["digest"] == CFG.full_key()

    def test_existing_artifact_is_a_cache_hit_not_a_build(self, root):
        queue = JobQueue(root)
        view, _ = queue.submit(suites=SUITES, config=CFG)
        Worker(root, "w1").run(once=True)
        assert len(queue.builds()) == 1
        # Fail-and-revive the job while its artifact survives: the next
        # worker must serve the bytes it already has, not recompute.
        queue.submit(suites=SUITES, config=CFG)  # deduped, still done
        fresh_queue_root_jobs = queue.jobs()
        assert fresh_queue_root_jobs[view.job_id].state == "done"
        # Force a rerun by reviving through the failed path.
        queue.log.append(
            {"job": view.job_id, "state": "failed", "worker": "x", "error": "forced"},
            tag="forced",
        )
        revived, deduped = queue.submit(suites=SUITES, config=CFG)
        assert not deduped and revived.state == "queued"
        Worker(root, "w2").run(once=True)
        done = queue.get(view.job_id)
        assert done.state == "done"
        assert done.result["cached"] is True
        assert len(queue.builds()) == 1  # no second build line

    def test_failing_job_is_marked_failed_and_worker_survives(self, root):
        queue = JobQueue(root)
        # Poison the payload with a suite the registry does not know;
        # the worker must fail the job, not die.
        queue.log.append(
            {
                "job": "poison",
                "state": "queued",
                "priority": 0,
                "payload": {"suites": ["no-such-suite"], "config": {}},
            },
            tag="poison",
        )
        worker = Worker(root, "w1")
        assert worker.run(once=True) == 1
        failed = queue.get("poison")
        assert failed.state == "failed"
        assert "no-such-suite" in failed.error

    def test_two_workers_drain_distinct_jobs(self, root):
        queue = JobQueue(root)
        a, _ = queue.submit(suites=SUITES, config=CFG)
        b, _ = queue.submit(suites=SUITES, config=CFG.replace(seed=9))
        w1, w2 = Worker(root, "w1"), Worker(root, "w2")
        assert w1.run_once() and w2.run_once()
        states = {v.job_id: v.state for v in queue.jobs().values()}
        assert states == {a.job_id: "done", b.job_id: "done"}
        builds = queue.builds()
        assert len(builds) == 2
        assert {x["worker"] for x in builds} == {"w1", "w2"}


_WORKER_CODE = """
import sys
from repro.service import run_worker
sys.exit(run_worker(sys.argv[1], name=sys.argv[2], once=True))
"""


class TestSigkillResume:
    def test_killed_worker_job_resumes_bit_identically(self, root, tmp_path):
        """A SIGKILL'd worker's job is reclaimed and resumed, not restarted.

        Worker 1 dies right after the dataset stage completes, with
        every row in the job's feature blocks (fault injection).
        Worker 2 reclaims the abandoned running job, rebuilds the
        dataset from the blocks without featurizing, and the finished
        artifact is bit-identical to a clean single-shot build of the
        same job.
        """
        queue = JobQueue(root)
        view, _ = queue.submit(suites=SUITES, config=CFG)

        killed = subprocess.run(
            [sys.executable, "-c", _WORKER_CODE, str(root), "victim"],
            env=env_with_src(REPRO_FAULT_SIGKILL_AFTER="dataset"),
            capture_output=True,
            timeout=300,
        )
        assert killed.returncode == sigkill_rc()
        abandoned = queue.get(view.job_id)
        assert abandoned.state == "running"  # the kill left it claimed
        artifact = artifact_path(root, view.job_id)
        assert not artifact.exists()
        # The featurized rows survived the kill in the run-scoped blocks.
        stage_dir = artifact.parent / (artifact.name + ".stages")
        assert any((stage_dir / "feature_blocks").glob("block_*.npz"))
        assert not list(stage_dir.glob("stage_dataset_*"))

        rescued = subprocess.run(
            [sys.executable, "-c", _WORKER_CODE, str(root), "rescuer"],
            env=env_with_src(),
            capture_output=True,
            timeout=300,
        )
        assert rescued.returncode == 0, rescued.stderr.decode()
        done = queue.get(view.job_id)
        assert done.state == "done"
        assert done.attempt == 2
        assert done.owner is None

        # Bit-identity: a clean single-shot build of the same suites +
        # config yields byte-for-byte the same artifact.
        clean = tmp_path / "clean.npz"
        from repro.suites import get_suite

        benches = list(get_suite("BMW").benchmarks)
        characterize_to_file(benches, CFG, clean, suite_tag="BMW")
        assert file_digest(artifact) == file_digest(clean)
        assert done.result["sha256"] == file_digest(clean)
        # Both attempts consumed a build-ledger line: the ledger counts
        # pipeline executions started, and the kill consumed one.
        attempts = [b["attempt"] for b in queue.builds()]
        assert attempts == [1, 2]
        # Each attempt left its own telemetry log; the killed one has
        # no run.end, the rescuer's does.
        assert events_path(root, view.job_id, 1).exists()
        assert events_path(root, view.job_id, 2).exists()
        assert "run.end" not in events_path(root, view.job_id, 1).read_text()
        assert "run.end" in events_path(root, view.job_id, 2).read_text()
        # The killed log keeps the counters of every span that closed
        # before the kill, as /jobs/<id>/progress serves them: all the
        # rows the rescuer read back from the feature blocks.
        killed_log, _ = read_events(events_path(root, view.job_id, 1))
        killed = summarize_events(killed_log)["counters"]
        assert killed.get("dataset.rows") == done.result["n_intervals"]
        rescue_log, _ = read_events(events_path(root, view.job_id, 2))
        rescue = summarize_events(rescue_log)["counters"]
        assert rescue["dataset.intervals_characterized"] == 0
        assert rescue["feature_blocks.interval_hits"] > 0
