"""Unit tests for the persistent job queue's state machine."""

import json
import os

import pytest

from repro.config import AnalysisConfig
from repro.service import JobQueue, job_id_for
from repro.service.queue import config_fields, suite_tag

CFG = AnalysisConfig.tiny()


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "svc")


class TestIdentity:
    def test_suite_tag_sorts_and_dedups(self):
        assert suite_tag(None) == "all"
        assert suite_tag(["B", "A", "B"]) == "A+B"
        assert "/" not in suite_tag(["we/ird"])

    def test_job_id_is_the_cache_key(self):
        assert job_id_for(None, CFG) == f"all-{CFG.full_key()}"

    def test_execution_knobs_do_not_change_job_identity(self):
        loud = CFG.replace(n_jobs=8, parallel_backend="thread")
        assert job_id_for(["BMW"], loud) == job_id_for(["BMW"], CFG)
        assert "n_jobs" not in config_fields(loud)

    def test_result_affecting_fields_change_job_identity(self):
        assert job_id_for(None, CFG) != job_id_for(None, CFG.replace(seed=1))


class TestSubmission:
    def test_submit_enqueues(self, queue):
        view, deduped = queue.submit(suites=["BMW"], config=CFG, priority=3)
        assert not deduped
        assert view.state == "queued"
        assert view.priority == 3
        assert view.submissions == 1
        assert view.payload["suites"] == ["BMW"]
        assert view.payload["config"]["seed"] == CFG.seed

    def test_identical_submission_dedups(self, queue):
        first, _ = queue.submit(suites=["BMW"], config=CFG)
        second, deduped = queue.submit(suites=["BMW"], config=CFG)
        assert deduped
        assert second.job_id == first.job_id
        assert second.submissions == 2
        # Still exactly one queued job.
        assert len(queue.jobs()) == 1

    def test_execution_knob_variant_dedups_onto_the_same_job(self, queue):
        queue.submit(suites=["BMW"], config=CFG)
        _, deduped = queue.submit(suites=["BMW"], config=CFG.replace(n_jobs=4))
        assert deduped

    def test_different_config_is_a_different_job(self, queue):
        queue.submit(suites=["BMW"], config=CFG)
        _, deduped = queue.submit(suites=["BMW"], config=CFG.replace(seed=9))
        assert not deduped
        assert len(queue.jobs()) == 2

    def test_submission_onto_done_job_stays_done(self, queue):
        view, _ = queue.submit(suites=["BMW"], config=CFG)
        queue.claim("w1")
        queue.complete(view.job_id, "w1", {"artifact": "a.npz"})
        again, deduped = queue.submit(suites=["BMW"], config=CFG)
        assert deduped
        assert again.state == "done"  # cache hit at the queue level

    def test_resubmission_revives_a_failed_job(self, queue):
        view, _ = queue.submit(suites=["BMW"], config=CFG)
        queue.claim("w1")
        queue.fail(view.job_id, "w1", "boom")
        assert queue.get(view.job_id).state == "failed"
        revived, deduped = queue.submit(suites=["BMW"], config=CFG)
        assert not deduped
        assert revived.state == "queued"
        assert revived.attempt == 1  # attempt history survives the revival


class TestClaiming:
    def test_claim_marks_running_with_owner(self, queue):
        view, _ = queue.submit(suites=["BMW"], config=CFG)
        claimed = queue.claim("w1")
        assert claimed.job_id == view.job_id
        assert claimed.state == "running"
        assert claimed.attempt == 1
        assert claimed.owner["worker"] == "w1"
        assert claimed.owner["pid"] == os.getpid()

    def test_claim_prefers_priority_then_fifo(self, queue):
        low, _ = queue.submit(suites=["BMW"], config=CFG, priority=0)
        high, _ = queue.submit(suites=["BMW"], config=CFG.replace(seed=9), priority=5)
        later, _ = queue.submit(suites=["BMW"], config=CFG.replace(seed=10), priority=0)
        assert queue.claim("w").job_id == high.job_id
        assert queue.claim("w").job_id == low.job_id  # FIFO among equals
        assert queue.claim("w").job_id == later.job_id
        assert queue.claim("w") is None

    def test_running_job_with_live_owner_is_not_reclaimed(self, queue):
        queue.submit(suites=["BMW"], config=CFG)
        queue.claim("w1")  # owner pid: this live process
        assert queue.claim("w2") is None

    def test_dead_owner_job_is_reclaimed_with_bumped_attempt(self, queue, tmp_path):
        import subprocess
        import sys

        view, _ = queue.submit(suites=["BMW"], config=CFG)
        queue.claim("w1")
        # Rewrite history: make the running record's owner a dead pid,
        # as if the claiming worker was SIGKILL'd mid-build.
        dead = int(
            subprocess.run(
                [sys.executable, "-c", "import os; print(os.getpid())"],
                capture_output=True,
                text=True,
            ).stdout.strip()
        )
        for envelope in queue.log.read():
            if envelope["record"].get("state") == "running":
                doc = json.loads(open(envelope["path"]).read())
                doc["record"]["owner"]["pid"] = dead
                from repro.io.records import canonical_digest, write_json_atomic

                doc["sha256"] = canonical_digest(doc["record"])
                write_json_atomic(envelope["path"], doc)
        reclaimed = queue.claim("w2")
        assert reclaimed is not None
        assert reclaimed.job_id == view.job_id
        assert reclaimed.attempt == 2
        assert reclaimed.owner["worker"] == "w2"

    def test_foreign_host_owner_reclaimed_only_after_lease(self, queue):
        view, _ = queue.submit(suites=["BMW"], config=CFG)
        queue.claim("w1")
        for envelope in queue.log.read():
            if envelope["record"].get("state") == "running":
                doc = json.loads(open(envelope["path"]).read())
                doc["record"]["owner"]["host"] = "another-box"
                from repro.io.records import canonical_digest, write_json_atomic

                doc["sha256"] = canonical_digest(doc["record"])
                write_json_atomic(envelope["path"], doc)
        assert queue.claim("w2", lease_timeout=3600) is None
        reclaimed = queue.claim("w2", lease_timeout=0.0)
        assert reclaimed is not None and reclaimed.attempt == 2


class TestCompletionAndLedger:
    def test_complete_records_result(self, queue):
        view, _ = queue.submit(suites=["BMW"], config=CFG)
        queue.claim("w1")
        done = queue.complete(view.job_id, "w1", {"artifact": "x.npz", "sha256": "ab"})
        assert done.state == "done"
        assert done.result["sha256"] == "ab"
        assert done.owner is None

    def test_build_ledger_counts_builds(self, queue):
        assert queue.builds() == []
        queue.record_build("job-1", 1, "w1")
        queue.record_build("job-1", 2, "w2")
        builds = queue.builds()
        assert [b["attempt"] for b in builds] == [1, 2]
        assert queue.stats()["builds"] == 2

    def test_stats_counts_by_state(self, queue):
        queue.submit(suites=["BMW"], config=CFG)
        queue.submit(suites=["BMW"], config=CFG.replace(seed=9))
        queue.claim("w1")
        stats = queue.stats()
        assert stats["jobs"] == 2
        assert stats["by_state"]["queued"] == 1
        assert stats["by_state"]["running"] == 1


class TestDurability:
    def test_state_survives_a_fresh_queue_object(self, queue, tmp_path):
        view, _ = queue.submit(suites=["BMW"], config=CFG, priority=2)
        queue.claim("w1")
        reopened = JobQueue(tmp_path / "svc")
        again = reopened.get(view.job_id)
        assert again.state == "running"
        assert again.priority == 2

    def test_corrupt_transition_record_is_tolerated(self, queue):
        view, _ = queue.submit(suites=["BMW"], config=CFG)
        claimed = queue.claim("w1")
        # Corrupt the running record: fold falls back to the queued state.
        for envelope in queue.log.read():
            if envelope["record"].get("state") == "running":
                raw = open(envelope["path"]).read()
                with open(envelope["path"], "w") as fh:
                    fh.write(raw[: len(raw) // 2])
        survivor = queue.get(view.job_id)
        assert survivor is not None
        assert survivor.state == "queued"
        assert claimed.state == "running"  # the pre-corruption view
