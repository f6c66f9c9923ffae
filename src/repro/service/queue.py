"""The persistent job queue: durable state machine over a record log.

One characterization job is identified by what it computes — the
suite selection plus the configuration's
:meth:`~repro.config.AnalysisConfig.full_key` — so identical
submissions are *the same job* by construction: a million users asking
for the same config attach to one queue entry and cost one build.

Durability follows the :class:`repro.io.records.RecordLog` discipline:
every state transition is one appended, checksummed, seq-stamped JSON
record; nothing is rewritten in place.  Folding the log by sequence
number yields each job's current :class:`JobView`::

    queued ──claim──▶ running ──complete──▶ done
       ▲                │  ▲                  (terminal, artifact ready)
       │                │  └─reclaim (owner dead / lease expired)
       └──resubmit── failed ◀──fail──┘

Transitions that must not race (two workers claiming the same job,
duplicate submissions landing together) run inside one cross-process
transaction lock (:func:`repro.io.artifacts.artifact_lock` on
``<queue>/TXN``): fold, decide, append.  A worker that dies holding a
job leaves a ``running`` record whose owner pid is dead (or whose
lease has expired, for owners on another host); the next
:meth:`JobQueue.claim` reclaims it with a bumped attempt counter, and
the pipeline's stage checkpoints make the re-run resume bit-identically
instead of starting over.

The queue also keeps the *build ledger* (``artifacts/builds.jsonl``):
one appended line per actual pipeline execution, the counting hook the
dedup and single-flight tests (and the CI service-smoke job) assert
against.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..config import AnalysisConfig
from ..io.artifacts import artifact_lock
from ..io.records import RecordLog
from ..obs import get_logger, metrics
from ..obs.proc import pid_alive

__all__ = [
    "JOB_STATES",
    "JobQueue",
    "JobView",
    "artifact_path",
    "events_path",
    "job_dir",
    "job_id_for",
    "suite_tag",
]

PathLike = Union[str, Path]

log = get_logger(__name__)

#: The job lifecycle; ``done`` and ``failed`` are terminal (``failed``
#: may be revived by a resubmission).
JOB_STATES = ("queued", "running", "done", "failed")

#: Seconds after which a ``running`` record whose owner cannot be
#: pid-checked (another host) is considered abandoned.
DEFAULT_LEASE_TIMEOUT = 300.0


def suite_tag(suites: Optional[List[str]]) -> str:
    """Filesystem-safe tag for a benchmark selection (sorted, deduped)."""
    import re

    if not suites:
        return "all"
    joined = "+".join(sorted(set(suites)))
    return re.sub(r"[^A-Za-z0-9._+-]", "_", joined)


def job_id_for(suites: Optional[List[str]], config: AnalysisConfig) -> str:
    """The deterministic job id: suite tag + config full key.

    Two submissions with the same id compute the same artifact, which
    is exactly the dedup contract — the id *is* the cache key.
    """
    return f"{suite_tag(suites)}-{config.full_key()}"


def job_dir(root: PathLike, job_id: str) -> Path:
    """Per-job scratch directory (event logs, run reports)."""
    return Path(root) / "jobs" / job_id


def events_path(root: PathLike, job_id: str, attempt: int) -> Path:
    """The telemetry event log for one attempt at a job."""
    return job_dir(root, job_id) / f"events-a{attempt}.jsonl"


def artifact_path(root: PathLike, job_id: str) -> Path:
    """The finished characterization artifact for a job."""
    return Path(root) / "artifacts" / f"{job_id}.npz"


@dataclass
class JobView:
    """The folded current state of one job."""

    job_id: str
    state: str
    priority: int = 0
    seq: int = 0  # seq of the first queued record: FIFO tiebreak
    updated_seq: int = 0  # seq of the latest record
    attempt: int = 0
    submissions: int = 1
    created: float = 0.0
    updated: float = 0.0
    owner: Optional[Dict[str, Any]] = None
    payload: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    def to_doc(self) -> Dict[str, Any]:
        """JSON-serializable view for the HTTP API."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "priority": self.priority,
            "seq": self.seq,
            "attempt": self.attempt,
            "submissions": self.submissions,
            "created": self.created,
            "updated": self.updated,
            "owner": self.owner,
            "suites": self.payload.get("suites"),
            "config": self.payload.get("config"),
            "error": self.error,
            "result": self.result,
        }


class JobQueue:
    """Persistent, crash-safe job queue rooted at a service directory."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.log = RecordLog(self.root / "queue", schema="queue:job", prefix="job")

    # -- transactions ------------------------------------------------------

    def _txn(self):
        """The queue-wide transaction lock (fold → decide → append)."""
        (self.root / "queue").mkdir(parents=True, exist_ok=True)
        return artifact_lock(self.root / "queue" / "TXN")

    # -- folding -----------------------------------------------------------

    def jobs(self) -> Dict[str, JobView]:
        """Fold the record log into each job's current state."""
        out: Dict[str, JobView] = {}
        for envelope in self.log.read():
            record = envelope.get("record") or {}
            job_id = record.get("job")
            if not isinstance(job_id, str):
                continue
            kind = record.get("state")
            seq = int(envelope.get("seq", 0))
            created = float(envelope.get("created", 0.0))
            view = out.get(job_id)
            if kind == "queued":
                if view is None or view.state in ("done", "failed"):
                    # First submission, or a resubmission reviving a
                    # failed job; a done job stays done (the new
                    # submission deduped onto the finished result).
                    fresh = JobView(
                        job_id=job_id,
                        state="queued",
                        priority=int(record.get("priority", 0)),
                        seq=seq,
                        updated_seq=seq,
                        attempt=view.attempt if view else 0,
                        submissions=(view.submissions if view else 0) + 1,
                        created=view.created if view else created,
                        updated=created,
                        payload=dict(record.get("payload") or {}),
                    )
                    out[job_id] = fresh
                continue
            if view is None:
                # A transition without a queued record: tolerate a
                # partially quarantined log rather than crash.
                view = out[job_id] = JobView(job_id=job_id, state="queued", seq=seq)
            view.updated_seq = seq
            view.updated = created
            if kind == "attach":
                view.submissions += 1
            elif kind == "running":
                view.state = "running"
                view.attempt = int(record.get("attempt", view.attempt + 1))
                view.owner = dict(record.get("owner") or {})
                if record.get("priority") is not None:
                    view.priority = int(record["priority"])
            elif kind == "done":
                view.state = "done"
                view.owner = None
                view.result = dict(record.get("result") or {})
            elif kind == "failed":
                view.state = "failed"
                view.owner = None
                view.error = str(record.get("error") or "unknown error")
        return out

    def get(self, job_id: str) -> Optional[JobView]:
        """One job's current state, or None."""
        return self.jobs().get(job_id)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        *,
        suites: Optional[List[str]],
        config: AnalysisConfig,
        priority: int = 0,
    ) -> Tuple[JobView, bool]:
        """Submit a job; returns ``(view, deduped)``.

        An identical submission (same suites + config full key) while a
        job is queued, running, or done *attaches* to it instead of
        enqueuing a duplicate — service-level single-flight.  A failed
        job is revived by a fresh ``queued`` record.
        """
        job_id = job_id_for(suites, config)
        payload = {
            "suites": sorted(set(suites)) if suites else None,
            "config": dict(sorted(config_fields(config).items())),
        }
        with self._txn():
            existing = self.jobs().get(job_id)
            if existing is not None and existing.state != "failed":
                self.log.append(
                    {"job": job_id, "state": "attach", "priority": int(priority)},
                    tag=f"{job_id}-attach",
                )
                metrics().counter_add("service.submissions_deduped", 1)
                existing.submissions += 1
                log.info(
                    "submission deduped onto %s job %s (%d submissions)",
                    existing.state,
                    job_id,
                    existing.submissions,
                )
                return existing, True
            self.log.append(
                {
                    "job": job_id,
                    "state": "queued",
                    "priority": int(priority),
                    "payload": payload,
                },
                tag=f"{job_id}-queued",
            )
            metrics().counter_add("service.submissions", 1)
            view = self.jobs()[job_id]
        log.info("queued job %s (priority %d)", job_id, priority)
        return view, False

    # -- claiming ----------------------------------------------------------

    def _abandoned(self, view: JobView, lease_timeout: float) -> bool:
        """Whether a running job's owner is provably gone."""
        owner = view.owner or {}
        pid = owner.get("pid")
        if pid is not None and owner.get("host") == socket.gethostname():
            return not pid_alive(pid)
        # Foreign host (or no pid recorded): fall back to the lease —
        # the running record's age against the reclaim timeout.
        return (time.time() - view.updated) > lease_timeout

    def claim(
        self,
        worker: str,
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    ) -> Optional[JobView]:
        """Claim the best runnable job for ``worker``, or None.

        Highest priority first, then oldest submission.  A ``running``
        job whose owner died (SIGKILL'd worker) is reclaimed with a
        bumped attempt counter — the resumption path.
        """
        with self._txn():
            candidates = []
            for view in self.jobs().values():
                if view.state == "queued":
                    candidates.append(view)
                elif view.state == "running" and self._abandoned(view, lease_timeout):
                    candidates.append(view)
            if not candidates:
                return None
            best = max(candidates, key=lambda v: (v.priority, -v.seq))
            reclaimed = best.state == "running"
            attempt = best.attempt + 1
            self.log.append(
                {
                    "job": best.job_id,
                    "state": "running",
                    "attempt": attempt,
                    "priority": best.priority,
                    "owner": {
                        "worker": worker,
                        "pid": os.getpid(),
                        "host": socket.gethostname(),
                    },
                },
                tag=f"{best.job_id}-running",
            )
            view = self.jobs()[best.job_id]
        if reclaimed:
            metrics().counter_add("service.jobs_reclaimed", 1)
            log.warning(
                "reclaimed job %s from dead owner (attempt %d)", best.job_id, attempt
            )
        else:
            log.info("claimed job %s (attempt %d)", best.job_id, attempt)
        return view

    # -- completion --------------------------------------------------------

    def complete(self, job_id: str, worker: str, result: Dict[str, Any]) -> JobView:
        """Mark a job done, recording the result summary."""
        with self._txn():
            self.log.append(
                {"job": job_id, "state": "done", "worker": worker, "result": result},
                tag=f"{job_id}-done",
            )
            view = self.jobs()[job_id]
        metrics().counter_add("service.jobs_done", 1)
        log.info("job %s done (worker %s)", job_id, worker)
        return view

    def fail(self, job_id: str, worker: str, error: str) -> JobView:
        """Mark a job failed, recording the error."""
        with self._txn():
            self.log.append(
                {"job": job_id, "state": "failed", "worker": worker, "error": error},
                tag=f"{job_id}-failed",
            )
            view = self.jobs()[job_id]
        metrics().counter_add("service.jobs_failed", 1)
        log.warning("job %s failed (worker %s): %s", job_id, worker, error)
        return view

    # -- the build ledger --------------------------------------------------

    def _builds_path(self) -> Path:
        return self.root / "artifacts" / "builds.jsonl"

    def record_build(self, job_id: str, attempt: int, worker: str) -> None:
        """Append one line to the build ledger: a pipeline actually ran.

        Dedup'd submissions, cache hits, and single-flight waiters never
        land here — the ledger counts real featurize/cluster executions,
        which is what the one-build acceptance tests assert on.
        """
        path = self._builds_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {"job": job_id, "attempt": attempt, "worker": worker, "ts": time.time()}
        )
        # One small O_APPEND write is atomic on POSIX: concurrent
        # workers never interleave bytes within a line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        metrics().counter_add("service.builds", 1)

    def builds(self) -> List[Dict[str, Any]]:
        """The build ledger, oldest first."""
        path = self._builds_path()
        if not path.exists():
            return []
        out = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except ValueError:
                continue
        return out

    # -- stats -------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Queue-level counts for the health endpoint."""
        jobs = self.jobs()
        by_state = {state: 0 for state in JOB_STATES}
        for view in jobs.values():
            by_state[view.state] = by_state.get(view.state, 0) + 1
        return {
            "jobs": len(jobs),
            "by_state": by_state,
            "builds": len(self.builds()),
        }


def config_fields(config: AnalysisConfig) -> Dict[str, Any]:
    """The result-affecting config fields a queue record persists.

    Execution knobs are the *worker's* business (its core count and
    executor backend), not the submitter's: excluding them keeps the
    payload aligned with ``full_key()``, so two submissions differing
    only in, say, ``n_jobs`` dedup onto one job.
    """
    import dataclasses

    fields = dataclasses.asdict(config)
    for knob in AnalysisConfig.EXECUTION_KNOBS:
        fields.pop(knob, None)
    return fields
