"""Sharded queue workers: claim, build (or cache-hit), complete.

A worker is a plain process loop over :meth:`JobQueue.claim`.  Any
number of workers may point at one service root; the queue's
transaction lock makes claims exclusive, and job identity (suite tag +
config full key) makes the work single-flight — N workers never build
the same job twice.

Crash resilience comes from composition, not new machinery: each
attempt runs :func:`repro.core.characterize_to_file` against the job's
deterministic artifact path, so the feature blocks and stage
checkpoints of a SIGKILL'd attempt sit exactly where the next attempt
looks.  The reclaiming worker (same queue, different process)
featurizes only what the kill left unfinished, resumes the finished
stages and produces a bit-identical artifact, because every stage
draws from its own seeded RNG stream.

Each attempt gets a job-scoped run id (``<job_id>.a<attempt>``) and
streams telemetry to ``jobs/<job_id>/events-a<attempt>.jsonl`` — the
file the HTTP API's progress and event endpoints read while the job
runs, ``repro report --from-events`` can post-mortem after a kill,
and whose ``run.start`` is the attempt's build-ledger entry
(:meth:`JobQueue.builds`).
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .. import obs
from ..config import AnalysisConfig
from ..core import characterize_to_file
from ..suites import get_suite
from .queue import (
    DEFAULT_LEASE_TIMEOUT,
    JobQueue,
    JobView,
    artifact_path,
    events_path,
    job_dir,
    suite_tag,
)

__all__ = ["Worker", "run_worker", "config_from_fields", "file_digest"]

PathLike = Union[str, Path]

log = obs.get_logger(__name__)


def config_from_fields(fields: Optional[Dict[str, Any]]) -> AnalysisConfig:
    """Rebuild an :class:`AnalysisConfig` from a queue-record payload.

    The payload holds only result-affecting fields (execution knobs are
    the worker's business), so filling the rest from defaults preserves
    ``full_key()`` — the rebuilt config keys the same artifact the
    submitter asked for.
    """
    return AnalysisConfig(**dict(fields or {}))


def file_digest(path: PathLike) -> str:
    """SHA-256 of a file's bytes — the bit-identity witness for artifacts."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Worker:
    """One queue-draining process."""

    def __init__(
        self,
        root: PathLike,
        name: Optional[str] = None,
        *,
        poll_interval: float = 0.5,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    ) -> None:
        self.root = Path(root)
        self.queue = JobQueue(self.root)
        self.name = name or f"w{os.getpid()}"
        self.poll_interval = poll_interval
        self.lease_timeout = lease_timeout

    # -- one job ----------------------------------------------------------

    def _benchmarks(self, suites):
        from ..suites import all_benchmarks

        if not suites:
            return all_benchmarks()
        benches = []
        for name in suites:
            benches.extend(get_suite(name).benchmarks)
        return benches

    def _result_doc(self, output: Path, result=None, *, cached: bool) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "artifact": str(output),
            "sha256": file_digest(output),
            "cached": cached,
        }
        if result is not None:
            doc.update(
                n_intervals=len(result.dataset),
                n_components=int(result.n_components),
                explained_variance=float(result.explained_variance),
                k=int(result.clustering.k),
                n_prominent=len(result.prominent),
            )
        return doc

    def process(self, view: JobView) -> bool:
        """Execute one claimed job; returns True on success."""
        job_id, attempt = view.job_id, view.attempt
        output = artifact_path(self.root, job_id)
        if output.exists():
            # The artifact already exists (a done job revived into the
            # queue by a log rebuild, or a prior attempt that died
            # between save and complete): cache hit, no build.
            obs.metrics().counter_add("service.cache_hits", 1)
            log.info("job %s: artifact already built, cache hit", job_id)
            self.queue.complete(job_id, self.name, self._result_doc(output, cached=True))
            return True

        payload = view.payload or {}
        suites = payload.get("suites")
        try:
            config = config_from_fields(payload.get("config"))
            benches = self._benchmarks(suites)
        except Exception as exc:  # noqa: BLE001 - a bad payload fails the job
            log.exception("job %s carries an unusable payload", job_id)
            self.queue.fail(job_id, self.name, f"{type(exc).__name__}: {exc}")
            return False
        # The event log's run.start is this attempt's build-ledger
        # entry, and it lands *before* the pipeline runs: a worker
        # SIGKILL'd mid-build has still consumed its attempt, so
        # "exactly one build" in the dedup tests means one *successful*
        # pipeline execution plus any killed prefixes the test injected.
        try:
            with obs.recorded_run(
                f"{job_id}.a{attempt}",
                command="service.characterize",
                config=config,
                events=events_path(self.root, job_id, attempt),
                job=job_id,
                attempt=attempt,
                worker=self.name,
                benchmarks=len(benches),
            ) as run:
                with run.observing() as observation:
                    result = characterize_to_file(
                        benches,
                        config,
                        output,
                        suite_tag=suite_tag(suites),
                        resume=True,
                        select_key=True,
                        span_attrs={"job": job_id, "attempt": attempt},
                    )
                report = obs.build_report(observation)
                obs.write_report(job_dir(self.root, job_id) / "report.json", report)
                self.queue.complete(
                    job_id, self.name, self._result_doc(output, result, cached=False)
                )
            return True
        except Exception as exc:  # noqa: BLE001 - a failed job must not kill the worker
            log.exception("job %s attempt %d failed", job_id, attempt)
            self.queue.fail(job_id, self.name, f"{type(exc).__name__}: {exc}")
            return False

    # -- the loop ---------------------------------------------------------

    def run_once(self) -> bool:
        """Claim and process at most one job; returns whether one existed."""
        view = self.queue.claim(self.name, lease_timeout=self.lease_timeout)
        if view is None:
            return False
        self.process(view)
        return True

    def run(self, *, once: bool = False, max_jobs: Optional[int] = None) -> int:
        """Drain the queue; returns the number of jobs processed.

        With ``once`` the worker exits when the queue has no runnable
        job; otherwise it polls forever (until killed).
        """
        processed = 0
        while True:
            if self.run_once():
                processed += 1
                if max_jobs is not None and processed >= max_jobs:
                    return processed
                continue
            if once:
                return processed
            time.sleep(self.poll_interval)


def run_worker(
    root: PathLike,
    *,
    name: Optional[str] = None,
    once: bool = False,
    poll_interval: float = 0.5,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
) -> int:
    """``repro work`` entry point; returns a process exit code."""
    worker = Worker(
        root, name, poll_interval=poll_interval, lease_timeout=lease_timeout
    )
    log.info("worker %s draining %s", worker.name, worker.root)
    try:
        worker.run(once=once)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0
