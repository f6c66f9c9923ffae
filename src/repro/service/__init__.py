"""Characterization-as-a-service: job queue, sharded workers, HTTP API.

The composition layer over everything the substrate PRs built:

* :mod:`repro.service.queue` — a persistent on-disk job queue
  (append-only checksummed records, states queued → running →
  done/failed, priority + monotonic seq, single-flight dedup of
  identical submissions via ``AnalysisConfig.full_key()``).
* :mod:`repro.service.worker` — N sharded worker processes drain the
  queue by running the characterize pipeline with ``--resume``
  semantics; a SIGKILL'd worker's job is reclaimed by another worker
  and resumed from its feature blocks and stage checkpoints,
  bit-identically.
* :mod:`repro.service.api` / :mod:`repro.service.server` — a
  stdlib-only HTTP/JSON front end (``repro serve``): submit jobs, poll
  status/progress (backed by the telemetry event log), stream the
  JSONL events, fetch the finished artifact and run report.
* :mod:`repro.service.client` — a stdlib urllib client used by tests,
  the CI smoke job, and scripts.

Protocol details, the queue record schema, and deployment knobs live
in docs/service.md.
"""

from .api import MAX_BODY_BYTES, ApiResponse, ServiceAPI
from .client import ServiceClient, ServiceError
from .queue import (
    JobQueue,
    JobView,
    artifact_path,
    events_path,
    job_dir,
    job_id_for,
)
from .server import make_server, serve
from .worker import Worker, run_worker

__all__ = [
    "ApiResponse",
    "JobQueue",
    "JobView",
    "MAX_BODY_BYTES",
    "ServiceAPI",
    "ServiceClient",
    "ServiceError",
    "Worker",
    "artifact_path",
    "events_path",
    "job_dir",
    "job_id_for",
    "make_server",
    "run_worker",
    "serve",
]
