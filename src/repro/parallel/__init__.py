"""Parallel execution layer for the characterization pipeline.

Provides the executor abstraction (serial/thread/process backends with
ordered chunked fan-out and labeled error propagation), deterministic
work-splitting, and per-task seed streams.  ``build_dataset`` and
``kmeans`` fan out through this layer; results are bit-identical to the
serial path for a fixed seed, regardless of backend or worker count.
A payload (a benchmark registry, the clustering point matrix) reaches
process workers through the fork pool's inherited memory: it is never
pickled, and pages the workers only read are never copied.
"""

from .chunking import chunk_bounds
from .executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerError,
    effective_n_jobs,
    fork_available,
    get_executor,
)
from .prefetch import prefetch_iter
from .seeding import generator_from_seed, task_seed, task_seeds

__all__ = [
    "BACKENDS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "WorkerError",
    "chunk_bounds",
    "effective_n_jobs",
    "fork_available",
    "generator_from_seed",
    "get_executor",
    "prefetch_iter",
    "task_seed",
    "task_seeds",
]
