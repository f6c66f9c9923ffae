"""Parallel execution layer for the characterization pipeline.

Provides the executor (ordered fan-out, in-process at one job and
through a fork pool otherwise, with labeled error propagation) and
per-task seed streams.  ``build_dataset`` and ``kmeans`` fan out
through this layer; results are bit-identical to the serial path for a
fixed seed, regardless of worker count.  A payload (a benchmark
registry, the clustering point matrix) reaches workers through the
fork pool's inherited memory: it is never pickled, and pages the
workers only read are never copied.
"""

from .executor import Executor, WorkerError, effective_n_jobs, get_executor
from .prefetch import prefetch_iter
from .seeding import generator_from_seed, task_seed, task_seeds

__all__ = [
    "Executor",
    "WorkerError",
    "effective_n_jobs",
    "generator_from_seed",
    "get_executor",
    "prefetch_iter",
    "task_seed",
    "task_seeds",
]
