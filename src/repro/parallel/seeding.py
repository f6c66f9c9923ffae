"""Per-task deterministic RNG streams for parallel fan-out.

Every parallel task derives its randomness from a stable ``(stream,
root, index)`` key instead of drawing sequentially from one shared
generator.  Two guarantees follow:

* **worker-count independence** — task *i* sees the same stream whether
  the fan-out runs on 1 worker or 16, so parallel results are
  bit-identical to serial ones;
* **prefix stability** — growing a fan-out from *n* to *m > n* tasks
  leaves the first *n* streams unchanged, so e.g. k-means with 10
  restarts reproduces the first 5 restarts of a 5-restart run exactly.

Seeds are plain integers, so they cross process boundaries without any
generator state being pickled.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..synth.rng import derive_seed


def task_seed(stream: str, root: int, index: int) -> int:
    """The 63-bit seed of task ``index`` in a named fan-out stream."""
    return derive_seed("parallel", stream, root, index)


def task_seeds(stream: str, root: int, n_tasks: int) -> List[int]:
    """Seeds for ``n_tasks`` independent tasks (prefix-stable in ``n_tasks``)."""
    if n_tasks < 0:
        raise ValueError("n_tasks must be >= 0")
    return [task_seed(stream, root, i) for i in range(n_tasks)]


def generator_from_seed(seed: int) -> np.random.Generator:
    """Rebuild a task generator from a seed produced by :func:`task_seed`."""
    return np.random.Generator(np.random.PCG64(seed))
