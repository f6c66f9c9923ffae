"""K-means clustering with BIC-scored random restarts.

Implements the paper's clustering step: Lloyd's algorithm from randomly
chosen initial centers, iterated to convergence, repeated from several
initializations, keeping the clustering with the highest BIC score.

Each restart draws its initial centers from an independent seed stream
derived once from the caller's generator (see
:mod:`repro.parallel.seeding`), so restart *i* is the same clustering
run whether there are 2 restarts or 50, serial or fanned out across a
worker pool.  The best-BIC reduction breaks ties toward the lowest
restart index, which keeps the winner deterministic too.

The inner loop is :func:`repro.stats.kmeans_engine.lloyd_accelerated`:
Lloyd iterations in which triangle-inequality bounds certify most
assignments without computing any distances.  Its fits are
bit-identical to a plain full-distance Lloyd for any seed (pinned
against the tests' reference in ``tests/stats/oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..obs import active as obs_active
from ..obs import emit_progress, metrics, span
from ..parallel import Executor, generator_from_seed, get_executor, task_seeds
from .bic import kmeans_bic
from .distance import distances_to
from .kmeans_engine import EngineStats, assigned_sq_distances, lloyd_accelerated


@dataclass(frozen=True)
class Clustering:
    """A fitted clustering.

    Attributes:
        centers: ``(k, d)`` cluster centers.
        labels: cluster index per input row.
        bic: the clustering's BIC score.
        inertia: total within-cluster sum of squared distances.
        n_iter: Lloyd iterations to convergence in the winning restart.
        assigned_sq: per-point squared distance to the assigned center,
            as computed by the winning restart's final pass; ``None``
            for clusterings loaded from disk (recomputed on demand).
    """

    centers: np.ndarray
    labels: np.ndarray
    bic: float
    inertia: float
    n_iter: int
    assigned_sq: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def k(self) -> int:
        return len(self.centers)

    def cluster_sizes(self) -> np.ndarray:
        """Number of points per cluster."""
        return np.bincount(self.labels, minlength=self.k)

    def representatives(self, points: np.ndarray) -> np.ndarray:
        """Index of the member closest to each center (the paper's
        cluster representative).

        Reuses the fit's per-point assigned distances — ``O(n log n)``
        overall — instead of recomputing a full ``(n, k)`` distance
        matrix.  Ties break toward the lowest row index.  A cluster
        with no members falls back to the globally nearest point.
        """
        assigned_sq = self.assigned_sq
        if assigned_sq is None or len(assigned_sq) != len(points):
            assigned_sq = assigned_sq_distances(points, self.centers, self.labels)
        k = self.k
        order = np.lexsort((np.arange(len(points)), assigned_sq, self.labels))
        sorted_labels = self.labels[order]
        starts = np.searchsorted(sorted_labels, np.arange(k), side="left")
        present = self.cluster_sizes() > 0
        reps = np.empty(k, dtype=np.int64)
        reps[present] = order[starts[present]]
        if not present.all():
            d = distances_to(points, self.centers[~present])
            reps[~present] = np.argmin(d, axis=0)
        return reps


def restart_init_rows(
    rng: np.random.Generator, n: int, k: int, restarts: int
) -> List[np.ndarray]:
    """Every restart's initial-center rows, for :func:`kmeans` and the
    streaming engine alike: one integer from ``rng`` roots the
    ``"km-restart"`` seed streams, and restart *i* draws
    ``choice(n, k, replace=False)`` from its own."""
    root = int(rng.integers(2**63))
    return [
        generator_from_seed(seed).choice(n, size=k, replace=False)
        for seed in task_seeds("km-restart", root, restarts)
    ]


def _run_restart(payload, init_idx: np.ndarray):
    """One independent restart (executor task body): Lloyd, BIC.

    When an observation is active, the restart runs under a
    ``kmeans.restart`` span and the accelerated engine's
    distance-evaluation accounting (rows skipped, full refreshes) is
    folded into the metrics registry.  Collection only reads values
    the fit computed anyway, so results are bit-identical either way.
    """
    points, max_iter = payload
    stats = EngineStats() if obs_active() else None
    with span("kmeans.restart") as sp:
        fit = lloyd_accelerated(points, points[init_idx], max_iter, stats=stats)
        centers, labels, inertia, n_iter, assigned_sq = fit
        bic = kmeans_bic(points, labels, centers, assigned_sq=assigned_sq)
        sp.set(bic=bic, inertia=inertia, n_iter=n_iter)
    reg = metrics()
    reg.counter_add("kmeans.restarts", 1)
    reg.counter_add("kmeans.iterations", n_iter)
    if stats is not None:
        reg.counter_add("kmeans.point_rows_total", stats.point_rows_total)
        reg.counter_add("kmeans.point_rows_computed", stats.point_rows_computed)
        reg.counter_add("kmeans.tighten_evals", stats.tighten_evals)
        reg.counter_add("kmeans.full_refreshes", stats.full_refreshes)
    return centers, labels, inertia, n_iter, bic, assigned_sq


def kmeans(
    points: np.ndarray,
    k: int,
    *,
    restarts: int = 5,
    max_iter: int = 50,
    rng: np.random.Generator,
    n_jobs: int = 1,
    backend: str = "auto",
    executor: Optional[Executor] = None,
) -> Clustering:
    """Cluster ``points`` into ``k`` clusters, keeping the best-BIC run.

    Args:
        points: ``(n, d)`` data (typically the rescaled PCA space).
        k: number of clusters; clipped to ``n`` if larger.
        restarts: independent random initializations.
        max_iter: Lloyd iteration cap per restart.
        rng: randomness root; one integer is drawn from it to derive the
            per-restart seed streams.
        n_jobs: workers to fan the restarts across (1 = serial).
        backend: executor backend for the fan-out.
        executor: override the executor built from ``backend``/``n_jobs``.

    Returns:
        The :class:`Clustering` with the highest BIC score (ties broken
        toward the lowest restart index).
    """
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("expected a non-empty 2-D matrix")
    if k < 1:
        raise ValueError("k must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    k = min(k, len(points))
    init_rows = restart_init_rows(rng, len(points), k, restarts)
    if executor is None:
        executor = get_executor(backend, n_jobs)
    runs = executor.map(
        _run_restart,
        init_rows,
        payload=(points, max_iter),
        labels=[f"restart {i}" for i in range(restarts)],
        on_result=lambda i, _res: emit_progress("kmeans", i + 1, restarts),
    )
    best: Optional[Clustering] = None
    for centers, labels, inertia, n_iter, bic, assigned_sq in runs:
        if best is None or bic > best.bic:
            best = Clustering(
                centers=centers,
                labels=labels,
                bic=bic,
                inertia=inertia,
                n_iter=n_iter,
                assigned_sq=assigned_sq,
            )
    assert best is not None  # restarts >= 1 guarantees at least one run
    reg = metrics()
    total = reg.counter_value("kmeans.point_rows_total")
    if total > 0:
        # Cumulative across every restart merged into this registry so
        # far: the fraction of full distance rows the triangle-
        # inequality bounds eliminated.
        computed = reg.counter_value("kmeans.point_rows_computed")
        reg.gauge_set("kmeans.skipped_row_ratio", 1.0 - computed / total)
    reg.gauge_set("kmeans.best_bic", best.bic)
    return best

