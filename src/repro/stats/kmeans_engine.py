"""Exact triangle-inequality accelerated k-means engine.

The analysis stage clusters ~77k sampled intervals into k = 300
clusters, restarted several times — naive Lloyd recomputes a full
``(n, k)`` distance matrix every iteration.  This module implements a
Hamerly-style accelerated Lloyd that maintains, per point, an *upper
bound* on the distance to its assigned center and a *lower bound* on
the distance to every other center.  When the bounds certify that the
assignment cannot have changed, the point's distance row is skipped
entirely; in steady state most iterations touch only a small fraction
of the points.  Distances that *are* needed are computed in
cache-sized chunks, bounding peak memory to ``O(chunk x k)`` instead
of ``O(n x k)``.

**Bit-identity contract.**  The engine produces labels, centers,
inertia and BIC that are bit-identical to the reference Lloyd path
(:func:`repro.stats.kmeans._lloyd`) for any seed.  Floating-point
equality across two genuinely different evaluation orders is
impossible (BLAS GEMM results depend on operand shapes, and NumPy's
``mean`` switches between pairwise and sequential summation with the
array layout), so identity is engineered the same way the PR 2 meter
kernels did it — by sharing every kernel whose *values* feed a
decision:

* :func:`assign_points` — the chunked distance/argmin pass.  The
  reference runs it over all points every iteration; the engine runs
  it over all points only when bounds are unavailable (first
  iteration, or an iteration that must reseed empty clusters) and over
  the uncertified subset otherwise.  Argmin ties break toward the
  lowest center index in both paths because both use ``np.argmin`` on
  rows produced by one call.
* :func:`group_means` — the vectorized (bincount-per-column) center
  update.  Sequential per-cluster accumulation in row order, exactly
  the summation order both paths observe.
* :func:`reseed_empty_clusters` / :func:`farthest_rows` — empty
  clusters are re-seeded from the points farthest from their centers,
  selected with ``np.argpartition`` in ``O(n + e log e)`` instead of a
  full ``O(n log n)`` argsort.  Ties are broken deterministically
  (equal distances prefer the higher row index — descending stable
  argsort order, shared by both paths).
* :func:`assigned_sq_distances` — the convergence epilogue that yields
  per-point squared distances, inertia and the BIC's SSE from one
  computation.

Certification is *conservative*: a point skips recomputation only when
``upper < bound - slack`` with a slack chosen far above the worst-case
floating-point drift of the bound maintenance, so every near-tie is
re-evaluated with the shared exact kernel.  Skipping can therefore
only remove redundant work, never change a decision.

:func:`repro.stats.kmeans` picks the engine by clustering shape alone
(:func:`use_accelerated`): below :data:`AUTO_CROSSOVER_ENTRIES`
``n x k`` distance entries the bound bookkeeping outweighs the rows it
skips and reference Lloyd is used; at or above it the accelerated
engine wins.  Both paths are bit-identical, so the choice participates
in no cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .distance import distances_to

#: Target number of float64 distance entries held per chunk (~16 MB).
_CHUNK_ENTRIES = 1 << 21

#: Max number of "big mover" centers whose exact distance columns cap
#: the lower bound instead of participating in the global drift decay.
_BIG_MOVERS = 8

#: Engine crossover, in distance-matrix entries (``n x k``) per Lloyd
#: iteration.  Below it the bound bookkeeping (per-point upper/lower
#: bounds, drift decay, uncertified gathers) costs more than the
#: distance rows it skips, so plain Lloyd wins; above it the skipped
#: rows dominate.  Measured on the interleaved A/B harness in
#: ``benchmarks/bench_kmeans_throughput.py``: 0.69x at 308 x 8,
#: 0.89x at 1k x 20, 1.43x at 2k x 40, 3.0x at 7.7k x 120 and 1.8-4x
#: at the paper's 77k x 300.  The engines are bit-identical, so the
#: threshold participates in no cache key.
AUTO_CROSSOVER_ENTRIES = 40_000


def use_accelerated(n: int, k: int) -> bool:
    """True when an ``n x k`` clustering should take the accelerated engine.

    Below :data:`AUTO_CROSSOVER_ENTRIES` distance entries the bounds
    cannot amortize their bookkeeping and reference Lloyd is faster.
    """
    return n * k >= AUTO_CROSSOVER_ENTRIES


@dataclass
class EngineStats:
    """Distance-evaluation accounting for one or more engine runs.

    ``point_rows_total`` counts the point-iterations a naive Lloyd
    would evaluate (one full k-wide distance row each);
    ``point_rows_computed`` counts the rows the engine actually
    computed.  ``tighten_evals`` are single point-to-center distance
    refinements (one evaluation, not k).  ``full_refreshes`` counts
    iterations where bounds existed but the engine re-evaluated every
    point anyway — the adaptive refresh when most points are
    uncertified, plus the exact re-ranking a reseed forces — a rising
    count flags a workload the bounds are not earning their keep on.
    """

    iterations: int = 0
    point_rows_total: int = 0
    point_rows_computed: int = 0
    tighten_evals: int = 0
    full_refreshes: int = 0
    runs: int = 0

    @property
    def skipped_ratio(self) -> float:
        """Fraction of full distance rows the bounds eliminated."""
        if self.point_rows_total == 0:
            return 0.0
        return 1.0 - self.point_rows_computed / self.point_rows_total

    @property
    def distance_evals_computed(self) -> int:
        """Point-center distance evaluations actually performed."""
        return self.point_rows_computed + self.tighten_evals


def chunk_rows(k: int) -> int:
    """Rows per assignment chunk so one block is ~``_CHUNK_ENTRIES``."""
    return max(1, _CHUNK_ENTRIES // max(1, k))


def assign_points(
    points: np.ndarray, centers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunked nearest-center assignment.

    Returns ``(labels, assigned, second)`` where ``assigned`` is each
    point's distance to its nearest center (argmin ties toward the
    lowest center index) and ``second`` the distance to the
    second-nearest (``+inf`` when there is only one center).  Both
    paths of the k-means dispatch call this function, so the values —
    and therefore every decision derived from them — are common.
    """
    n = len(points)
    k = len(centers)
    chunk = chunk_rows(k)
    labels = np.empty(n, dtype=np.int64)
    assigned = np.empty(n, dtype=np.float64)
    second = np.empty(n, dtype=np.float64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = distances_to(points[start:stop], centers)
        rows = np.arange(stop - start)
        block_labels = np.argmin(block, axis=1)
        labels[start:stop] = block_labels
        assigned[start:stop] = block[rows, block_labels]
        if k >= 2:
            # Second-nearest via masked min: blank the winning slot and
            # take the row minimum.  Returns the same *element* a
            # partial sort would (no arithmetic), one pass instead of
            # an O(k) partition per row.
            block[rows, block_labels] = np.inf
            second[start:stop] = block.min(axis=1)
        else:
            second[start:stop] = np.inf
    return labels, assigned, second


def group_means(
    points: np.ndarray, labels: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Per-cluster means in one vectorized pass.

    Clusters with no members keep their previous center (the reference
    Lloyd semantics).  Accumulation is ``np.bincount`` per feature
    column — sequential adds in row order, the summation order both
    paths share.
    """
    k, d = centers.shape
    counts = np.bincount(labels, minlength=k)
    sums = np.empty((k, d), dtype=np.float64)
    for j in range(d):
        sums[:, j] = np.bincount(labels, weights=points[:, j], minlength=k)
    denom = np.where(counts > 0, counts, 1)
    means = sums / denom[:, None]
    return np.where(counts[:, None] > 0, means, centers)


def farthest_rows(assigned: np.ndarray, m: int) -> np.ndarray:
    """Indices of the ``m`` largest values of ``assigned``, descending.

    ``O(n + m log m)`` via ``np.argpartition`` instead of the full
    ``O(n log n)`` argsort the original reseeding used.  Ties are
    broken toward the *higher* row index — exactly the order of a
    descending *stable* argsort, test-pinned in
    ``tests/stats/test_kmeans_engine.py``.  (The original unstable
    argsort left the tie order arbitrary; both Lloyd paths now share
    this well-defined one.)
    """
    n = len(assigned)
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    if m >= n:
        chosen = np.arange(n, dtype=np.int64)
    else:
        part = np.argpartition(assigned, n - m)[n - m:]
        cutoff = assigned[part].min()
        strict = np.flatnonzero(assigned > cutoff)
        ties = np.flatnonzero(assigned == cutoff)
        need = m - len(strict)
        chosen = np.concatenate([strict, ties[len(ties) - need:]])
    # Descending value; equal values prefer the higher index.
    order = np.lexsort((-chosen, -assigned[chosen]))
    return chosen[order].astype(np.int64)


def reseed_empty_clusters(
    points: np.ndarray,
    centers: np.ndarray,
    labels: np.ndarray,
    assigned: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Re-seed empty clusters with the points farthest from their centers.

    Mutates ``centers`` and ``labels`` in place; returns the rows that
    were re-seeded (aligned with the empty-cluster ids in ascending
    order), empty when no cluster was empty.  ``k`` stays ``k``.
    """
    empties = np.flatnonzero(counts == 0)
    if not len(empties):
        return np.empty(0, dtype=np.int64)
    rows = farthest_rows(assigned, len(empties))
    for cluster, idx in zip(empties, rows):
        centers[cluster] = points[idx]
        labels[idx] = cluster
    return rows


def assigned_sq_distances(
    points: np.ndarray, centers: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-point squared distance to the assigned center.

    The shared epilogue: its sum is the clustering inertia and the
    BIC's SSE, and its per-point values drive representative
    selection — one computation, reused everywhere.
    """
    diffs = points - centers[labels]
    return np.sum(diffs**2, axis=1)


def lloyd_accelerated(
    points: np.ndarray,
    init_centers: np.ndarray,
    max_iter: int,
    *,
    stats: Optional[EngineStats] = None,
) -> Tuple[np.ndarray, np.ndarray, float, int, np.ndarray]:
    """Lloyd's algorithm with Hamerly-style triangle-inequality bounds.

    Returns ``(centers, labels, inertia, n_iter, assigned_sq)``,
    bit-identical to :func:`repro.stats.kmeans._lloyd` for the same
    inputs.  ``stats``, when given, accumulates distance-evaluation
    accounting across calls (restarts).

    Bound maintenance: after the centers move, each point's upper
    bound grows by its center's drift and the global lower bound
    shrinks by the maximum drift (triangle inequality).  A point whose
    upper bound stays below ``max(lower, s/2) - slack`` — where ``s``
    is the distance from its center to the nearest other center —
    cannot change assignment; everything else is tightened against its
    own center and, if still uncertified, re-evaluated with the shared
    chunked pass.  The slack absorbs the floating-point error of the
    bound arithmetic so certification never out-runs what an exact
    re-evaluation would decide.
    """
    n = len(points)
    centers = init_centers.astype(np.float64, copy=True)
    k = len(centers)
    # Conservative certification slack: far above the worst-case fp
    # error of the expanded-norm distance (~sqrt(eps) * scale under
    # cancellation) plus accumulated drift rounding, far below any
    # meaningful inter-point distance.
    p_sq = np.einsum("ij,ij->i", points, points)
    scale = float(np.sqrt(max(float(p_sq.max(initial=0.0)), 1.0)))
    slack = 1e-6 * scale

    labels = np.zeros(n, dtype=np.int64)
    upper = np.empty(n, dtype=np.float64)
    lower = np.empty(n, dtype=np.float64)
    have_bounds = False
    if stats is not None:
        stats.runs += 1

    for iteration in range(1, max_iter + 1):
        if stats is not None:
            stats.iterations += 1
            stats.point_rows_total += n
        snapshot = centers.copy()  # positions the bounds refer to
        full_pass = False
        if not have_bounds:
            new_labels, upper, lower = assign_points(points, centers)
            have_bounds = True
            full_pass = True
            if stats is not None:
                stats.point_rows_computed += n
        else:
            if k >= 2:
                cc = distances_to(centers, centers)
                np.fill_diagonal(cc, np.inf)
                s_half = 0.5 * cc.min(axis=1)
            else:
                s_half = np.full(k, np.inf)
            bound = np.maximum(lower, s_half[labels])
            candidates = np.flatnonzero(upper >= bound - slack)
            if len(candidates) * 3 >= n * 2:
                # Adaptive refresh: when two thirds of the points are
                # uncertified anyway (early iterations, post-reseed
                # turbulence), the tighten-then-subset dance costs more
                # than one full shared pass — and the full pass leaves
                # exact bounds for *every* point, which also lets a
                # reseed on this iteration reuse the assignment as-is.
                new_labels, upper, lower = assign_points(points, centers)
                full_pass = True
                if stats is not None:
                    stats.point_rows_computed += n
                    stats.full_refreshes += 1
            else:
                new_labels = labels.copy()
            if not full_pass and len(candidates):
                # Tighten: exact distance to the currently assigned
                # center only (one evaluation, not k).
                own = centers[new_labels[candidates]]
                d2 = (
                    p_sq[candidates]
                    + np.einsum("ij,ij->i", own, own)
                    - 2.0 * np.einsum("ij,ij->i", points[candidates], own)
                )
                upper[candidates] = np.sqrt(np.clip(d2, 0.0, None))
                if stats is not None:
                    stats.tighten_evals += len(candidates)
                still = candidates[
                    upper[candidates] >= bound[candidates] - slack
                ]
                if len(still):
                    sub_labels, sub_assigned, sub_second = assign_points(
                        points[still], centers
                    )
                    new_labels[still] = sub_labels
                    upper[still] = sub_assigned
                    lower[still] = sub_second
                    if stats is not None:
                        stats.point_rows_computed += len(still)

        counts = np.bincount(new_labels, minlength=k)
        reseeded = False
        if (counts == 0).any():
            if not full_pass:
                # Reseeding ranks *exact* assigned distances across all
                # points; certified points only have (stale) upper
                # bounds.  Re-evaluate everything with the shared pass
                # so the ranking uses the same values the reference
                # sees.  Empty clusters on a bounds-subset iteration
                # are rare, so this stays off the steady-state path.
                new_labels, upper, lower = assign_points(points, centers)
                counts = np.bincount(new_labels, minlength=k)
                if stats is not None:
                    stats.point_rows_computed += n
                    stats.full_refreshes += 1
            rows = reseed_empty_clusters(
                points, centers, new_labels, upper, counts
            )
            if len(rows):
                reseeded = True
                # The re-seeded center now *is* the point: distance 0
                # exactly.  The old second-closest bound is void.
                upper[rows] = 0.0
                lower[rows] = 0.0

        if iteration > 1 and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        centers = group_means(points, labels, centers)
        if not reseeded and np.array_equal(centers, snapshot):
            # Zero drift: the next pass would reproduce these labels
            # exactly, so stop here (mirrored in the reference path).
            break
        # Triangle-inequality bound maintenance.  Drift covers the
        # total movement since assignment (reseed displacement
        # included, because ``snapshot`` predates the reseed).
        moved = centers - snapshot
        drift = np.sqrt(np.einsum("ij,ij->i", moved, moved))
        upper += drift[labels]
        # The lower bound decays by the largest drift of any center —
        # but a handful of far movers (reseed teleports, small
        # oscillating clusters) would void every point's bound.  Pull
        # those few out of the decay and cap the bound with their
        # exact distance columns instead (an n x |movers| pass, tiny
        # next to the full rows it saves).
        movers = np.empty(0, dtype=np.int64)
        if k > _BIG_MOVERS + 1:
            part = np.argpartition(drift, k - _BIG_MOVERS - 1)
            rest_max = drift[part[: k - _BIG_MOVERS]].max()
            top = part[k - _BIG_MOVERS:]
            movers = top[drift[top] > max(2.0 * rest_max, 4.0 * slack)]
        if len(movers):
            keep = drift.copy()
            keep[movers] = 0.0
            lower -= keep.max()
            exact = distances_to(points, centers[movers]).min(axis=1)
            np.minimum(lower, exact, out=lower)
            if stats is not None:
                stats.tighten_evals += n * len(movers)
        else:
            lower -= drift.max()

    assigned_sq = assigned_sq_distances(points, centers, labels)
    inertia = float(assigned_sq.sum())
    return centers, labels, inertia, iteration, assigned_sq
