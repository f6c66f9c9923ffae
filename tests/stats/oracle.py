"""The reference Lloyd: a full distance pass and argmin every iteration.

Production clusters with one inner loop,
:func:`repro.stats.kmeans_engine.lloyd_accelerated`, whose
triangle-inequality bounds skip the distance rows they can certify.
This module evaluates every row every iteration.  It shares the
engine's value-producing kernels (assignment, center update,
empty-cluster reseeding, epilogue), so the two differ only in *which*
rows they evaluate, and tests compare the engine and
:class:`repro.stats.StreamingLloyd` against :func:`lloyd_reference`
with ``==``.
"""

from __future__ import annotations

import numpy as np

from repro.stats.kmeans_engine import (
    assign_points,
    assigned_sq_distances,
    group_means,
    reseed_empty_clusters,
)


def lloyd_reference(
    points: np.ndarray,
    init_centers: np.ndarray,
    max_iter: int,
    *,
    stats=None,
) -> tuple:
    """Reference Lloyd: full chunked distance pass + argmin per iteration.

    Shares every value-producing kernel with the accelerated engine
    (assignment, center update, empty-cluster reseeding, epilogue), so
    the two paths differ only in *which* distance rows they evaluate —
    the property the engine's bit-identity tests pin.  ``stats`` is
    accepted and ignored, so the oracle can stand in for
    ``lloyd_accelerated`` in :func:`repro.stats.kmeans`.
    """
    centers = init_centers.astype(np.float64, copy=True)
    k = len(centers)
    labels = np.zeros(len(points), dtype=np.int64)
    for iteration in range(1, max_iter + 1):
        new_labels, assigned, _ = assign_points(points, centers)
        # Re-seed empty clusters with the points farthest from their
        # centers, so k stays k.
        counts = np.bincount(new_labels, minlength=k)
        reseeded = False
        if (counts == 0).any():
            rows = reseed_empty_clusters(points, centers, new_labels, assigned, counts)
            reseeded = len(rows) > 0
        if iteration > 1 and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        previous = centers
        centers = group_means(points, labels, centers)
        if not reseeded and np.array_equal(centers, previous):
            # Zero center drift: the next pass would reproduce these
            # labels exactly, so converge now (tol-style early exit).
            break
    assigned_sq = assigned_sq_distances(points, centers, labels)
    inertia = float(assigned_sq.sum())
    return centers, labels, inertia, iteration, assigned_sq
