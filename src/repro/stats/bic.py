"""Bayesian Information Criterion scoring for k-means clusterings.

The paper runs k-means from several random initializations and keeps
the clustering with the highest BIC score — "a measure that trades off
goodness of fit ... versus the number of clusters".  We use the
identical-spherical-Gaussian BIC of Pelleg & Moore (X-means, ICML 2000).
"""

from __future__ import annotations

import math

import numpy as np


def bic_from_stats(n: int, d: int, sse: float, counts: np.ndarray) -> float:
    """BIC (higher is better) of ``n`` points in ``d`` dimensions from
    their total squared distance to their centers, ``sse``, and the
    per-cluster ``counts``; ``-inf`` when ``n <= k``.

    Needs no points, so a frozen-center scoring pass over a stream
    (:class:`~repro.stats.FrozenScorer`) scores with the formula
    :func:`kmeans_bic` returns.
    """
    k = len(counts)
    if n <= k:
        return float("-inf")
    # Pooled maximum-likelihood variance of the spherical model.
    sigma2 = sse / (d * (n - k))
    if sigma2 <= 0:
        sigma2 = 1e-12
    nonzero = counts[counts > 0].astype(np.float64)
    log_likelihood = (
        float(np.sum(nonzero * np.log(nonzero)))
        - n * math.log(n)
        - n * d / 2.0 * math.log(2.0 * math.pi * sigma2)
        - (n - k) * d / 2.0
    )
    n_params = (k - 1) + k * d + 1
    return log_likelihood - n_params / 2.0 * math.log(n)


def kmeans_bic(
    points: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
    *,
    assigned_sq: np.ndarray | None = None,
) -> float:
    """BIC of a k-means clustering (higher is better).

    Args:
        points: ``(n, d)`` data.
        labels: cluster index per point.
        centers: ``(k, d)`` cluster centers.
        assigned_sq: optional per-point squared distance to the assigned
            center, as produced by the k-means epilogue; when given, the
            SSE is its sum and the ``(n, d)`` residual matrix is never
            materialized.

    Returns:
        :func:`bic_from_stats` of the clustering's SSE and cluster
        sizes.
    """
    n, d = points.shape
    if assigned_sq is not None:
        sse = float(assigned_sq.sum())
    else:
        diffs = points - centers[labels]
        sse = float(np.sum(diffs**2))
    return bic_from_stats(n, d, sse, np.bincount(labels, minlength=len(centers)))
