"""Euclidean distance computations in the rescaled PCA space."""

from __future__ import annotations

import numpy as np


#: A squared distance from the expanded-norm identity
#: ``|x|² + |y|² - 2x·y`` that falls below this fraction of
#: ``|x|² + |y|²`` has lost about half its digits to cancellation
#: (``2**-26`` is the square root of float64 epsilon).  Two equal rows
#: of norm ~200 would otherwise sit ~4e-6 apart instead of 0.
CANCELLATION_RATIO = 2.0**-26


def _expanded_sq_distances(points: np.ndarray) -> tuple:
    """``(d2, norm_sums)``: the expanded-norm squared distance matrix
    of the rows and the ``|x|² + |y|²`` term of each entry."""
    if points.ndim != 2:
        raise ValueError("expected a 2-D matrix of points")
    sq = np.sum(points**2, axis=1)
    norm_sums = sq[:, None] + sq[None, :]
    return norm_sums - 2.0 * (points @ points.T), norm_sums


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix of the rows.

    Uses the expanded-norm identity, but recomputes the near-duplicate
    pairs it would cancel away (:data:`CANCELLATION_RATIO`) from their
    coordinate differences, so equal rows are exactly 0 apart and the
    diagonal is exactly 0.  Clipping keeps tiny negative round-off from
    producing NaNs.
    """
    d2, norm_sums = _expanded_sq_distances(points)
    rows, cols = np.nonzero(d2 < CANCELLATION_RATIO * norm_sums)
    diff = points[rows] - points[cols]
    d2[rows, cols] = np.add.reduce(diff * diff, axis=1)
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2)


def condensed_distances(points: np.ndarray) -> np.ndarray:
    """Upper-triangular (condensed) pairwise distances of the rows.

    The condensed form is what the GA fitness correlates: it contains
    each pair exactly once.  It is the plain expanded-norm identity,
    without :func:`pairwise_distances`' near-duplicate recomputation:
    the GA's per-mask score reproduces it bit for bit
    (:meth:`repro.ga.DistanceCorrelationFitness._score_space`), and a
    near-duplicate pair's error of ~``sqrt(eps) * |x|`` is noise in a
    correlation over all pairs.
    """
    d2, _ = _expanded_sq_distances(points)
    d2 = d2[np.triu_indices(len(d2), k=1)]
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2)


def distances_to(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distance of every point (row) to every center (row).

    Returns shape ``(n_points, n_centers)``.
    """
    if points.ndim != 2 or centers.ndim != 2:
        raise ValueError("expected 2-D matrices")
    if points.shape[1] != centers.shape[1]:
        raise ValueError("points and centers must share dimensionality")
    p_sq = np.sum(points**2, axis=1)[:, None]
    c_sq = np.sum(centers**2, axis=1)[None, :]
    d2 = p_sq + c_sq - 2.0 * (points @ centers.T)
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2)
