"""Prominent-phase selection (methodology step 4, second half).

Clustering with k larger than the number of phases ultimately reported
trades coverage for per-cluster variability (paper section 2.6): the
top-weight clusters are kept as *prominent phases*, each represented by
the interval closest to its center, weighted by the fraction of the
data set it represents.  :func:`rank_prominent` is the selection both
engines run; this module also maps an analysis result to and from its
artifact record (:func:`analysis_to_artifact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as np

from ..stats import Clustering


@dataclass(frozen=True)
class ProminentPhases:
    """The selected prominent phases.

    Attributes:
        cluster_ids: the selected cluster indices, heaviest first.
        weights: fraction of the data set each selected cluster holds.
        representative_rows: dataset row index of each phase
            representative (the interval closest to the cluster center).
        coverage: total weight of the selection — the paper's "87.8%".
    """

    cluster_ids: np.ndarray
    weights: np.ndarray
    representative_rows: np.ndarray

    @property
    def coverage(self) -> float:
        return float(self.weights.sum())

    def __len__(self) -> int:
        return len(self.cluster_ids)


def rank_prominent(
    sizes: np.ndarray,
    n_rows: int,
    representatives: np.ndarray,
    n_prominent: int,
) -> ProminentPhases:
    """The ``n_prominent`` heaviest clusters (clipped to the non-empty
    ones), heaviest first, from per-cluster ``sizes``, the data set's
    ``n_rows`` and each cluster's representative row."""
    if n_prominent < 1:
        raise ValueError("n_prominent must be >= 1")
    n_prominent = min(n_prominent, int(np.count_nonzero(sizes)))
    chosen = np.argsort(sizes)[::-1][:n_prominent]
    return ProminentPhases(
        cluster_ids=chosen.astype(np.int64),
        weights=(sizes[chosen] / n_rows).astype(np.float64),
        representative_rows=representatives[chosen],
    )


def select_prominent_phases(
    points: np.ndarray, clustering: Clustering, n_prominent: int
) -> ProminentPhases:
    """Pick the ``n_prominent`` heaviest clusters and their representatives.

    Args:
        points: the clustered data (rescaled PCA space), one row per
            sampled interval.
        clustering: a fitted clustering of ``points``.
        n_prominent: phases to keep; clipped to the number of non-empty
            clusters.

    Returns:
        The prominent-phase selection, heaviest cluster first.
    """
    # Representative: the member interval closest to the cluster center,
    # from the fit's assigned distances (no per-cluster distance pass).
    return rank_prominent(
        clustering.cluster_sizes(),
        len(points),
        clustering.representatives(points),
        n_prominent,
    )


#: Array and meta names of an analysis result's artifact record: one
#: layout for the analysis stage checkpoint, the characterization
#: artifact and the streaming artifact.
ANALYSIS_ARRAYS = (
    "labels",
    "centers",
    "prominent_cluster_ids",
    "prominent_weights",
    "prominent_representatives",
)
ANALYSIS_META = ("n_components", "explained_variance", "bic", "inertia", "n_iter")


def analysis_to_artifact(
    n_components: int,
    explained_variance: float,
    clustering: Clustering,
    prominent: ProminentPhases,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """The ``(arrays, meta)`` record of an analysis result."""
    arrays = (
        clustering.labels,
        clustering.centers,
        prominent.cluster_ids,
        prominent.weights,
        prominent.representative_rows,
    )
    meta = (
        n_components,
        explained_variance,
        clustering.bic,
        clustering.inertia,
        clustering.n_iter,
    )
    return dict(zip(ANALYSIS_ARRAYS, arrays)), dict(zip(ANALYSIS_META, meta))


def analysis_from_artifact(
    arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
) -> Tuple[int, float, Clustering, ProminentPhases]:
    """``(n_components, explained_variance, clustering, prominent)`` back
    from :func:`analysis_to_artifact`'s record; ``KeyError``,
    ``ValueError`` or ``TypeError`` when it is malformed."""
    clustering = Clustering(
        centers=arrays["centers"],
        labels=arrays["labels"],
        bic=float(meta["bic"]),
        inertia=float(meta["inertia"]),
        n_iter=int(meta["n_iter"]),
    )
    prominent = ProminentPhases(
        cluster_ids=arrays["prominent_cluster_ids"],
        weights=arrays["prominent_weights"],
        representative_rows=arrays["prominent_representatives"],
    )
    n_components, explained = int(meta["n_components"]), float(meta["explained_variance"])
    return n_components, explained, clustering, prominent
