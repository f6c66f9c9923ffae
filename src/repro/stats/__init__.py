"""Statistics: normalization, PCA, k-means + BIC, distances, correlation."""

from .bic import kmeans_bic
from .correlation import pearson
from .distance import condensed_distances, distances_to, pairwise_distances
from .incremental_pca import IncrementalPCA, StreamingProjector
from .kmeans import Clustering, kmeans
from .kmeans_engine import (
    AUTO_CROSSOVER_ENTRIES,
    EngineStats,
    lloyd_accelerated,
    use_accelerated,
)
from .normalize import Normalizer, normalize
from .pca import GramPCA, PCAModel, fit_pca, rescaled_pca_space
from .streaming_kmeans import FrozenScorer, StreamingLloyd, bic_from_stats

__all__ = [
    "AUTO_CROSSOVER_ENTRIES",
    "Clustering",
    "EngineStats",
    "FrozenScorer",
    "GramPCA",
    "IncrementalPCA",
    "Normalizer",
    "PCAModel",
    "StreamingLloyd",
    "StreamingProjector",
    "bic_from_stats",
    "condensed_distances",
    "distances_to",
    "fit_pca",
    "kmeans",
    "kmeans_bic",
    "lloyd_accelerated",
    "normalize",
    "pairwise_distances",
    "pearson",
    "rescaled_pca_space",
    "use_accelerated",
]
