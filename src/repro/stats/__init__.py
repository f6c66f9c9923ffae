"""Statistics: normalization, PCA, k-means + BIC, distances, correlation."""

from .bic import bic_from_stats, kmeans_bic
from .clustering import Clustering, kmeans
from .correlation import pearson
from .distance import condensed_distances, distances_to, pairwise_distances
from .incremental_pca import IncrementalPCA, StreamingProjector
from .kmeans_engine import EngineStats, lloyd_accelerated
from .normalize import Normalizer, normalize
from .pca import GramPCA, PCAModel, fit_pca, rescaled_pca_space
from .streaming_kmeans import FrozenScorer, StreamingLloyd

__all__ = [
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
]
