"""Suite-comparison analyses: coverage, diversity, uniqueness, insights."""

from .clusters import (
    ClusterComposition,
    ClusterKind,
    cluster_compositions,
    compositions_by_id,
    group_by_kind,
)
from .coverage import coverage_from_compositions, suite_coverage
from .diversity import clusters_to_cover, cumulative_coverage, curves_from_compositions
from .drift import (
    GENERATION_PAIRS,
    StreamingDriftMonitor,
    benchmark_centroid,
    benchmark_drift,
    generation_drift,
    typical_benchmark_distance,
)
from .insights import (
    BenchmarkPhaseProfile,
    benchmark_profile,
    homogeneity,
    shared_clusters,
    unique_fraction_of_benchmark,
)
from .prediction import SimilarityPredictor
from .redundancy import marginal_value_order, suite_redundancy
from .simpoints import (
    PhaseBasedSimulation,
    cluster_representative_rows,
    random_interval_baseline,
    trace_for_row,
)
from .subsetting import (
    SubsetSelection,
    select_representative_benchmarks,
    subset_quality,
)
from .uniqueness import suite_uniqueness, uniqueness_from_compositions

__all__ = [
    "BenchmarkPhaseProfile",
    "ClusterComposition",
    "GENERATION_PAIRS",
    "ClusterKind",
    "PhaseBasedSimulation",
    "SimilarityPredictor",
    "StreamingDriftMonitor",
    "SubsetSelection",
    "benchmark_centroid",
    "benchmark_drift",
    "benchmark_profile",
    "cluster_representative_rows",
    "cluster_compositions",
    "clusters_to_cover",
    "compositions_by_id",
    "coverage_from_compositions",
    "cumulative_coverage",
    "curves_from_compositions",
    "group_by_kind",
    "homogeneity",
    "marginal_value_order",
    "random_interval_baseline",
    "select_representative_benchmarks",
    "shared_clusters",
    "subset_quality",
    "trace_for_row",
    "generation_drift",
    "suite_coverage",
    "suite_redundancy",
    "suite_uniqueness",
    "unique_fraction_of_benchmark",
    "typical_benchmark_distance",
    "uniqueness_from_compositions",
]
