"""MICA-style microarchitecture-independent characterization.

Implements the paper's Table 1: 69 characteristics across six
categories — instruction mix, inherent ILP, register traffic, memory
footprint, data-stream strides, and branch predictability (including a
PPM predictor in four organizations).
"""

from .branch import measure_branch, transition_rate
from .features import (
    CATEGORIES,
    CATEGORY_BRANCH,
    CATEGORY_FOOT,
    CATEGORY_ILP,
    CATEGORY_MIX,
    CATEGORY_REG,
    CATEGORY_STRIDE,
    FEATURE_CATEGORY,
    FEATURE_INDEX,
    FEATURES,
    N_FEATURES,
    Feature,
    feature_names,
    feature_vector,
    features_in_category,
)
from .footprint import measure_footprint
from .fused import (
    FUSED_BATCH_INSTRUCTIONS,
    batch_slices,
    characterize_intervals,
)
from .ilp import (
    WINDOW_SIZES,
    measure_ilp,
    measure_ilp_reference,
    producer_indices,
    producer_indices_reference,
)
from .instruction_mix import measure_instruction_mix
from .meter import characterize_interval
from .ppm import (
    REPORTED_LENGTHS,
    TRACKED_LENGTHS,
    global_histories,
    local_histories,
    measure_ppm,
    measure_ppm_reference,
)
from .profile import IntervalProfile, match_producers
from .register_traffic import DEP_DISTANCE_BUCKETS, measure_register_traffic
from .strides import GLOBAL_BUCKETS, LOCAL_BUCKETS, measure_strides

__all__ = [
    "CATEGORIES",
    "CATEGORY_BRANCH",
    "CATEGORY_FOOT",
    "CATEGORY_ILP",
    "CATEGORY_MIX",
    "CATEGORY_REG",
    "CATEGORY_STRIDE",
    "DEP_DISTANCE_BUCKETS",
    "FEATURES",
    "FUSED_BATCH_INSTRUCTIONS",
    "FEATURE_CATEGORY",
    "FEATURE_INDEX",
    "Feature",
    "GLOBAL_BUCKETS",
    "IntervalProfile",
    "LOCAL_BUCKETS",
    "N_FEATURES",
    "REPORTED_LENGTHS",
    "TRACKED_LENGTHS",
    "WINDOW_SIZES",
    "batch_slices",
    "characterize_interval",
    "characterize_intervals",
    "feature_names",
    "feature_vector",
    "features_in_category",
    "global_histories",
    "local_histories",
    "match_producers",
    "measure_branch",
    "measure_footprint",
    "measure_ilp",
    "measure_ilp_reference",
    "measure_instruction_mix",
    "measure_ppm",
    "measure_ppm_reference",
    "measure_register_traffic",
    "measure_strides",
    "producer_indices",
    "producer_indices_reference",
    "transition_rate",
]
