"""MICA-style microarchitecture-independent characterization.

Implements the paper's Table 1: 69 characteristics across six
categories — instruction mix, inherent ILP, register traffic, memory
footprint, data-stream strides, and branch predictability (including a
PPM predictor in four organizations).  :func:`characterize_intervals`
measures a batch of intervals in one fused pass; a one-element batch
measures a single interval.
"""

from .features import (
    CATEGORIES,
    CATEGORY_BRANCH,
    CATEGORY_FOOT,
    CATEGORY_ILP,
    CATEGORY_MIX,
    CATEGORY_REG,
    CATEGORY_STRIDE,
    DEP_DISTANCE_BUCKETS,
    FEATURE_CATEGORY,
    FEATURE_INDEX,
    FEATURES,
    GLOBAL_BUCKETS,
    LOCAL_BUCKETS,
    N_FEATURES,
    REPORTED_LENGTHS,
    TRACKED_LENGTHS,
    WINDOW_SIZES,
    Feature,
    feature_names,
    features_in_category,
)
from .fused import (
    FUSED_BATCH_INSTRUCTIONS,
    batch_slices,
    characterize_intervals,
    match_producers,
)
from .ppm import local_histories

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
    "LOCAL_BUCKETS",
    "N_FEATURES",
    "REPORTED_LENGTHS",
    "TRACKED_LENGTHS",
    "WINDOW_SIZES",
    "batch_slices",
    "characterize_intervals",
    "feature_names",
    "features_in_category",
    "local_histories",
    "match_producers",
]
