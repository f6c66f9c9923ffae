"""The per-interval MICA meter: one trace interval -> one 69-dim vector.

Production featurization runs the fused whole-trace pass
(:func:`repro.mica.fused.characterize_intervals`), which is
bit-identical; this meter and the per-interval kernels it calls are the
oracles that pass is tested against.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..config import AnalysisConfig
from ..isa import Trace
from .branch import measure_branch
from .features import N_FEATURES, feature_vector
from .footprint import measure_footprint
from .ilp import measure_ilp
from .instruction_mix import measure_instruction_mix
from .profile import IntervalProfile
from .register_traffic import measure_register_traffic
from .strides import measure_strides


def characterize_interval(trace: Trace, config: AnalysisConfig) -> np.ndarray:
    """Measure all 69 microarchitecture-independent characteristics.

    The shared trace facts (masks, per-kind streams, producer matching)
    are computed once into an :class:`IntervalProfile` and handed to
    every meter, so no derived view of the interval is built twice.

    Args:
        trace: one instruction interval.
        config: supplies the ILP/PPM subsample sizes.

    Returns:
        The canonical 69-element feature vector (float64).
    """
    profile = IntervalProfile.from_trace(trace)
    values: Dict[str, float] = {}
    values.update(measure_instruction_mix(trace, profile=profile))
    values.update(
        measure_ilp(
            trace,
            sample_instructions=config.ilp_sample_instructions,
            profile=profile,
        )
    )
    values.update(measure_register_traffic(trace, profile=profile))
    values.update(measure_footprint(trace, profile=profile))
    values.update(measure_strides(trace, profile=profile))
    values.update(
        measure_branch(
            trace, sample_branches=config.ppm_sample_branches, profile=profile
        )
    )
    vec = feature_vector(values)
    if len(vec) != N_FEATURES:
        raise AssertionError("feature vector has wrong dimensionality")
    return vec
