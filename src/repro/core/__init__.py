"""The paper's phase-level characterization methodology, end to end."""

from .dataset import (
    FeatureBatch,
    SamplingPlan,
    WorkloadDataset,
    build_dataset,
    build_sampling_plan,
    iter_feature_batches,
)
from .pipeline import (
    PhaseCharacterization,
    characterize_to_file,
    run_characterization,
)
from .prominent import ProminentPhases, select_prominent_phases
from .results import load_characterization, save_characterization
from .sampling import sample_interval_indices

__all__ = [
    "FeatureBatch",
    "PhaseCharacterization",
    "ProminentPhases",
    "SamplingPlan",
    "WorkloadDataset",
    "build_dataset",
    "build_sampling_plan",
    "characterize_to_file",
    "iter_feature_batches",
    "load_characterization",
    "run_characterization",
    "sample_interval_indices",
    "save_characterization",
    "select_prominent_phases",
]
