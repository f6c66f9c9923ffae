"""repro: phase-level microarchitecture-independent workload characterization.

A from-scratch reproduction of Hoste & Eeckhout, *"Characterizing the
Unique and Diverse Behaviors in Existing and Emerging General-Purpose
and Domain-Specific Benchmark Suites"* (ISPASS 2008).

Quickstart::

    from repro import AnalysisConfig, all_benchmarks, build_dataset, run_characterization
    from repro.analysis import suite_coverage, suite_uniqueness

    config = AnalysisConfig.small()
    dataset = build_dataset(all_benchmarks(), config)
    result = run_characterization(dataset, config)
    print(suite_coverage(dataset, result.clustering))
    print(result.key_characteristics)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from .config import AnalysisConfig
from .core import (
    PhaseCharacterization,
    ProminentPhases,
    WorkloadDataset,
    build_dataset,
    load_characterization,
    run_characterization,
    save_characterization,
)
from .suites import all_benchmarks, all_suites, get_benchmark, get_suite

__version__ = "1.0.0"

__all__ = [
    "AnalysisConfig",
    "PhaseCharacterization",
    "ProminentPhases",
    "WorkloadDataset",
    "__version__",
    "all_benchmarks",
    "all_suites",
    "build_dataset",
    "get_benchmark",
    "get_suite",
    "load_characterization",
    "run_characterization",
    "save_characterization",
]
