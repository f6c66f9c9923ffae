"""Shared fixtures for the experiment-reproduction benchmarks.

The benches run the methodology at **paper scale** by default (all 77
benchmarks, 100 sampled intervals each, k = 300, 100 prominent phases,
12 key characteristics).  The characterization goes through
:func:`repro.core.characterize_to_file` into ``benchmarks/.cache``:
its stage checkpoints let a later session resume every stage instead
of recomputing, and the feature blocks under
``benchmarks/.cache/feature_blocks`` let a changed analysis parameter
re-cluster without re-featurizing.  Each bench then regenerates one of
the paper's tables/figures into ``benchmarks/output`` and asserts its
headline shape.

Set ``REPRO_BENCH_PRESET=small`` to run everything at test scale.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.config import AnalysisConfig
from repro.core import characterize_to_file
from repro.io import FeatureBlockCache, feature_block_dir
from repro.suites import all_benchmarks

CACHE_DIR = Path(__file__).parent / ".cache"
OUTPUT_DIR = Path(__file__).parent / "output"


def _preset() -> AnalysisConfig:
    name = os.environ.get("REPRO_BENCH_PRESET", "paper")
    if name == "paper":
        return AnalysisConfig.paper()
    if name == "small":
        return AnalysisConfig.small()
    if name == "tiny":
        return AnalysisConfig.tiny()
    raise ValueError(f"unknown REPRO_BENCH_PRESET {name!r}")


@pytest.fixture(scope="session")
def config() -> AnalysisConfig:
    return _preset()


@pytest.fixture(scope="session")
def result(config):
    """The full paper-scale characterization (featurize/cluster/GA once)."""
    return characterize_to_file(
        all_benchmarks(),
        config,
        CACHE_DIR / f"characterization_paper_{config.full_key()}.npz",
        suite_tag="paper",
        feature_cache=FeatureBlockCache(feature_block_dir(CACHE_DIR)),
    )


@pytest.fixture(scope="session")
def dataset(result):
    return result.dataset


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def report(output_dir):
    """Writer for per-experiment reports: ``report(name, text)``."""

    def write(name: str, text: str) -> Path:
        path = output_dir / name
        # The session fixture created the directory, but benches run
        # long and cleanup scripts wipe benchmarks/output freely.
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text if text.endswith("\n") else text + "\n")
        return path

    return write
