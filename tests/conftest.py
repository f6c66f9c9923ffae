"""Shared fixtures: configs, hand-built traces, and a cached small run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core import build_dataset, run_characterization
from repro.isa import NO_ADDR, NO_REG, OpClass, Trace
from repro.mica import characterize_intervals, feature_names
from repro.suites import all_benchmarks


def make_trace(rows):
    """Build a Trace from ``(op, src1, src2, dst, addr, pc, taken)`` rows.

    Any row may be shorter; missing fields default to
    no-register/no-address/pc 0/not-taken.
    """
    defaults = (OpClass.IADD, NO_REG, NO_REG, NO_REG, NO_ADDR, 0, False)
    full = [tuple(row) + defaults[len(row):] for row in rows]
    cols = list(zip(*full))
    return Trace(
        op=np.array([int(o) for o in cols[0]], dtype=np.uint8),
        src1=np.array(cols[1], dtype=np.int16),
        src2=np.array(cols[2], dtype=np.int16),
        dst=np.array(cols[3], dtype=np.int16),
        addr=np.array(cols[4], dtype=np.int64),
        pc=np.array(cols[5], dtype=np.int64),
        taken=np.array(cols[6], dtype=bool),
    )


def measure(trace, **config_fields):
    """The production MICA features of one interval, by name.

    ``config_fields`` override :meth:`AnalysisConfig.tiny` (e.g. the
    ``ilp_sample_instructions`` / ``ppm_sample_branches`` subsamples).
    """
    config = AnalysisConfig.tiny().replace(**config_fields)
    row = characterize_intervals([trace], config)[0]
    return dict(zip(feature_names(), row.tolist()))


@pytest.fixture(scope="session")
def tiny_config():
    return AnalysisConfig.tiny()


@pytest.fixture(scope="session")
def small_config():
    return AnalysisConfig.small()


@pytest.fixture(scope="session")
def small_dataset(small_config):
    """A characterized dataset over all 77 benchmarks at small scale.

    Session-scoped: built once (~5 s) and shared by the integration and
    analysis tests.
    """
    return build_dataset(all_benchmarks(), small_config)


@pytest.fixture(scope="session")
def small_result(small_dataset, small_config):
    """A full characterization (including the GA) at small scale."""
    return run_characterization(small_dataset, small_config, select_key=True)
