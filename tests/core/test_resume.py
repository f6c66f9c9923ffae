"""Stage-level checkpoint/resume tests for ``characterize``.

A SIGKILL at any stage boundary must leave the stage directory
loadable, and the resumed run must produce a result bit-identical to an
uninterrupted run with the same seed.  Kills are injected
deterministically through the ``REPRO_FAULT_SIGKILL_AFTER`` hook in
:mod:`repro.io.artifacts` (see tests/io/faults.py for the rest of the
injector kit).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core import (
    build_dataset,
    characterize_to_file,
    load_characterization,
    run_characterization,
)
from repro.io import StageCheckpoint
from repro.io.artifacts import HEADER_KEY
from repro.obs import build_report, ledger_row, observe
from repro.suites import get_suite

from ..io.faults import env_with_src, sigkill_rc, truncate_file

CFG = AnalysisConfig.tiny()


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(list(get_suite("BMW").benchmarks)[:2], CFG)


def _assert_same_result(a, b):
    assert np.array_equal(a.space, b.space)
    assert np.array_equal(a.clustering.labels, b.clustering.labels)
    assert np.array_equal(a.clustering.centers, b.clustering.centers)
    assert a.clustering.bic == b.clustering.bic
    assert np.array_equal(
        a.prominent.representative_rows, b.prominent.representative_rows
    )
    assert a.key_characteristics == b.key_characteristics
    if a.ga_result is not None or b.ga_result is not None:
        assert np.array_equal(a.ga_result.mask, b.ga_result.mask)
        assert a.ga_result.fitness == b.ga_result.fitness


def test_a_characterize_to_file_report_carries_io_spans(tmp_path):
    benches = list(get_suite("BMW").benchmarks)[:2]
    with observe(run_id="io") as ob:
        characterize_to_file(benches, CFG, tmp_path / "out.npz")
        load_characterization(tmp_path / "out.npz")
    spans = ledger_row(build_report(ob))["spans"]
    # Three stages, each a load that misses and a save.
    assert spans["io.checkpoint"]["count"] == 6
    # The characterization's save and its load.
    assert spans["io.artifact"]["count"] == 2


class TestInProcessResume:
    def test_full_resume_skips_both_stages(self, dataset, tmp_path):
        first = run_characterization(
            dataset, CFG, checkpoint=StageCheckpoint(tmp_path, "k")
        )
        with observe(run_id="r") as ob:
            second = run_characterization(
                dataset, CFG, checkpoint=StageCheckpoint(tmp_path, "k")
            )
        _assert_same_result(first, second)
        counters = ob.metrics.snapshot()["counters"]
        assert counters["checkpoint.stage_hits"] == 2  # analysis + ga
        assert "checkpoint.stage_writes" not in counters

    def test_resume_from_analysis_recomputes_only_ga(self, dataset, tmp_path):
        cp = StageCheckpoint(tmp_path, "k")
        first = run_characterization(dataset, CFG, checkpoint=cp)
        cp.path("ga").unlink()  # as if the run died mid-GA
        second = run_characterization(
            dataset, CFG, checkpoint=StageCheckpoint(tmp_path, "k")
        )
        _assert_same_result(first, second)

    def test_resume_matches_checkpointless_run(self, dataset, tmp_path):
        plain = run_characterization(dataset, CFG)
        checkpointed = run_characterization(
            dataset, CFG, checkpoint=StageCheckpoint(tmp_path, "k")
        )
        resumed = run_characterization(
            dataset, CFG, checkpoint=StageCheckpoint(tmp_path, "k")
        )
        _assert_same_result(plain, checkpointed)
        _assert_same_result(plain, resumed)

    def test_corrupt_stage_checkpoint_recomputed_identically(self, dataset, tmp_path):
        cp = StageCheckpoint(tmp_path, "k")
        first = run_characterization(dataset, CFG, checkpoint=cp)
        truncate_file(cp.path("analysis"))
        second = run_characterization(
            dataset, CFG, checkpoint=StageCheckpoint(tmp_path, "k")
        )
        _assert_same_result(first, second)
        assert list(tmp_path.glob("stage_analysis_k.npz.corrupt-*"))

    def test_no_resume_recomputes_but_still_checkpoints(self, dataset, tmp_path):
        run_characterization(dataset, CFG, checkpoint=StageCheckpoint(tmp_path, "k"))
        with observe(run_id="nr") as ob:
            run_characterization(
                dataset, CFG, checkpoint=StageCheckpoint(tmp_path, "k", resume=False)
            )
        counters = ob.metrics.snapshot()["counters"]
        assert "checkpoint.stage_hits" not in counters
        assert counters["checkpoint.stage_writes"] == 2

    def test_select_key_false_writes_no_ga_stage(self, dataset, tmp_path):
        cp = StageCheckpoint(tmp_path, "k")
        run_characterization(dataset, CFG, select_key=False, checkpoint=cp)
        assert cp.path("analysis").exists()
        assert not cp.path("ga").exists()


def _characterize(out: Path, *, kill_after: str = "", resume: bool = True) -> int:
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "characterize",
        str(out),
        "--preset",
        "tiny",
        "--suite",
        "BMW",
    ]
    if not resume:
        cmd.append("--no-resume")
    extra = {"REPRO_FAULT_SIGKILL_AFTER": kill_after} if kill_after else {}
    proc = subprocess.run(
        cmd, env=env_with_src(**extra), capture_output=True, text=True, timeout=600
    )
    return proc.returncode


def _npz_payload(path: Path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files if k != HEADER_KEY}


def _assert_bit_identical(a: Path, b: Path):
    pa, pb = _npz_payload(a), _npz_payload(b)
    assert set(pa) == set(pb)
    for k in pa:
        assert np.array_equal(pa[k], pb[k]), f"array {k!r} differs"
    with np.load(a) as da, np.load(b) as db:
        ha = json.loads(str(da[HEADER_KEY]))
        hb = json.loads(str(db[HEADER_KEY]))
    assert ha == hb


@pytest.mark.parametrize("kill_stage", ["dataset", "analysis", "ga"])
def test_sigkill_at_stage_boundary_then_resume_is_bit_identical(
    tmp_path, kill_stage
):
    clean = tmp_path / "clean.npz"
    assert _characterize(clean) == 0

    crashed = tmp_path / "crashed.npz"
    assert _characterize(crashed, kill_after=kill_stage) == sigkill_rc()
    assert not crashed.exists()  # died before the final artifact landed
    stage_dir = tmp_path / "crashed.npz.stages"
    assert any(stage_dir.glob(f"stage_{kill_stage}_*.npz"))

    assert _characterize(crashed) == 0  # --resume is the default
    _assert_bit_identical(clean, crashed)


def test_resume_of_completed_run_is_bit_identical(tmp_path):
    out = tmp_path / "out.npz"
    assert _characterize(out) == 0
    first = _npz_payload(out)
    assert _characterize(out) == 0  # short-circuits through all stages
    second = _npz_payload(out)
    for k in first:
        assert np.array_equal(first[k], second[k])


def test_no_resume_ignores_poisoned_stage_key_space(tmp_path):
    # A fresh --no-resume run must not read existing stage files at all.
    out = tmp_path / "out.npz"
    assert _characterize(out) == 0
    stage_dir = tmp_path / "out.npz.stages"
    for stage_file in stage_dir.glob("stage_*.npz"):
        truncate_file(stage_file)  # would poison a resuming run's loads
    assert _characterize(out, resume=False) == 0
