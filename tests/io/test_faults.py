"""Fault-injection tests for ``characterize_to_file``'s persistence layers.

Corruption of stage checkpoints and feature blocks (truncation, bit
flips, torn writes), the cross-process single flight on the output,
lock-holder death, and the ``select_key`` / GA-meta contracts.  The
injectors live in ``tests/io/faults.py``.
"""

import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core import characterize_to_file, load_characterization
from repro.io import (
    FeatureBlockCache,
    StageCheckpoint,
    artifact_lock,
    feature_block_dir,
    read_artifact,
    write_artifact,
)
from repro.obs import observe
from repro.suites import get_suite

from .faults import (
    bit_flip,
    dead_pid,
    env_with_src,
    kill_process,
    spawn_lock_holder,
    spawn_takeover_racers,
    truncate_file,
)

CFG = AnalysisConfig.tiny()


@pytest.fixture(scope="module")
def benches():
    return list(get_suite("BMW").benchmarks)[:2]


def _stage(out, tag, cfg, stage):
    """The checkpoint file ``characterize_to_file`` writes for one stage."""
    return StageCheckpoint(f"{out}.stages", f"{tag}_{cfg.full_key()}").path(stage)


class TestCorruptCacheEntries:
    def test_truncated_dataset_entry_quarantined_and_rebuilt(self, tmp_path, benches):
        out = tmp_path / "t.npz"
        first = characterize_to_file(benches, CFG, out, suite_tag="t", select_key=False)
        path = _stage(out, "t", CFG, "dataset")
        truncate_file(path)
        with observe(run_id="f") as ob:
            again = characterize_to_file(
                benches, CFG, out, suite_tag="t", select_key=False
            )
        assert np.array_equal(first.dataset.features, again.dataset.features)
        counters = ob.metrics.snapshot()["counters"]
        assert counters["artifact_cache.corrupt"] == 1
        assert counters["artifact_cache.quarantined"] == 1
        assert counters["checkpoint.stage_writes"] == 1  # only the dataset
        assert list(path.parent.glob(path.name + ".corrupt-*"))
        # The rebuilt checkpoint is valid again.
        read_artifact(path, schema="stage:dataset")

    def test_bit_flipped_characterization_entry_rebuilt(self, tmp_path, benches):
        out = tmp_path / "t.npz"
        first = characterize_to_file(benches, CFG, out, suite_tag="t", select_key=False)
        path = _stage(out, "t", CFG, "analysis")
        bit_flip(path)
        again = characterize_to_file(benches, CFG, out, suite_tag="t", select_key=False)
        assert np.array_equal(first.clustering.labels, again.clustering.labels)
        assert list(path.parent.glob(path.name + ".corrupt-*"))
        read_artifact(path, schema="stage:analysis")

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_rebuild_after_corruption_across_backends(self, tmp_path, benches, backend):
        cfg = CFG.replace(parallel_backend=backend, n_jobs=2)
        blocks = FeatureBlockCache(feature_block_dir(tmp_path))
        out = tmp_path / f"{backend}.npz"
        first = characterize_to_file(
            benches, cfg, out, suite_tag=backend, select_key=False, feature_cache=blocks
        )
        truncate_file(_stage(out, backend, cfg, "dataset"), keep=0.3)
        truncate_file(blocks.path(benches[0].key, cfg), keep=0.3)
        again = characterize_to_file(
            benches, cfg, out, suite_tag=backend, select_key=False, feature_cache=blocks
        )
        assert np.array_equal(first.dataset.features, again.dataset.features)
        assert blocks.load(benches[0].key, cfg)  # the block was rebuilt too


class TestSelectKeyContract:
    def test_ga_less_hit_rebuilds_when_ga_required(self, tmp_path, benches):
        out = tmp_path / "k.npz"
        no_ga = characterize_to_file(benches, CFG, out, suite_tag="k", select_key=False)
        assert no_ga.ga_result is None
        with observe(run_id="k") as ob:
            full = characterize_to_file(
                benches, CFG, out, suite_tag="k", select_key=True
            )
        assert full.ga_result is not None
        assert full.key_characteristics
        assert load_characterization(out).ga_result is not None
        counters = ob.metrics.snapshot()["counters"]
        assert counters["checkpoint.stage_hits"] == 2  # dataset + analysis
        assert counters["checkpoint.stage_writes"] == 1  # the missing GA stage

    def test_ga_full_entry_serves_no_ga_requests(self, tmp_path, benches):
        out = tmp_path / "k2.npz"
        full = characterize_to_file(benches, CFG, out, suite_tag="k2", select_key=True)
        with observe(run_id="k2") as ob:
            hit = characterize_to_file(
                benches, CFG, out, suite_tag="k2", select_key=False
            )
        assert np.array_equal(full.clustering.labels, hit.clustering.labels)
        assert hit.ga_result is None
        counters = ob.metrics.snapshot()["counters"]
        assert counters["checkpoint.stage_hits"] == 2
        assert "checkpoint.stage_writes" not in counters


class TestFeatureBlockForwarding:
    def test_use_feature_blocks_false_is_forwarded(self, tmp_path, benches):
        with observe(run_id="nofb") as ob:
            characterize_to_file(
                benches, CFG, tmp_path / "nofb.npz", suite_tag="nofb", select_key=False
            )
        assert not feature_block_dir(tmp_path).exists()
        counters = ob.metrics.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("feature_blocks.")]

    def test_use_feature_blocks_default_populates_blocks(self, tmp_path, benches):
        characterize_to_file(
            benches,
            CFG,
            tmp_path / "fb.npz",
            suite_tag="fb",
            select_key=False,
            feature_cache=FeatureBlockCache(feature_block_dir(tmp_path)),
        )
        assert any(feature_block_dir(tmp_path).glob("block_*.npz"))


class TestGaMetaValidation:
    def test_meta_predating_ga_fitness_yields_no_ga_result(self, tmp_path, benches):
        path = tmp_path / "m.npz"
        characterize_to_file(benches, CFG, path, suite_tag="m", select_key=True)
        arrays, meta = read_artifact(path, schema="characterization")
        assert meta["key_characteristics"]
        del meta["ga_fitness"], meta["ga_history"]
        write_artifact(path, arrays, schema="characterization", meta=meta)
        loaded = load_characterization(path)
        assert loaded.ga_result is None
        assert loaded.key_characteristics  # names survive, result does not

    def test_nan_fitness_placeholder_yields_no_ga_result(self, tmp_path, benches):
        path = tmp_path / "m2.npz"
        characterize_to_file(benches, CFG, path, suite_tag="m2", select_key=True)
        arrays, meta = read_artifact(path, schema="characterization")
        meta["ga_fitness"] = float("nan")
        write_artifact(path, arrays, schema="characterization", meta=meta)
        assert load_characterization(path).ga_result is None


_SINGLE_FLIGHT_DRIVER = """
import sys, time
from pathlib import Path
import repro.core.pipeline as pipeline
from repro.config import AnalysisConfig
from repro.obs import observe
from repro.suites import get_suite

out, log_path, go = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
real_build = pipeline.build_dataset

def counting_build(*args, **kwargs):
    with open(log_path, "a") as fh:
        fh.write("build\\n")
    time.sleep(0.5)  # hold the build open so the racer arrives mid-build
    return real_build(*args, **kwargs)

pipeline.build_dataset = counting_build
print("READY", flush=True)
while not go.exists():
    time.sleep(0.001)
cfg = AnalysisConfig.tiny()
benches = list(get_suite("BMW").benchmarks)[:2]
with observe(run_id="sf") as ob:
    result = pipeline.characterize_to_file(benches, cfg, out, suite_tag="sf")
hits = int(ob.metrics.snapshot()["counters"].get("checkpoint.stage_hits", 0))
print(len(result.dataset), result.clustering.bic, hits)
"""


def _bounded_lock(monkeypatch, timeout):
    """Bound ``characterize_to_file``'s output-lock wait for one test."""
    monkeypatch.setattr(
        "repro.core.pipeline.artifact_lock", partial(artifact_lock, timeout=timeout)
    )


class TestConcurrency:
    @pytest.mark.parametrize("lock_backend", ["auto", "pidfile"])
    def test_two_processes_build_exactly_once(self, tmp_path, lock_backend):
        log_path = tmp_path / "builds.log"
        env = env_with_src(REPRO_ARTIFACT_LOCK=lock_backend)
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _SINGLE_FLIGHT_DRIVER,
                    str(tmp_path / "sf.npz"),
                    str(log_path),
                    str(tmp_path / "GO"),
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        # Release both racers together, once both are past their imports.
        ready = [p.stdout.readline().strip() for p in procs]
        (tmp_path / "GO").write_text("go")
        assert ready == ["READY", "READY"], ready
        outs = [p.communicate(timeout=300) for p in procs]
        assert all(p.returncode == 0 for p in procs), outs
        results = sorted(out.split() for out, _ in outs)
        assert results[0][:2] == results[1][:2]  # both saw the same result
        # One built all three stages; the other resumed all three.
        assert sorted(int(r[2]) for r in results) == [0, 3]
        builds = log_path.read_text().splitlines()
        assert builds == ["build"], f"expected exactly one build, got {builds}"

    def test_lock_holder_death_releases_flock(self, tmp_path, benches, monkeypatch):
        out = tmp_path / "lh.npz"
        holder = spawn_lock_holder(out, backend="auto")
        kill_process(holder)
        _bounded_lock(monkeypatch, 10)
        # The kernel released the dead holder's flock: the build proceeds.
        result = characterize_to_file(
            benches, CFG, out, suite_tag="lh", select_key=False
        )
        assert len(result.dataset) == 2 * CFG.intervals_per_benchmark

    def test_dead_pidfile_holder_taken_over(self, tmp_path, benches, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_LOCK", "pidfile")
        out = tmp_path / "lh2.npz"
        holder = spawn_lock_holder(out, backend="pidfile")
        kill_process(holder)
        _bounded_lock(monkeypatch, 30)
        # The pidfile survives its dead owner; takeover is by pid probe.
        result = characterize_to_file(
            benches, CFG, out, suite_tag="lh2", select_key=False
        )
        assert len(result.dataset) == 2 * CFG.intervals_per_benchmark

    def test_stale_takeover_race_admits_one_holder_at_a_time(self, tmp_path):
        """Racing waiters on one stale pidfile lock stay mutually exclusive.

        All racers judge the pre-staled lock stale at the same barrier
        release — the schedule where the old unlink + re-create takeover
        let two waiters both proceed.  The replace-based takeover with
        read-back verification must admit exactly one at a time: the
        enter/exit ledger lines have to strictly alternate.
        """
        import json as _json
        import os as _os
        import socket as _socket
        import time as _time

        from repro.io.artifacts import lock_path_for

        target = tmp_path / "raced.npz"
        lock_path = lock_path_for(target)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock_path.write_text(
            _json.dumps(
                {"pid": dead_pid(), "host": _socket.gethostname(), "time": 0}
            )
        )
        old = _time.time() - 3_600
        _os.utime(lock_path, (old, old))
        ledger = tmp_path / "ledger.log"
        go = tmp_path / "GO"
        procs = spawn_takeover_racers(target, ledger, go, n=3)
        go.write_text("go")
        outs = [p.communicate(timeout=120) for p in procs]
        assert all(p.returncode == 0 for p in procs), outs
        lines = ledger.read_text().splitlines()
        assert len(lines) == 6, lines
        inside = None
        for line in lines:
            action, name = line.split()
            if action == "enter":
                assert inside is None, f"{name} entered while {inside} held: {lines}"
                inside = name
            else:
                assert inside == name, lines
                inside = None
        assert inside is None
