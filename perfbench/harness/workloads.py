"""The benchmark's three workloads: inputs, set-up, the timed call, checks.

Every workload is built from a seed.  The seed sets
``AnalysisConfig.seed`` (which intervals are sampled) and, for the
``paper-*`` workloads, which benchmark is drawn from each suite.

* ``paper-cold`` — ``characterize_to_file`` at ``AnalysisConfig.paper()``
  on a seeded 7-benchmark draw (700 rows of 10,000 instructions), fresh
  output directory, no feature store: a default
  ``repro characterize --preset paper``.  10,000 instructions is above
  ``FUSED_MAX_INTERVAL_INSTRUCTIONS``, so this is the per-interval MICA
  path; trace synthesis and MICA are most of its time.
* ``paper-warm`` — the same call on the same inputs with a
  ``FeatureBlockCache`` that set-up filled by running the call cold.  No
  trace is generated and no meter runs, so its time is block reads, PCA,
  k-means, prominent phases, the GA and checkpoint/artifact writes: the
  re-analysis path, on which a MICA change must read as no change.
* ``small-stream`` — ``run_streaming_characterization`` +
  ``save_streaming_result`` at ``AnalysisConfig.small()`` with
  ``streaming=True`` over all 77 benchmarks (924 rows of 4,000
  instructions), default per-run spool, ``prefetch=1``: the only
  workload on the fused whole-trace meters, the streaming engine, the
  spool and the prefetch thread.

Each timed call ends with its result reloaded through the program's
checksummed loader; :meth:`Workload.problems` then checks the reloaded
result's digest against the digest pinned for the default seed, against
the other calls of the run and (``paper-warm``) against its own cold
set-up call.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import struct
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import AnalysisConfig
from repro.core import pipeline, results
from repro.io.feature_blocks import FeatureBlockCache
from repro.streaming import engine
from repro.streaming import result as stream_result
from repro.suites import all_benchmarks, get_benchmark

#: Seed the expected digests in ``expected.json`` are pinned for.
DEFAULT_SEED = 2008

WORKLOADS = ("paper-cold", "paper-warm", "small-stream")

#: Per-suite pools the ``paper-*`` draw picks from.  A pool holds
#: benchmarks with at least 100 intervals, so each drawn benchmark
#: contributes 100 distinct sampled intervals, and whose paper-preset
#: featurization CPU time was within about 10% of one another's over
#: three sampling seeds (measured on a 2-vCPU Xeon, one BLAS thread;
#: MediaBenchII has a single candidate).  Drawn from whole suites, a
#: benchmark costs 0.01-1.45 s, which alone would spread the work of a
#: call by about 18% between seeds.
PAPER_POOLS = {
    "BioPerf": ("phylip", "hmmer", "grappa", "fasta"),
    "BMW": ("gait", "hand", "speak"),
    "SPECint2000": ("gcc", "crafty", "vpr"),
    "SPECfp2000": ("wupwise", "fma3d", "lucas", "applu", "equake", "swim"),
    "SPECint2006": ("gcc", "bzip2", "gobmk", "mcf"),
    "SPECfp2006": ("GemsFDTD", "lbm", "gromacs", "dealII", "wrf"),
    "MediaBenchII": ("h264",),
}

_EXPECTED = Path(__file__).with_name("expected.json")


def expected_digest(workload: str, seed: int, scale: str) -> Optional[str]:
    """The pinned result digest, or None when none is pinned for the inputs."""
    if seed != DEFAULT_SEED or scale != "full":
        return None
    return json.loads(_EXPECTED.read_text())[workload]


def draw_paper_benchmarks(seed: int) -> list:
    """One benchmark from each suite's pool, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return [
        get_benchmark(suite, pool[int(rng.integers(len(pool)))])
        for suite, pool in PAPER_POOLS.items()
    ]


def digest(arrays: Sequence[np.ndarray], scalars: Sequence[float]) -> str:
    """SHA-256 over arrays (dtype, shape, bytes) and float64 scalars."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    for value in scalars:
        h.update(struct.pack("<d", float(value)))
    return h.hexdigest()


def _serial(config: AnalysisConfig, seed: int, **changes) -> AnalysisConfig:
    return config.replace(seed=seed, n_jobs=1, parallel_backend="serial", **changes)


class Workload:
    """One workload's fixed inputs and the call it times.

    Args:
        seed: sets the sampling seed (and the ``paper-*`` draw).
        scale: ``full`` runs the shipped preset; ``tiny`` swaps in
            ``AnalysisConfig.tiny()`` so tests can run the harness in
            seconds.
    """

    name = ""
    #: Layers whose entry points a traced call must reach at least once.
    required_layers: Sequence[str] = ()

    def __init__(self, seed: int, scale: str = "full") -> None:
        if scale not in ("full", "tiny"):
            raise ValueError(f"unknown scale {scale!r}")
        self.expected = expected_digest(self.name, seed, scale)
        #: Digest every call must match; the first verified call (or the
        #: set-up cold call for ``paper-warm``) fixes it.
        self.reference: Optional[str] = None
        self.rows = 0

    def setup(self, work: Path) -> None:
        """One repetition of the set-up, in the empty directory ``work``."""
        raise NotImplementedError

    def run(self, output: Path):
        """The timed call: compute, save to ``output``, reload verified."""
        raise NotImplementedError

    def result_digest(self, loaded) -> str:
        raise NotImplementedError

    def quantities(self, loaded) -> Dict[str, Optional[float]]:
        """Result quantities recorded next to the timings (not gated)."""
        return {
            "n_components": int(loaded.n_components),
            "explained_variance": float(loaded.explained_variance),
            "prominent_coverage": float(loaded.prominent.coverage),
            "best_bic": float(loaded.clustering.bic),
        }

    def problems(self, loaded) -> List[str]:
        """Why a reloaded result is wrong; empty when it verifies."""
        found = []
        value = self.result_digest(loaded)
        if self.expected is not None and value != self.expected:
            found.append(f"digest {value[:12]} != pinned {self.expected[:12]}")
        if self.reference is None:
            self.reference = value
        elif value != self.reference:
            found.append(f"digest {value[:12]} != first {self.reference[:12]}")
        return found


class PaperWorkload(Workload):
    """``characterize_to_file`` on the seeded 7-suite draw."""

    required_layers = (
        "synth", "sampling", "mica", "io.checkpoint", "io.artifact",
        "pca", "kmeans", "prominent", "ga",
    )
    warm = False

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        self.benchmarks = draw_paper_benchmarks(seed)
        preset = AnalysisConfig.paper() if scale == "full" else AnalysisConfig.tiny()
        self.config = _serial(preset, seed)
        self.warmup_config = _serial(AnalysisConfig.tiny(), seed)
        self.rows = len(self.benchmarks) * self.config.intervals_per_benchmark
        self.cache: Optional[FeatureBlockCache] = None

    def setup(self, work: Path) -> None:
        pipeline.characterize_to_file(
            self.benchmarks, self.warmup_config, work / "warmup" / "result.npz"
        )
        results.load_characterization(work / "warmup" / "result.npz")
        if self.warm:
            self._fill(work)

    def _fill(self, work: Path) -> None:
        """Fill a fresh feature store by running the call cold once."""
        cache = FeatureBlockCache(work / "feature-blocks")
        out = work / "fill" / "result.npz"
        pipeline.characterize_to_file(
            self.benchmarks, self.config, out, feature_cache=cache
        )
        cold = self.result_digest(results.load_characterization(out))
        shutil.rmtree(out.parent)
        # Each repetition fills its own store; the last one serves the
        # timed calls, and all of them must agree with one another.
        if self.reference is not None and cold != self.reference:
            raise RuntimeError("set-up cold calls disagree on the result digest")
        self.reference = cold
        self.cache = cache

    def run(self, output: Path):
        pipeline.characterize_to_file(
            self.benchmarks, self.config, output, feature_cache=self.cache
        )
        return results.load_characterization(output)

    def result_digest(self, loaded) -> str:
        if loaded.ga_result is None:
            raise ValueError("reloaded characterization has no GA result")
        return digest(
            [
                loaded.dataset.features,
                loaded.space,
                loaded.clustering.labels,
                loaded.clustering.centers,
                loaded.prominent.cluster_ids,
                loaded.prominent.weights,
                loaded.prominent.representative_rows,
                loaded.ga_result.mask,
            ],
            [loaded.clustering.bic, loaded.ga_result.fitness],
        )

    def quantities(self, loaded) -> Dict[str, Optional[float]]:
        values = super().quantities(loaded)
        values["ga_fitness"] = float(loaded.ga_result.fitness)
        return values


class PaperWarmWorkload(PaperWorkload):
    name = "paper-warm"
    warm = True
    required_layers = (
        "sampling", "io.feature_blocks", "io.checkpoint", "io.artifact",
        "pca", "kmeans", "prominent", "ga",
    )


class PaperColdWorkload(PaperWorkload):
    name = "paper-cold"


class SmallStreamWorkload(Workload):
    """The streaming engine over all 77 benchmarks at the small preset."""

    name = "small-stream"
    required_layers = (
        "synth", "sampling", "mica", "io.artifact", "streaming", "prefetch",
    )

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        self.benchmarks = all_benchmarks()
        preset = AnalysisConfig.small() if scale == "full" else AnalysisConfig.tiny()
        self.config = _serial(preset, seed, streaming=True)
        self.warmup_config = _serial(AnalysisConfig.tiny(), seed, streaming=True)
        self.rows = len(self.benchmarks) * self.config.intervals_per_benchmark

    def _call(self, config: AnalysisConfig, output: Path):
        found = engine.run_streaming_characterization(self.benchmarks, config)
        stream_result.save_streaming_result(found, output)
        return stream_result.load_streaming_result(output)

    def setup(self, work: Path) -> None:
        self._call(self.warmup_config, work / "warmup" / "result.npz")

    def run(self, output: Path):
        return self._call(self.config, output)

    def result_digest(self, loaded) -> str:
        return digest(
            [
                loaded.suites,
                loaded.benchmarks,
                loaded.interval_indices,
                loaded.clustering.labels,
                loaded.clustering.centers,
                loaded.prominent.cluster_ids,
                loaded.prominent.weights,
                loaded.prominent.representative_rows,
            ],
            [loaded.clustering.bic, loaded.clustering.inertia],
        )

    def problems(self, loaded) -> List[str]:
        found = super().problems(loaded)
        if loaded.featurize_sweeps != 1:
            found.append(f"featurize_sweeps {loaded.featurize_sweeps} != 1")
        if len(loaded) != self.rows:
            found.append(f"{len(loaded)} rows != {self.rows}")
        return found


_CLASSES = {
    cls.name: cls for cls in (PaperColdWorkload, PaperWarmWorkload, SmallStreamWorkload)
}


def make_workload(name: str, seed: int, scale: str = "full") -> Workload:
    """Build the named workload for ``seed``."""
    return _CLASSES[name](seed, scale)
