"""Analysis configuration: every scale knob of the methodology in one place.

The paper runs at "paper scale": 100M-instruction intervals, 1,000 sampled
intervals per benchmark, k = 300 clusters, 100 prominent phases, 12 key
characteristics.  Our default :meth:`AnalysisConfig.paper` preset keeps the
methodology identical while scaling the raw instruction counts down to what
a pure-Python substrate can generate (see DESIGN.md section 2); the
:meth:`AnalysisConfig.small` and :meth:`AnalysisConfig.tiny` presets are for
tests and quick exploration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class AnalysisConfig:
    """Scale and methodology parameters for a phase-level characterization.

    Attributes mirror the steps in section 2 of the paper:

    * ``interval_instructions`` — instructions per interval (paper: 100M).
    * ``intervals_per_benchmark`` — interval-sampling count (paper: 1,000).
      Benchmarks with fewer intervals than this are sampled with
      replacement, exactly as in the paper.
    * ``n_clusters`` — k for k-means (paper: 300).
    * ``n_prominent`` — number of prominent phases retained (paper: 100).
    * ``kmeans_restarts`` — random restarts; the clustering with the best
      BIC score wins (paper: "a number of randomly chosen initial cluster
      centers").
    * ``pca_min_std`` — retain principal components whose standard
      deviation exceeds this (paper: 1.0, the Kaiser criterion).
    * ``n_key_characteristics`` — GA-selected characteristics used for the
      kiviat axes (paper: 12).
    * ``ilp_sample_instructions`` / ``ppm_sample_branches`` — per-interval
      subsample sizes for the two inherently sequential meters
      (``ppm_sample_branches`` at most ``2**20``).

    Execution knobs control how the hot stages run without affecting
    what they compute (results are bit-identical for a fixed seed at any
    worker count, so neither participates in cache keys):

    * ``n_jobs`` — parallel workers for dataset build and k-means
      restarts; ``-1`` means all cores, ``1`` means serial.
    * ``parallel_backend`` — ``auto`` | ``serial`` | ``thread`` |
      ``process`` (see :mod:`repro.parallel`).

    Two further knobs select the *streaming* analysis path
    (:mod:`repro.streaming`).  Unlike the execution knobs they change
    what is computed — the streaming path trades bounded memory for a
    measured approximation gap — so both participate in ``full_key``:

    * ``streaming`` — run the bounded-memory engine (incremental PCA +
      exact streaming Lloyd over featurization batches) instead of
      materializing the full dataset.  The exact path stays the
      default and pins correctness.  The engine's feature spool is
      scratch in a per-run temporary directory (under ``TMPDIR``);
      rows carry across runs only through a
      :class:`repro.io.FeatureBlockCache`, as on the exact path.
    * ``batch_intervals`` — intervals held in memory per streaming
      batch; the peak working set is ``O(batch_intervals)``, never
      ``O(total intervals)``.
    """

    interval_instructions: int = 10_000
    intervals_per_benchmark: int = 100
    n_clusters: int = 300
    n_prominent: int = 100
    kmeans_restarts: int = 5
    kmeans_max_iter: int = 50
    pca_min_std: float = 1.0
    n_key_characteristics: int = 12
    ilp_sample_instructions: int = 2_000
    ppm_sample_branches: int = 1_000
    ga_populations: int = 3
    ga_population_size: int = 24
    ga_generations: int = 30
    ga_stall_generations: int = 8
    seed: int = 2008
    n_jobs: int = 1
    parallel_backend: str = "auto"
    streaming: bool = False
    batch_intervals: int = 256

    #: Fields that control execution, not results; excluded from cache keys.
    EXECUTION_KNOBS = ("n_jobs", "parallel_backend")

    def __post_init__(self) -> None:
        if self.interval_instructions <= 0:
            raise ValueError("interval_instructions must be positive")
        if self.intervals_per_benchmark <= 0:
            raise ValueError("intervals_per_benchmark must be positive")
        if self.n_prominent > self.n_clusters:
            raise ValueError("n_prominent cannot exceed n_clusters")
        if not 0 < self.n_key_characteristics <= 69:
            raise ValueError("n_key_characteristics must be in (0, 69]")
        if self.n_jobs != -1 and self.n_jobs < 1:
            raise ValueError("n_jobs must be -1 (all cores) or >= 1")
        if self.parallel_backend not in ("auto", "serial", "thread", "process"):
            raise ValueError(
                "parallel_backend must be one of auto, serial, thread, process"
            )
        if self.batch_intervals < 1:
            raise ValueError("batch_intervals must be >= 1")
        if self.ppm_sample_branches > 2**20:
            # One interval's PPM context keys and event indices then
            # still fit one int64 composite (repro.mica.fused).
            raise ValueError("ppm_sample_branches must be <= 2**20")

    @classmethod
    def paper(cls) -> "AnalysisConfig":
        """The default scaled-down analog of the paper's setup."""
        return cls()

    @classmethod
    def small(cls) -> "AnalysisConfig":
        """A fast configuration for integration tests (seconds, not minutes)."""
        return cls(
            interval_instructions=4_000,
            intervals_per_benchmark=12,
            n_clusters=120,
            n_prominent=40,
            kmeans_restarts=2,
            kmeans_max_iter=25,
            n_key_characteristics=8,
            ilp_sample_instructions=600,
            ppm_sample_branches=300,
            ga_populations=2,
            ga_population_size=12,
            ga_generations=10,
            ga_stall_generations=4,
        )

    @classmethod
    def tiny(cls) -> "AnalysisConfig":
        """The smallest sane configuration, for unit tests."""
        return cls(
            interval_instructions=500,
            intervals_per_benchmark=4,
            n_clusters=8,
            n_prominent=4,
            kmeans_restarts=1,
            kmeans_max_iter=10,
            n_key_characteristics=5,
            ilp_sample_instructions=200,
            ppm_sample_branches=50,
            ga_populations=1,
            ga_population_size=8,
            ga_generations=4,
            ga_stall_generations=2,
        )

    def replace(self, **changes) -> "AnalysisConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def featurization_key(self) -> str:
        """A stable hash of the fields that determine one interval's vector.

        This is the most granular cache key: given a benchmark and an
        interval index, these fields alone fix the 69 measured values.
        Sampling fields (``seed``, ``intervals_per_benchmark``) decide
        *which* intervals are characterized, not what each one yields,
        so they are excluded — a reseeded or resized sampling run reuses
        every per-interval vector it has seen before.  Keys the
        per-benchmark feature blocks
        (:class:`repro.io.FeatureBlockCache`).
        """
        relevant = {
            "interval_instructions": self.interval_instructions,
            "ilp_sample_instructions": self.ilp_sample_instructions,
            "ppm_sample_branches": self.ppm_sample_branches,
        }
        blob = json.dumps(relevant, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def full_key(self) -> str:
        """A stable hash of *every* field.

        Keys the analysis/GA stage checkpoints and service jobs, which
        depend on the analysis parameters as well as the featurization
        parameters.  Execution knobs (``n_jobs``,
        ``parallel_backend``) are excluded: they change how fast the
        answer arrives, never what it is.
        """
        fields = dataclasses.asdict(self)
        for knob in self.EXECUTION_KNOBS:
            fields.pop(knob, None)
        blob = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]
