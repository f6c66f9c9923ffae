"""The sampled, characterized workload data set.

A :class:`WorkloadDataset` is the matrix the statistics pipeline works
on: one row per sampled interval, one column per MICA characteristic,
with parallel arrays recording which suite/benchmark/interval each row
came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..config import AnalysisConfig
from ..mica import N_FEATURES, batch_slices, characterize_intervals
from ..obs import emit_progress, get_logger, metrics, span
from ..parallel import Executor, get_executor
from ..suites import Benchmark
from .sampling import sample_interval_indices

log = get_logger(__name__)


@dataclass
class WorkloadDataset:
    """Characterized sampled intervals with provenance.

    Attributes:
        features: ``(n_rows, 69)`` raw characteristic matrix.
        suites: suite name per row.
        benchmarks: benchmark name per row.
        interval_indices: source interval index per row.
    """

    features: np.ndarray
    suites: np.ndarray
    benchmarks: np.ndarray
    interval_indices: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.features)
        for name in ("suites", "benchmarks", "interval_indices"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"dataset field {name} length mismatch")
        if self.features.ndim != 2 or self.features.shape[1] != N_FEATURES:
            raise ValueError(f"features must be (n, {N_FEATURES})")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def benchmark_keys(self) -> np.ndarray:
        """``suite/name`` key per row."""
        return np.char.add(np.char.add(self.suites.astype(str), "/"), self.benchmarks.astype(str))

    def suite_names(self) -> List[str]:
        """Distinct suites, in order of first appearance."""
        seen: Dict[str, None] = {}
        for s in self.suites:
            seen.setdefault(str(s), None)
        return list(seen)

    def rows_for_suite(self, suite: str) -> np.ndarray:
        """Boolean mask of the rows belonging to a suite."""
        return self.suites == suite

    def rows_for_benchmark(self, suite: str, name: str) -> np.ndarray:
        """Boolean mask of the rows belonging to one benchmark."""
        return (self.suites == suite) & (self.benchmarks == name)


def _batch_traces(bench: Benchmark, chunk, config: AnalysisConfig) -> list:
    """Generate one fused batch's interval traces, under a ``synth.generate`` span.

    ``chunk`` holds ``(row, interval index)`` pairs.
    """
    n = config.interval_instructions
    with span("synth.generate", intervals=len(chunk), instructions=len(chunk) * n):
        return list(bench.program.iter_interval_traces([idx for _, idx in chunk], n))


def _characterize_benchmark(payload, index: int):
    """Sample and characterize one benchmark (executor task body).

    Returns ``(feature_block, picks, n_unique, fresh)`` where the block
    already has duplicate picks replicated (so the parent only
    concatenates) and ``fresh`` maps the interval indices characterized
    on this run — not served from a feature block — to their vectors.
    """
    benchmarks, config, counts, cached_blocks = payload
    bench = benchmarks[index]
    n_samples = config.intervals_per_benchmark
    if counts is not None:
        n_samples = counts.get(bench.key, n_samples)
    with span("sampling", benchmark=bench.key) as sp:
        picks = sample_interval_indices(bench, n_samples, seed=config.seed)
        unique_picks, inverse = np.unique(picks, return_inverse=True)
        sp.set(picks=len(picks), unique=len(unique_picks))
    cached = cached_blocks.get(bench.key) if cached_blocks else None
    vectors = np.empty((len(unique_picks), N_FEATURES), dtype=np.float64)
    fresh = {}
    with span("mica", benchmark=bench.key) as sp:
        to_compute = []  # (row, interval index) pairs not served from cache
        for j, interval_idx in enumerate(unique_picks):
            interval_idx = int(interval_idx)
            vec = cached.get(interval_idx) if cached else None
            if vec is None:
                to_compute.append((j, interval_idx))
            else:
                vectors[j] = vec
        # Uncached intervals are characterized in fused batches: one
        # whole-trace pass over many concatenated intervals (bounded by
        # FUSED_BATCH_INSTRUCTIONS) instead of one meter run each.
        for batch in batch_slices(len(to_compute), config.interval_instructions):
            chunk = to_compute[batch]
            matrix = characterize_intervals(_batch_traces(bench, chunk, config), config)
            for (j, interval_idx), vec in zip(chunk, matrix):
                fresh[interval_idx] = vec
                vectors[j] = vec
        sp.set(characterized=len(fresh), cached=len(unique_picks) - len(fresh))
    updates = [
        ("dataset.rows", float(len(picks))),
        ("dataset.unique_intervals", float(len(unique_picks))),
        ("dataset.intervals_characterized", float(len(fresh))),
    ]
    if cached_blocks is not None:
        updates.append(
            ("feature_blocks.interval_hits", float(len(unique_picks) - len(fresh)))
        )
        updates.append(("feature_blocks.interval_misses", float(len(fresh))))
    metrics().counter_add_many(updates)
    return vectors[inverse], picks, len(unique_picks), fresh


def build_dataset(
    benchmarks: Sequence[Benchmark],
    config: AnalysisConfig,
    *,
    progress: Optional[Callable[[str], None]] = None,
    counts: Optional[Dict[str, int]] = None,
    executor: Optional[Executor] = None,
    feature_cache=None,
) -> WorkloadDataset:
    """Sample and characterize intervals for the given benchmarks.

    For each benchmark, ``config.intervals_per_benchmark`` intervals are
    selected (step 2 of the methodology) and characterized with the 69
    MICA metrics (step 1).  Duplicate interval picks — which occur for
    benchmarks shorter than the sample size — are characterized once and
    their rows replicated.

    Benchmarks are independent (each draws its randomness from its own
    keyed stream), so they fan out across ``config.n_jobs`` workers; the
    assembled dataset is bit-identical to a serial build for any worker
    count or backend.

    Args:
        benchmarks: the workloads to include.
        config: scale parameters, including ``n_jobs`` and
            ``parallel_backend``.
        progress: optional callback receiving one message per benchmark,
            always in benchmark order.  *Deprecated:* the same lines are
            now emitted at INFO level through :mod:`repro.obs.log`
            (enable with ``repro.obs.configure_logging``); the callback
            is kept as a thin adapter for backward compatibility.
        counts: optional per-benchmark sample-count overrides keyed by
            benchmark key (``suite/name``).  Used by the interval-
            sampling ablation to weight benchmarks by their dynamic
            length instead of equally.
        executor: override the executor built from ``config`` (used by
            the scaling bench to pin a backend).
        feature_cache: optional
            :class:`~repro.io.FeatureBlockCache`.  Cached per-interval
            vectors are loaded before dispatch (workers inherit them via
            the payload), only uncached intervals are characterized, and
            newly computed vectors are merged back into the blocks.

    Returns:
        The assembled :class:`WorkloadDataset`.
    """
    if not benchmarks:
        raise ValueError("need at least one benchmark")
    if executor is None:
        executor = get_executor(config.parallel_backend, config.n_jobs)
    cached_blocks = None
    if feature_cache is not None:
        cached_blocks = {
            b.key: feature_cache.load(b.key, config) for b in benchmarks
        }

    def report(i: int, result) -> None:
        n_unique, fresh = result[2], result[3]
        line = (
            f"characterized {benchmarks[i].key}: {n_unique} unique intervals"
            f" ({len(fresh)} computed)"
        )
        log.info("%s", line)
        # The sampling plan fixes the total up front, so fraction/ETA
        # are exact; on_result fires in submission order, so `i + 1`
        # benchmarks are done when benchmark `i` reports.
        emit_progress("dataset.build", i + 1, len(benchmarks))
        if progress is not None:
            progress(line)

    with span("dataset.build", benchmarks=len(benchmarks)):
        blocks = executor.map(
            _characterize_benchmark,
            range(len(benchmarks)),
            payload=(benchmarks, config, counts, cached_blocks),
            labels=[b.key for b in benchmarks],
            on_result=report,
        )
    rows: List[np.ndarray] = []
    suites: List[str] = []
    names: List[str] = []
    indices: List[int] = []
    for bench, (block, picks, _, fresh) in zip(benchmarks, blocks):
        if feature_cache is not None and fresh:
            feature_cache.store(bench.key, config, fresh)
        rows.append(block)
        suites.extend([bench.suite] * len(picks))
        names.extend([bench.name] * len(picks))
        indices.extend(int(i) for i in picks)
    return WorkloadDataset(
        features=np.vstack(rows),
        suites=np.array(suites),
        benchmarks=np.array(names),
        interval_indices=np.array(indices, dtype=np.int64),
    )


@dataclass(frozen=True)
class SamplingPlan:
    """The dataset's row layout, known before any interval is featurized.

    Sampling (methodology step 2) depends only on the config and each
    benchmark's nominal length, so the full row sequence — benchmark
    order, per-benchmark sorted picks, duplicates included — is fixed
    upfront.  The streaming path plans against it: row ``i`` of the
    plan is row ``i`` of the exact path's :class:`WorkloadDataset`, so
    streamed results align row-for-row with materialized ones.
    """

    benchmarks: Tuple[Benchmark, ...]
    picks: Tuple[np.ndarray, ...]

    @property
    def offsets(self) -> np.ndarray:
        """Global row offset of each benchmark's first row (+ total)."""
        return np.concatenate(
            [[0], np.cumsum([len(p) for p in self.picks])]
        ).astype(np.int64)

    @property
    def total_rows(self) -> int:
        return int(sum(len(p) for p in self.picks))

    def provenance(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(suites, benchmarks, interval_indices)`` row arrays."""
        suites = np.concatenate(
            [np.repeat(b.suite, len(p)) for b, p in zip(self.benchmarks, self.picks)]
        )
        names = np.concatenate(
            [np.repeat(b.name, len(p)) for b, p in zip(self.benchmarks, self.picks)]
        )
        indices = np.concatenate(self.picks).astype(np.int64)
        return suites, names, indices


def build_sampling_plan(
    benchmarks: Sequence[Benchmark],
    config: AnalysisConfig,
    *,
    counts: Optional[Dict[str, int]] = None,
) -> SamplingPlan:
    """Draw every benchmark's interval picks without featurizing any.

    Identical sampling discipline to :func:`build_dataset` (same keyed
    streams, same sort, same duplicate handling), factored out so the
    streaming engine can fix the row layout — total rows, restart
    initialization rows, batch boundaries — before the first trace is
    generated.
    """
    if not benchmarks:
        raise ValueError("need at least one benchmark")
    picks = []
    for bench in benchmarks:
        n_samples = config.intervals_per_benchmark
        if counts is not None:
            n_samples = counts.get(bench.key, n_samples)
        picks.append(sample_interval_indices(bench, n_samples, seed=config.seed))
    return SamplingPlan(benchmarks=tuple(benchmarks), picks=tuple(picks))


@dataclass(frozen=True)
class FeatureBatch:
    """One streamed slice of the dataset: consecutive plan rows.

    ``features[i]`` belongs to global row ``start + i``; the
    provenance arrays are row-parallel, exactly like
    :class:`WorkloadDataset` fields restricted to the slice.
    """

    start: int
    features: np.ndarray
    suites: np.ndarray
    benchmarks: np.ndarray
    interval_indices: np.ndarray

    def __len__(self) -> int:
        return len(self.features)


def _featurize_segment(
    bench: Benchmark,
    config: AnalysisConfig,
    seg_picks: np.ndarray,
    cached: Optional[Dict[int, np.ndarray]],
    fresh: Dict[int, np.ndarray],
) -> np.ndarray:
    """Feature rows for one benchmark's slice of a streaming batch.

    Same featurization discipline as :func:`_characterize_benchmark`:
    duplicates collapse to one computation, cached vectors short-
    circuit, uncached intervals run through the fused whole-trace
    meters in :data:`~repro.mica.FUSED_BATCH_INSTRUCTIONS`-bounded
    groups.  Per-interval vectors are bit-identical regardless of how
    the stream is batched (pinned in ``tests/mica/test_fused.py``).
    """
    unique_picks, inverse = np.unique(seg_picks, return_inverse=True)
    vectors = np.empty((len(unique_picks), N_FEATURES), dtype=np.float64)
    to_compute = []
    for j, interval_idx in enumerate(unique_picks):
        interval_idx = int(interval_idx)
        vec = fresh.get(interval_idx)
        if vec is None and cached is not None:
            vec = cached.get(interval_idx)
        if vec is None:
            to_compute.append((j, interval_idx))
        else:
            vectors[j] = vec
    for batch in batch_slices(len(to_compute), config.interval_instructions):
        chunk = to_compute[batch]
        matrix = characterize_intervals(_batch_traces(bench, chunk, config), config)
        for (j, interval_idx), vec in zip(chunk, matrix):
            fresh[interval_idx] = vec
            vectors[j] = vec
    metrics().counter_add_many(
        [
            ("streaming.rows", float(len(seg_picks))),
            ("streaming.intervals_characterized", float(len(to_compute))),
        ]
    )
    return vectors[inverse]


def iter_feature_batches(
    plan: SamplingPlan,
    config: AnalysisConfig,
    *,
    batch_intervals: Optional[int] = None,
    feature_cache=None,
) -> Iterator[FeatureBatch]:
    """Featurize the plan's rows in bounded, consecutive batches.

    The bounded-memory featurization front of the streaming engine:
    each yielded :class:`FeatureBatch` covers the next
    ``batch_intervals`` plan rows (the last one may be shorter), and
    the working set is ``O(batch_intervals)`` — one batch of feature
    rows plus at most one in-flight interval trace — never the whole
    matrix.  Batches may span benchmark boundaries; that changes
    nothing, because intervals are seeded and metered independently.

    With a ``feature_cache``, each benchmark's block is loaded when
    the stream enters the benchmark and dropped when it leaves, and
    newly computed vectors are merged back at the same moment — so a
    cache-warm pass computes nothing, and memory gains one block
    (``O(intervals_per_benchmark)``), still independent of the total
    stream length.  Without a cache only the previous segment's last
    vector is carried, to serve a duplicate pick straddling a batch
    boundary.
    """
    if batch_intervals is None:
        batch_intervals = config.batch_intervals
    if batch_intervals < 1:
        raise ValueError("batch_intervals must be >= 1")
    offsets = plan.offsets
    total = plan.total_rows
    cached: Optional[Dict[int, np.ndarray]] = None
    fresh: Dict[int, np.ndarray] = {}
    current_bench = -1
    for start in range(0, total, batch_intervals):
        stop = min(start + batch_intervals, total)
        features = np.empty((stop - start, N_FEATURES), dtype=np.float64)
        suites: List[str] = []
        names: List[str] = []
        indices: List[int] = []
        for i, bench in enumerate(plan.benchmarks):
            lo = max(start, int(offsets[i]))
            hi = min(stop, int(offsets[i + 1]))
            if lo >= hi:
                continue
            if i != current_bench:
                current_bench = i
                fresh = {}
                cached = (
                    feature_cache.load(bench.key, config)
                    if feature_cache is not None
                    else None
                )
            seg_picks = plan.picks[i][lo - int(offsets[i]) : hi - int(offsets[i])]
            features[lo - start : hi - start] = _featurize_segment(
                bench, config, seg_picks, cached, fresh
            )
            suites.extend([bench.suite] * (hi - lo))
            names.extend([bench.name] * (hi - lo))
            indices.extend(int(p) for p in seg_picks)
            if hi == int(offsets[i + 1]):
                # Leaving the benchmark: persist what this pass computed
                # and release its block.
                if feature_cache is not None and fresh:
                    feature_cache.store(bench.key, config, fresh)
                fresh = {}
                cached = None
            elif feature_cache is None and fresh:
                # Bounded carry: only a duplicate of the segment's last
                # pick can recur in the next batch (picks are sorted).
                last = int(seg_picks[-1])
                fresh = {last: fresh[last]} if last in fresh else {}
        yield FeatureBatch(
            start=start,
            features=features,
            suites=np.array(suites),
            benchmarks=np.array(names),
            interval_indices=np.array(indices, dtype=np.int64),
        )
