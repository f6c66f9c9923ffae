"""The sampled, characterized workload data set.

A :class:`WorkloadDataset` is the matrix the statistics pipeline works
on: one row per sampled interval, one column per MICA characteristic,
with parallel arrays recording which suite/benchmark/interval each row
came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..config import AnalysisConfig
from ..mica import N_FEATURES, batch_slices, characterize_intervals
from ..mica.workspace import Workspace, thread_workspace
from ..obs import emit_progress, get_logger, metrics, span
from ..parallel import get_executor
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


def _featurize_batch(
    bench: Benchmark, chunk, config: AnalysisConfig, ws: Workspace
) -> np.ndarray:
    """Feature rows of one fused batch, synthesized and metered in ``ws``.

    ``chunk`` holds ``(row, interval index)`` pairs.  Each interval is
    generated straight into its slice of the workspace's trace columns,
    under one ``synth.generate`` span, and the fused pass reads the
    columns in place.
    """
    n = config.interval_instructions
    batch = ws.batch([n] * len(chunk))
    with span("synth.generate", intervals=len(chunk), instructions=len(chunk) * n):
        for k, (_, interval_idx) in enumerate(chunk):
            bench.program.interval_trace(interval_idx, n, out=batch[k])
    return characterize_intervals(batch, config)


def featurize_picks(
    bench: Benchmark,
    picks: np.ndarray,
    config: AnalysisConfig,
    ws: Workspace,
    known: Dict[int, np.ndarray],
    cached: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, int, int]:
    """``(rows, n_unique, n_computed)`` for a run of one benchmark's
    sorted picks, duplicates characterized once and replicated.

    A pick's vector comes from ``known`` (computed earlier in this build
    or sweep), else ``cached`` (a feature block), else the fused meters
    in ``ws``, in :data:`~repro.mica.FUSED_BATCH_INSTRUCTIONS`-bounded
    batches; computed vectors join ``known``.  Vectors are bit-identical
    however the picks are split (``tests/mica/test_fused.py``).
    """
    unique_picks, inverse = np.unique(picks, return_inverse=True)
    vectors = np.empty((len(unique_picks), N_FEATURES), dtype=np.float64)
    to_compute = []  # (row, interval index) pairs with no vector yet
    for j, interval_idx in enumerate(unique_picks.tolist()):
        vec = known.get(interval_idx)
        if vec is None and cached is not None:
            vec = cached.get(interval_idx)
        if vec is None:
            to_compute.append((j, interval_idx))
        else:
            vectors[j] = vec
    for batch in batch_slices(len(to_compute), config.interval_instructions):
        chunk = to_compute[batch]
        matrix = _featurize_batch(bench, chunk, config, ws)
        for (j, interval_idx), vec in zip(chunk, matrix):
            known[interval_idx] = vec
            vectors[j] = vec
    return vectors[inverse], len(unique_picks), len(to_compute)


def _characterize_benchmark(payload, index: int):
    """Characterize one benchmark's planned picks (executor task body).

    Returns ``(rows, n_unique, fresh)`` where the rows already have
    duplicate picks replicated (so the parent only concatenates) and
    ``fresh`` maps the interval indices characterized on this run —
    not served from a feature block — to their vectors.
    """
    plan, config, cached_blocks = payload
    bench, picks = plan.benchmarks[index], plan.picks[index]
    cached = cached_blocks.get(bench.key) if cached_blocks else None
    fresh: Dict[int, np.ndarray] = {}
    with span("mica", benchmark=bench.key) as sp, thread_workspace() as ws:
        rows, n_unique, n_computed = featurize_picks(
            bench, picks, config, ws, fresh, cached
        )
        sp.set(characterized=n_computed, cached=n_unique - n_computed)
    updates = [
        ("dataset.rows", float(len(picks))),
        ("dataset.unique_intervals", float(n_unique)),
        ("dataset.intervals_characterized", float(n_computed)),
    ]
    if cached_blocks is not None:
        updates.append(("feature_blocks.interval_hits", float(n_unique - n_computed)))
        updates.append(("feature_blocks.interval_misses", float(n_computed)))
    metrics().counter_add_many(updates)
    return rows, n_unique, fresh


def build_dataset(
    benchmarks: Sequence[Benchmark],
    config: AnalysisConfig,
    *,
    counts: Optional[Dict[str, int]] = None,
    feature_cache=None,
) -> WorkloadDataset:
    """Sample and characterize intervals for the given benchmarks.

    For each benchmark, ``config.intervals_per_benchmark`` intervals are
    selected (step 2 of the methodology, :func:`build_sampling_plan`)
    and characterized with the 69 MICA metrics (step 1,
    :func:`featurize_picks`).  Duplicate interval picks — which occur
    for benchmarks shorter than the sample size — are characterized
    once and their rows replicated.

    Benchmarks are independent (each draws its randomness from its own
    keyed stream), so they fan out across ``config.n_jobs`` workers; the
    assembled dataset is bit-identical to a serial build for any worker
    count.  One INFO log line per benchmark reports progress,
    always in benchmark order.

    Args:
        benchmarks: the workloads to include.
        config: scale parameters, including ``n_jobs`` and
            ``parallel_backend``.
        counts: optional per-benchmark sample-count overrides keyed by
            benchmark key (``suite/name``).  Used by the interval-
            sampling ablation to weight benchmarks by their dynamic
            length instead of equally.
        feature_cache: optional
            :class:`~repro.io.FeatureBlockCache`.  Cached per-interval
            vectors are loaded before dispatch (workers inherit them via
            the payload), only uncached intervals are characterized, and
            each benchmark's newly computed vectors are merged back into
            its block as soon as it finishes (in the parent, in
            benchmark order).

    Returns:
        The assembled :class:`WorkloadDataset`.
    """
    plan = build_sampling_plan(benchmarks, config, counts=counts)
    executor = get_executor(config.parallel_backend, config.n_jobs)
    cached_blocks = None
    if feature_cache is not None:
        cached_blocks = {
            b.key: feature_cache.load(b.key, config) for b in benchmarks
        }

    def report(i: int, result) -> None:
        n_unique, fresh = result[1], result[2]
        # Store each benchmark as it finishes, so a build killed midway
        # resumes from the benchmarks it completed.
        if feature_cache is not None and fresh:
            feature_cache.store(benchmarks[i].key, config, fresh)
        log.info(
            "characterized %s: %d unique intervals (%d computed)",
            benchmarks[i].key,
            n_unique,
            len(fresh),
        )
        # The sampling plan fixes the total up front, so fraction/ETA
        # are exact; on_result fires in submission order, so `i + 1`
        # benchmarks are done when benchmark `i` reports.
        emit_progress("dataset.build", i + 1, len(benchmarks))

    # Tasks that run on this thread share its workspace.
    with span("dataset.build", benchmarks=len(benchmarks)), thread_workspace():
        blocks = executor.map(
            _characterize_benchmark,
            range(len(benchmarks)),
            payload=(plan, config, cached_blocks),
            labels=[b.key for b in benchmarks],
            on_result=report,
        )
    suites, names, indices = plan.provenance()
    return WorkloadDataset(
        features=np.vstack([rows for rows, _, _ in blocks]),
        suites=suites,
        benchmarks=names,
        interval_indices=indices,
    )


@dataclass(frozen=True)
class SamplingPlan:
    """The dataset's row layout, known before any interval is featurized.

    Sampling (methodology step 2) depends only on the config and each
    benchmark's nominal length, so the full row sequence — benchmark
    order, per-benchmark sorted picks, duplicates included — is fixed
    upfront.  Both engines build from it: :func:`build_dataset`
    featurizes it benchmark by benchmark and the streaming engine
    batch by batch (:func:`iter_feature_batches`), so streamed results
    align row-for-row with materialized ones.
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

    @cached_property
    def _provenance(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        suites = np.concatenate(
            [np.repeat(b.suite, len(p)) for b, p in zip(self.benchmarks, self.picks)]
        )
        names = np.concatenate(
            [np.repeat(b.name, len(p)) for b, p in zip(self.benchmarks, self.picks)]
        )
        indices = np.concatenate(self.picks).astype(np.int64)
        return suites, names, indices

    def provenance(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(suites, benchmarks, interval_indices)`` row arrays.

        Built once per plan; callers share the arrays.
        """
        return self._provenance


def build_sampling_plan(
    benchmarks: Sequence[Benchmark],
    config: AnalysisConfig,
    *,
    counts: Optional[Dict[str, int]] = None,
) -> SamplingPlan:
    """Draw every benchmark's interval picks without featurizing any.

    Each benchmark's ``config.intervals_per_benchmark`` picks (or its
    ``counts`` override) come from its own keyed stream, sorted, under
    a ``sampling`` span.  Fixing them upfront gives both engines one
    row layout — total rows, restart initialization rows, batch
    boundaries — before the first trace is generated.
    """
    if not benchmarks:
        raise ValueError("need at least one benchmark")
    picks = []
    for bench in benchmarks:
        n_samples = config.intervals_per_benchmark
        if counts is not None:
            n_samples = counts.get(bench.key, n_samples)
        with span("sampling", benchmark=bench.key) as sp:
            bench_picks = sample_interval_indices(bench, n_samples, seed=config.seed)
            sp.set(picks=len(bench_picks), unique=len(set(bench_picks.tolist())))
        picks.append(bench_picks)
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
    rows plus one :class:`~repro.mica.workspace.Workspace`, the trace
    columns and fused-pass arena of one fused batch (at most
    :data:`~repro.mica.FUSED_BATCH_INSTRUCTIONS` instructions), reused
    by every fused batch of the sweep — never the whole matrix.  The
    provenance arrays are slices of the plan's.  Batches may span
    benchmark boundaries; that changes nothing, because intervals are
    seeded and metered independently (:func:`featurize_picks`).

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
    suites, names, indices = plan.provenance()
    cached: Optional[Dict[int, np.ndarray]] = None
    fresh: Dict[int, np.ndarray] = {}
    current_bench = -1
    # One workspace for the sweep; it lives in this generator, so
    # whichever thread advances it owns the workspace meanwhile.
    ws = Workspace()
    for start in range(0, total, batch_intervals):
        stop = min(start + batch_intervals, total)
        features = np.empty((stop - start, N_FEATURES), dtype=np.float64)
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
            seg_picks = indices[lo:hi]
            rows, _, n_computed = featurize_picks(
                bench, seg_picks, config, ws, fresh, cached
            )
            features[lo - start : hi - start] = rows
            metrics().counter_add_many(
                [
                    ("streaming.rows", float(hi - lo)),
                    ("streaming.intervals_characterized", float(n_computed)),
                ]
            )
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
            suites=suites[start:stop],
            benchmarks=names[start:stop],
            interval_indices=indices[start:stop],
        )
