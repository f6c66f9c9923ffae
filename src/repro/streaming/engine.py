"""The streaming characterization engine: featurize → project → cluster.

Orchestrates the bounded-memory analogs of methodology steps 1-4 over
a fixed :class:`~repro.core.SamplingPlan` in repeated passes, none of
which ever holds the full feature matrix:

1. **Statistics pass** — every batch feeds
   :class:`~repro.stats.IncrementalPCA`; the raw feature rows that the
   restart seed streams selected as initial centers are captured on
   the way through.  Finalizing yields the retained
   :class:`~repro.stats.PCAModel` and the rescaled-space projector.
2. **Refinement passes** — every restart's
   :class:`~repro.stats.StreamingLloyd` runs exact Lloyd, one
   iteration per pass, restarts advancing in lock-step over one shared
   sweep; each stops on its own convergence check, the sweep stops
   when all have (at most ``config.kmeans_max_iter`` passes, typically
   far fewer).
3. **Scoring + drift pass** — centers frozen, each restart's
   :class:`~repro.stats.FrozenScorer` accumulates labels, SSE,
   cluster counts and representatives, and the optional live
   :class:`~repro.analysis.StreamingDriftMonitor` folds the very same
   projected batches — one fused sweep, never two.

**Featurize once.**  All of these passes draw their batches from a
:class:`~repro.streaming.source.BatchSource` backed by a
:class:`~repro.io.FeatureSpool` in a per-run temporary directory
(under ``TMPDIR``), removed when the run ends: the first sweep
generates traces and runs the fused MICA meters — one batch produced
ahead of consumption — while teeing the rows to a memory-mapped store;
every later sweep replays them zero-copy and bit-identical, and once
the projector is frozen, refinement/scoring/drift transform the
replayed rows batch by batch.  Pass accounting: exactly **one**
featurization sweep happens per run, out of ``2 + refinement passes``
sweeps in all, the scoring/drift sweep being fused into one.  A spool
that fails verification is quarantined and that sweep recomputes —
results are bit-identical down every path.
Rows outlive the run only through the optional ``feature_cache``
(:class:`~repro.io.FeatureBlockCache`): a rerun with a warm cache
still makes its one featurizing sweep, but every interval is a block
hit, so it generates no trace and runs no meter.

**Shared with the batch pipeline.**  Each step the two engines compute
alike has one implementation: sampling (``build_sampling_plan``),
featurization (``featurize_picks``), restart seeding
(``restart_init_rows``: the plan fixes ``n`` upfront, so restarts
start from the batch path's rows), BIC (``bic_from_stats``), prominent
selection (``rank_prominent``) and the artifact layout
(``analysis_to_artifact``).  Best restart is the highest BIC, ties
toward the lowest restart index.  Three steps differ by design: PCA
(sufficient statistics and the projector's rescale, not an SVD of the
matrix), Lloyd (:class:`~repro.stats.StreamingLloyd`, one pass per
iteration) and representatives (the scorer's running nearest members).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.drift import StreamingDriftMonitor
from ..config import AnalysisConfig
from ..core.dataset import build_sampling_plan
from ..core.prominent import ProminentPhases, rank_prominent
from ..io.spool import FeatureSpool
from ..mica import N_FEATURES
from ..obs import emit_progress, get_logger, metrics, span
from ..stats import (
    Clustering,
    FrozenScorer,
    IncrementalPCA,
    StreamingLloyd,
    StreamingProjector,
)
from ..stats.clustering import restart_init_rows
from ..suites import Benchmark
from ..synth.rng import generator
from .source import BatchSource

log = get_logger(__name__)


@dataclass
class StreamingCharacterization:
    """The streaming analog of :class:`~repro.core.PhaseCharacterization`.

    Holds per-row provenance and labels (8-byte rows — the documented
    ``O(n)`` remainder) but no feature matrix and no projected space;
    those only ever existed one batch at a time.

    Attributes:
        suites / benchmarks / interval_indices: row provenance, aligned
            with the exact path's dataset rows for the same config.
        n_components: retained principal components.
        explained_variance: fraction of variance they explain.
        clustering: best-BIC streaming clustering (``assigned_sq`` is
            ``None``; there are no materialized points to score).
        prominent: prominent-phase selection over the streamed labels.
        batch_intervals: rows per streamed batch.
        featurize_sweeps: sweeps that built raw rows rather than
            replaying the spool (1 per run, one more each time the
            spool fails verification); a warm ``feature_cache`` serves
            such a sweep's intervals without generating any trace.
        replay_sweeps: sweeps served zero-copy from the spool.
        spool_bytes: payload bytes the run sealed into its spool.
    """

    suites: np.ndarray
    benchmarks: np.ndarray
    interval_indices: np.ndarray
    n_components: int
    explained_variance: float
    clustering: Clustering
    prominent: ProminentPhases
    batch_intervals: int
    featurize_sweeps: int = 0
    replay_sweeps: int = 0
    spool_bytes: int = 0

    def __len__(self) -> int:
        return len(self.interval_indices)


def run_streaming_characterization(
    benchmarks: Sequence[Benchmark],
    config: AnalysisConfig,
    *,
    counts: Optional[Dict[str, int]] = None,
    feature_cache=None,
    monitor: Optional[StreamingDriftMonitor] = None,
) -> StreamingCharacterization:
    """Run the bounded-memory characterization end to end.

    Args:
        benchmarks: the workloads to include.
        config: methodology parameters; ``config.batch_intervals``
            bounds the working set and ``config.seed`` drives the same
            sampling and restart streams as the exact path.
        counts: optional per-benchmark sample-count overrides (see
            :func:`~repro.core.build_dataset`).
        feature_cache: optional
            :class:`~repro.io.FeatureBlockCache` consulted on
            featurizing sweeps.  Only the first sweep featurizes, so
            the cache matters for cross-run reuse (the only kind
            there is), not cross-pass reuse.
        monitor: optional live drift monitor, folded into the scoring
            sweep (one fused pass); query it mid-stream from another
            thread or afterwards.

    Returns:
        The :class:`StreamingCharacterization`.
    """
    plan = build_sampling_plan(benchmarks, config, counts=counts)
    n = plan.total_rows
    if n < 2:
        raise ValueError("streaming characterization requires at least two rows")
    k = min(config.n_clusters, n)
    init_rows = restart_init_rows(
        generator("kmeans", config.seed), n, k, config.kmeans_restarts
    )
    # Sorted unique rows for searchsorted, by sort and adjacent-difference
    # mask: a plain np.unique raises peak RSS (~0.5 MB of a tiny run).
    picks = np.sort(np.concatenate(init_rows))
    keep = np.empty(len(picks), dtype=bool)
    keep[:1] = True
    np.not_equal(picks[1:], picks[:-1], out=keep[1:])
    needed = picks[keep]
    captured = np.empty((len(needed), N_FEATURES), dtype=np.float64)

    with tempfile.TemporaryDirectory(prefix="repro-spool-") as root:
        source = BatchSource(plan, config, FeatureSpool(root), feature_cache=feature_cache)
        return _run_passes(
            source, config, monitor, needed, captured, init_rows, k
        )


def _run_passes(
    source: BatchSource,
    config: AnalysisConfig,
    monitor: Optional[StreamingDriftMonitor],
    needed: np.ndarray,
    captured: np.ndarray,
    init_rows: List[np.ndarray],
    k: int,
) -> StreamingCharacterization:
    """Steps 1-3 over whatever the source serves (computed or replayed)."""
    n = source.n_rows
    plan = source.plan
    reg = metrics()
    with span("streaming.pca", rows=n, batch=config.batch_intervals) as sp:
        ipca = IncrementalPCA(N_FEATURES)
        for batch in source.raw_batches():
            ipca.partial_fit(batch.features)
            lo = np.searchsorted(needed, batch.start, side="left")
            hi = np.searchsorted(needed, batch.start + len(batch), side="left")
            if lo < hi:
                captured[lo:hi] = batch.features[needed[lo:hi] - batch.start]
            # The plan fixes n upfront, so per-batch fraction/ETA over
            # the row ledger are exact even on the featurizing sweep.
            emit_progress("streaming.pca", batch.start + len(batch), n)
        model = ipca.finalize().retained(config.pca_min_std)
        projector = StreamingProjector.from_model(model, n)
        explained = float(model.explained_ratio.sum())
        sp.set(n_components=model.n_components, explained_variance=explained)
    reg.gauge_set("streaming.n_components", model.n_components)
    reg.gauge_set("streaming.explained_variance", explained)
    log.info(
        "streaming pca: retained %d components (%.1f%% variance) from %d rows",
        model.n_components,
        100 * explained,
        n,
    )

    init_positions = [np.searchsorted(needed, rows) for rows in init_rows]
    init_centers = [projector.transform(captured[pos]) for pos in init_positions]

    refiners = [
        StreamingLloyd(c, n, config.kmeans_max_iter) for c in init_centers
    ]
    with span("streaming.kmeans", k=k, restarts=len(refiners)) as sp:
        passes = 0
        while True:
            active = [r for r in refiners if r.wants_pass()]
            if not active:
                break
            passes += 1
            for _, points in source.projected_batches(projector):
                for refiner in active:
                    refiner.fold_batch(points)
            for refiner in active:
                refiner.end_pass()
            # Total is the max_iter cap; convergence usually stops the
            # sweep earlier, so the ETA is an upper bound by design.
            emit_progress("streaming.kmeans", passes, config.kmeans_max_iter)
        sp.set(passes=passes)
    reg.gauge_set("streaming.refine_passes", passes)

    # Scoring and drift share one sweep: the scorers and the monitor
    # fold the same projected batches, so a live drift readout costs
    # zero extra passes.
    scorers = [FrozenScorer(refiner.centers, n) for refiner in refiners]
    with span("streaming.score", restarts=len(scorers), fused_drift=monitor is not None):
        for start, points in source.projected_batches(projector):
            for scorer in scorers:
                scorer.score_batch(points)
            if monitor is not None:
                suites, names, _ = source.provenance_rows(start, len(points))
                monitor.update(suites, names, points)
            emit_progress("streaming.score", start + len(points), n)

    d = projector.n_components
    best_index = 0
    best_bic = float("-inf")
    for i, scorer in enumerate(scorers):
        bic = scorer.bic(d)
        if bic > best_bic:
            best_index, best_bic = i, bic
    best = scorers[best_index]
    clustering = Clustering(
        centers=best.centers,
        labels=best.labels,
        bic=best_bic,
        inertia=best.sse,
        n_iter=refiners[best_index].n_iter,
    )
    prominent = rank_prominent(best.counts, n, best.rep_rows, config.n_prominent)
    reg.gauge_set("streaming.best_bic", best_bic)
    reg.gauge_set("streaming.prominent_coverage", prominent.coverage)
    reg.gauge_set("streaming.featurize_sweeps", source.featurize_sweeps)
    reg.gauge_set("streaming.replay_sweeps", source.replay_sweeps)
    reg.gauge_set("spool.bytes_sealed", source.spool_bytes)
    log.info(
        "streaming kmeans: k=%d best BIC %.2f (restart %d of %d, %d passes; "
        "%d featurize + %d replay sweeps, %.1f MB spooled)",
        clustering.k,
        best_bic,
        best_index,
        len(scorers),
        passes,
        source.featurize_sweeps,
        source.replay_sweeps,
        source.spool_bytes / 1e6,
    )
    suites, names, indices = plan.provenance()
    return StreamingCharacterization(
        suites=suites,
        benchmarks=names,
        interval_indices=indices,
        n_components=model.n_components,
        explained_variance=explained,
        clustering=clustering,
        prominent=prominent,
        batch_intervals=config.batch_intervals,
        featurize_sweeps=source.featurize_sweeps,
        replay_sweeps=source.replay_sweeps,
        spool_bytes=source.spool_bytes,
    )
