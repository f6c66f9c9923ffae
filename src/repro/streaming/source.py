"""The engine's featurize-once batch front end.

:class:`BatchSource` sits between the streaming engine's passes and
:func:`repro.core.iter_feature_batches`, deciding per sweep whether
batches are *computed* (trace generation + fused meters, produced
:data:`PREFETCH_DEPTH` batch ahead by
:func:`repro.parallel.prefetch_iter`) or *replayed* zero-copy from the
run-scoped :class:`repro.io.FeatureSpool`:

* **raw sweeps** (:meth:`raw_batches`) — the first sweep featurizes
  and spools; every later sweep memory-maps the sealed spool and
  yields bit-identical rows without touching a synthetic trace or a
  MICA meter.
* **projected sweeps** (:meth:`projected_batches`) — once the
  :class:`~repro.stats.StreamingProjector` is frozen after the PCA
  pass, the first projected sweep transforms (replayed) raw rows and
  spools the points; refinement, scoring and drift passes after that
  skip the per-pass ``projector.transform`` entirely.

A corrupt or truncated spool is quarantined on verification failure
and that sweep recomputes, with identical results.  A featurizing
sweep reads and fills the optional feature-block cache, the one store
that carries rows from one run to the next.  The source also
keeps the sweep ledger (featurized vs replayed) that the engine
reports and the pass-count benchmark gates.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..config import AnalysisConfig
from ..core.dataset import FeatureBatch, SamplingPlan, iter_feature_batches
from ..io.spool import FeatureSpool
from ..mica import N_FEATURES
from ..obs import get_logger, metrics
from ..parallel import prefetch_iter
from ..stats import StreamingProjector

log = get_logger(__name__)

#: Spool kind names for the two row spaces.
RAW_KIND = "raw"
PROJECTED_KIND = "proj"

#: Batches produced ahead of consumption on a featurizing sweep.
PREFETCH_DEPTH = 1

__all__ = ["BatchSource", "PROJECTED_KIND", "RAW_KIND"]


class BatchSource:
    """Serve the engine's sweeps, computing once and replaying after.

    Args:
        plan: the fixed row layout all sweeps iterate over.
        config: supplies ``batch_intervals``.
        spool: the run's batch store the first sweep of each kind fills.
        feature_cache: optional per-interval
            :class:`~repro.io.FeatureBlockCache` used on featurizing
            sweeps (orthogonal to the spool: blocks persist single
            intervals across runs and configs, the spool holds this
            run's assembled row matrix across its sweeps).
    """

    def __init__(
        self,
        plan: SamplingPlan,
        config: AnalysisConfig,
        spool: FeatureSpool,
        *,
        feature_cache=None,
    ):
        self.plan = plan
        self.config = config
        self.spool = spool
        self.feature_cache = feature_cache
        self.n_rows = plan.total_rows
        self._suites, self._names, self._indices = plan.provenance()
        #: Sweeps that ran trace generation + meters (the expensive kind).
        self.featurize_sweeps = 0
        #: Sweeps served zero-copy from the spool.
        self.replay_sweeps = 0

    def provenance_rows(
        self, start: int, n: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-parallel ``(suites, benchmarks, interval_indices)`` views."""
        return (
            self._suites[start : start + n],
            self._names[start : start + n],
            self._indices[start : start + n],
        )

    def _batch(self, start: int, features: np.ndarray) -> FeatureBatch:
        suites, names, indices = self.provenance_rows(start, len(features))
        return FeatureBatch(
            start=start,
            features=features,
            suites=suites,
            benchmarks=names,
            interval_indices=indices,
        )

    def _replay(self, kind: str, n_cols: int) -> Optional[Iterator[Tuple[int, np.ndarray]]]:
        replay = self.spool.replay(kind, n_cols, self.config.batch_intervals)
        reg = metrics()
        if replay is None:
            reg.counter_add("spool.misses", 1)
        else:
            self.replay_sweeps += 1
            reg.counter_add("spool.hits", 1)
        return replay

    def raw_batches(self) -> Iterator[FeatureBatch]:
        """One sweep of raw feature rows: replay if spooled, else compute.

        The computing path runs :func:`iter_feature_batches`
        :data:`PREFETCH_DEPTH` batch ahead and tees every batch into
        the spool writer; the spool seals only when the sweep
        completes, so an abandoned or crashed sweep leaves nothing
        replayable behind.
        """
        replay = self._replay(RAW_KIND, N_FEATURES)
        if replay is not None:
            for start, rows in replay:
                yield self._batch(start, rows)
            return
        self.featurize_sweeps += 1
        produced = prefetch_iter(
            iter_feature_batches(self.plan, self.config, feature_cache=self.feature_cache),
            PREFETCH_DEPTH,
        )
        writer = self.spool.writer(RAW_KIND, self.n_rows, N_FEATURES)
        try:
            for batch in produced:
                writer.append(batch.features)
                yield batch
            writer.seal()
        finally:
            writer.abandon()  # a no-op once sealed

    def projected_batches(
        self, projector: StreamingProjector
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """One sweep of rescaled-PCA-space points as ``(start, points)``.

        The first projected sweep transforms the (usually replayed) raw
        rows and spools the points; later sweeps replay them directly
        and never touch the projector.
        """
        d = projector.n_components
        replay = self._replay(PROJECTED_KIND, d)
        if replay is not None:
            yield from replay
            return
        writer = self.spool.writer(PROJECTED_KIND, self.n_rows, d)
        try:
            for batch in self.raw_batches():
                points = projector.transform(batch.features)
                writer.append(points)
                yield batch.start, points
            writer.seal()
        finally:
            writer.abandon()  # a no-op once sealed

    @property
    def spool_bytes(self) -> int:
        """Payload bytes this source's spool has sealed."""
        return self.spool.bytes_written
