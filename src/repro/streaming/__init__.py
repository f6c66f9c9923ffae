"""Bounded-memory streaming characterization.

The exact pipeline (:mod:`repro.core`) materializes the full sampled
feature matrix before any statistics run — ``O(n)`` memory in the
number of sampled intervals.  This package runs the same methodology
in streaming form: traces are generated and featurized
``batch_intervals`` rows at a time (:func:`repro.core.iter_feature_batches`),
PCA is fitted from fixed-size sufficient statistics
(:class:`repro.stats.IncrementalPCA`), and clustering runs exact
streaming Lloyd — one Lloyd iteration per stream pass
(:class:`repro.stats.StreamingLloyd`) — under the exact path's
restart/seed-stream/BIC discipline.  Peak memory is ``O(batch)`` plus
the deliberately-retained per-row label/pick vectors (8 bytes/row),
regardless of trace length.  The plan is featurized exactly once: the
first sweep, one batch produced ahead by
:func:`repro.parallel.prefetch_iter`, tees every batch into a
memory-mapped spool (:class:`repro.io.FeatureSpool`, via
:class:`~repro.streaming.source.BatchSource`) in a per-run temporary
directory, and later passes replay it zero-copy — bit-identical to
recomputation.  Across runs, featurized rows are reused only through
the feature-block cache (:class:`repro.io.FeatureBlockCache`), the
store the exact path uses too.

The exact path stays the default and pins correctness; streaming is
*approximate*, with its gap pinned by ``tests/streaming`` (BIC-selected
non-empty cluster count within ±1 of exact, cluster-composition
agreement >= 95%) and its memory contract gated by
``benchmarks/bench_streaming_memory.py``.
"""

from .engine import (
    StreamingCharacterization,
    run_streaming_characterization,
)
from .result import load_streaming_result, save_streaming_result
from .source import BatchSource

__all__ = [
    "BatchSource",
    "StreamingCharacterization",
    "load_streaming_result",
    "run_streaming_characterization",
    "save_streaming_result",
]
