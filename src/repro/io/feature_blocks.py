"""Granular per-benchmark feature-block store.

Feature blocks are where featurized rows live.  One entry is one
**(benchmark, interval index) -> 69-vector**, keyed by
:meth:`AnalysisConfig.featurization_key` (the subset of the config
that determines a single interval's vector) — the granularity at which
the methodology characterizes each sampled interval exactly once.
Runs that vary analysis-side parameters, the sampling seed, or the
interval count therefore reuse every interval they have characterized
before and compute only the genuinely new ones.

Two stores use this layout.  ``--feature-cache DIR`` is the one that
carries rows across runs (batch and streaming alike).  Without it,
:func:`repro.core.characterize_to_file` keeps a run-scoped store in
``<output>.stages/feature_blocks/``: each benchmark's rows land there
as it finishes, so a killed, failed or repeated run rebuilds its
dataset from the blocks and featurizes only what is missing.

Layout: one ``.npz`` per benchmark per featurization key, holding the
sorted interval indices and the matching vector rows.  Blocks are
grow-only and persist through the crash-safe artifact store
(:mod:`repro.io.artifacts`): loads are checksum-verified (a corrupt or
truncated block is quarantined and treated as a miss, never loaded as
garbage), and :meth:`FeatureBlockCache.store` holds the block's
advisory lock across its read-merge-write cycle, so concurrent runs
merging into the same block cannot drop each other's entries.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Union

import numpy as np

from ..config import AnalysisConfig
from ..mica import N_FEATURES
from ..obs import get_logger, metrics
from .artifacts import (
    artifact_lock,
    load_or_quarantine,
    quarantine,
    read_artifact,
    write_artifact,
)

PathLike = Union[str, Path]

log = get_logger(__name__)

#: Artifact schema name for one per-benchmark block file.
FEATURE_BLOCK_SCHEMA = "feature_block"

#: Seconds :meth:`FeatureBlockCache.store` waits for another process's
#: merge into the same block.
LOCK_TIMEOUT_S = 600.0


def feature_block_dir(cache_dir: PathLike) -> Path:
    """Where a cache directory keeps its per-benchmark feature blocks."""
    return Path(cache_dir) / "feature_blocks"


class FeatureBlockCache:
    """Per-benchmark, per-interval feature vectors on disk."""

    def __init__(self, root: PathLike):
        self.root = Path(root)

    def path(self, benchmark_key: str, config: AnalysisConfig) -> Path:
        """The block file for one benchmark under one featurization key."""
        safe = benchmark_key.replace("/", "__")
        return self.root / f"block_{safe}_{config.featurization_key()}.npz"

    def load(self, benchmark_key: str, config: AnalysisConfig) -> Dict[int, np.ndarray]:
        """Load a benchmark's cached vectors as ``{interval_index: vector}``.

        Returns an empty dict on a miss; a corrupt, truncated, or
        malformed block is quarantined and treated as a miss (it will
        be rebuilt by the next store).
        """
        path = self.path(benchmark_key, config)
        reg = metrics()
        loaded = load_or_quarantine(
            path,
            lambda p: read_artifact(p, schema=FEATURE_BLOCK_SCHEMA),
            kind="feature block",
        )
        if loaded is None:
            reg.counter_add("feature_blocks.block_misses", 1)
            return {}
        arrays, _ = loaded
        indices = arrays.get("indices")
        vectors = arrays.get("vectors")
        if (
            indices is None
            or vectors is None
            or vectors.ndim != 2
            or vectors.shape != (len(indices), N_FEATURES)
        ):
            log.warning("malformed feature block %s quarantined; treated as a miss", path)
            reg.counter_add("artifact_cache.corrupt", 1)
            if quarantine(path) is not None:
                reg.counter_add("artifact_cache.quarantined", 1)
            reg.counter_add("feature_blocks.block_misses", 1)
            return {}
        reg.counter_add("feature_blocks.block_hits", 1)
        return {int(idx): vectors[j] for j, idx in enumerate(indices)}

    def store(
        self,
        benchmark_key: str,
        config: AnalysisConfig,
        entries: Mapping[int, np.ndarray],
    ) -> None:
        """Merge newly characterized vectors into the benchmark's block.

        The read-merge-write cycle runs under the block's advisory
        lock, so two processes finishing the same benchmark serialize
        their merges instead of the later writer dropping the earlier
        writer's rows.
        """
        if not entries:
            return
        path = self.path(benchmark_key, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        with artifact_lock(path, timeout=LOCK_TIMEOUT_S):
            merged = self.load(benchmark_key, config)
            merged.update(
                {int(k): np.asarray(v, dtype=np.float64) for k, v in entries.items()}
            )
            indices = np.array(sorted(merged), dtype=np.int64)
            vectors = np.vstack([merged[int(i)] for i in indices])
            write_artifact(
                path,
                {"indices": indices, "vectors": vectors},
                schema=FEATURE_BLOCK_SCHEMA,
            )
        metrics().counter_add("feature_blocks.stores", 1)
        log.debug(
            "stored %d vectors (%d new) into %s", len(indices), len(entries), path
        )
