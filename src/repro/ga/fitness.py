"""GA fitness: distance preservation under feature subsetting.

The paper's fitness for a candidate characteristic subset is the
Pearson correlation between (a) the pairwise distances of the prominent
phases in the workload space built from *all* characteristics and (b)
their distances in the space built from only the *selected*
characteristics.  Both spaces are constructed with the full
normalize → PCA → retain → rescale pipeline, "to discount the
correlation between program characteristics ... from the distance
measure".

Candidate spaces are built through :class:`repro.stats.GramPCA`: the
normalization statistics and the feature Gram matrix are computed once,
so each mask costs an ``(m, m)`` eigendecomposition instead of an
``(n, m)`` SVD, and a whole GA population is evaluated with batched
decompositions via :meth:`DistanceCorrelationFitness.evaluate_population`.
Scores are memoized in a bounded LRU keyed by the mask bits.

Everything that depends only on the reference space is computed once at
construction: the condensed-pair indices (``np.triu_indices`` and their
flat offsets into an ``(n, n)`` matrix), the centred reference
distances and their sum of squares.  A fresh mask then costs one
``(m, m)`` eigendecomposition, one ``(n, k)`` projection and rescale,
one ``(n, n)`` Gram product, and elementwise work over the
``n(n-1)/2`` condensed pairs only, with no full distance matrix and no
reference reductions.  Scores are bit-identical to
``pearson(condensed_distances(space), reference_distances)``, which
stays the oracle the tests check against.

The cache's hit/lookup counters (:meth:`~DistanceCorrelationFitness.
cache_info`) are the GA's main health signal; the selection loop
publishes them per generation as ``ga.fitness_cache.*`` gauges through
the obs layer (:mod:`repro.obs`), which replaced the old
``progress``-callback print plumbing as the primary sink.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..stats import GramPCA, condensed_distances, rescaled_pca_space

#: Default cap on memoized mask scores.  A GA run touches
#: populations × pop_size fresh masks per generation at most; 65536
#: comfortably covers the paper's configuration while bounding memory.
DEFAULT_CACHE_SIZE = 65536


class DistanceCorrelationFitness:
    """Callable fitness evaluating subsets against a reference space.

    Args:
        phase_matrix: raw characteristics of the prominent phases,
            shape ``(n_phases, n_features)``.
        pca_min_std: retention threshold used in both spaces.
        cache_size: maximum number of memoized mask scores (LRU
            eviction); ``None`` disables the bound.
    """

    def __init__(
        self,
        phase_matrix: np.ndarray,
        *,
        pca_min_std: float = 1.0,
        cache_size: int | None = DEFAULT_CACHE_SIZE,
    ) -> None:
        if phase_matrix.ndim != 2 or len(phase_matrix) < 3:
            raise ValueError("need at least 3 phases to correlate distances")
        self.phase_matrix = np.asarray(phase_matrix, dtype=np.float64)
        self.pca_min_std = pca_min_std
        reference_space = rescaled_pca_space(self.phase_matrix, min_std=pca_min_std)
        self.reference_distances = condensed_distances(reference_space)
        # Reference-only terms of ``pearson(condensed_distances(space),
        # reference_distances)``, hoisted out of the per-mask score.
        n = len(self.phase_matrix)
        self._pair_i, self._pair_j = np.triu_indices(n, k=1)
        self._pair_flat = self._pair_i * n + self._pair_j
        self._ref_centered = self.reference_distances - self.reference_distances.mean()
        self._ref_ss = (self._ref_centered**2).sum()
        self._gram_pca = GramPCA(self.phase_matrix, min_std=pca_min_std)
        if cache_size is not None and cache_size < 1:
            raise ValueError("cache_size must be >= 1 (or None)")
        self._cache: OrderedDict[bytes, float] = OrderedDict()
        self._cache_size = cache_size
        self._lookups = 0
        self._hits = 0

    @property
    def n_features(self) -> int:
        return self.phase_matrix.shape[1]

    def cache_info(self) -> dict:
        """Lookup/hit counters and current size of the score cache."""
        return {
            "lookups": self._lookups,
            "hits": self._hits,
            "hit_rate": self._hits / self._lookups if self._lookups else 0.0,
            "size": len(self._cache),
            "max_size": self._cache_size,
        }

    def _check(self, mask: np.ndarray) -> np.ndarray:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_features,):
            raise ValueError("mask has the wrong length")
        return mask

    def _cache_get(self, key: bytes) -> float | None:
        self._lookups += 1
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            self._cache.move_to_end(key)
        return cached

    def _cache_put(self, key: bytes, score: float) -> None:
        self._cache[key] = score
        self._cache.move_to_end(key)
        if self._cache_size is not None:
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    def _score_space(self, space: np.ndarray) -> float:
        """``pearson(condensed_distances(space), reference_distances)``.

        Builds only the condensed pairs of the expanded-norm distance
        matrix and correlates them against the precomputed reference
        terms.  Every element goes through the same operations on the
        same operands as in :func:`~repro.stats.condensed_distances` and
        :func:`~repro.stats.pearson` (the ``np.add.reduce`` /
        ``np.maximum`` calls are what ``sum``/``mean``/``clip`` run,
        minus their Python wrappers), so the score is bit-identical.
        """
        sq = np.add.reduce(space * space, axis=1)
        gram = space @ space.T
        d = sq[self._pair_i] + sq[self._pair_j] - 2.0 * gram.ravel()[self._pair_flat]
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        d -= np.add.reduce(d) / len(d)
        denom = np.sqrt(np.add.reduce(d * d) * self._ref_ss)
        if denom == 0:
            return 0.0
        return float(np.add.reduce(d * self._ref_centered) / denom)

    def __call__(self, mask: np.ndarray) -> float:
        """Fitness of a boolean feature mask (higher is better)."""
        return self.evaluate_population([mask])[0]

    def evaluate_population(self, masks: Sequence[np.ndarray]) -> list:
        """Score many masks at once, batching the PCA decompositions.

        Duplicate and previously seen masks are served from the cache;
        the remainder are decomposed with stacked ``eigh`` calls grouped
        by subset cardinality.  Returns scores in input order.
        """
        masks = [self._check(m) for m in masks]
        scores: list = [None] * len(masks)
        fresh: OrderedDict[bytes, list] = OrderedDict()
        for i, mask in enumerate(masks):
            if not mask.any():
                scores[i] = -1.0
                continue
            key = mask.tobytes()
            cached = self._cache_get(key)
            if cached is not None:
                scores[i] = cached
            else:
                fresh.setdefault(key, []).append(i)
        if fresh:
            todo = [masks[positions[0]] for positions in fresh.values()]
            spaces = self._gram_pca.spaces(todo)
            for (key, positions), space in zip(fresh.items(), spaces):
                score = self._score_space(space)
                self._cache_put(key, score)
                for i in positions:
                    scores[i] = score
        return scores
