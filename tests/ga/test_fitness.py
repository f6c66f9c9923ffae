"""Tests for the distance-correlation fitness."""

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.ga import DistanceCorrelationFitness, select_features
from repro.stats import GramPCA, condensed_distances, pearson
from repro.synth import generator


class OracleFitness:
    """Scores a mask with the unhoisted formulation the fast path replaces.

    One ``eigh`` of the mask's Gram block, rescaled with separate
    ``std``/``mean`` calls, then ``pearson(condensed_distances(space),
    reference_distances)`` — the full distance matrix and every
    reference term recomputed per mask.
    """

    def __init__(self, fitness: DistanceCorrelationFitness) -> None:
        self.reference = fitness.reference_distances
        self.gram_pca = GramPCA(fitness.phase_matrix, min_std=fitness.pca_min_std)

    def space(self, mask: np.ndarray) -> np.ndarray:
        g = self.gram_pca
        cols = np.flatnonzero(mask)
        eigvals, eigvecs = np.linalg.eigh(g.gram[np.ix_(cols, cols)])
        stds = np.sqrt(np.clip(eigvals, 0.0, None) / (g.n - 1))
        keep = stds > g.min_std
        if not keep.any():
            keep[-1] = True
        scores = g.z[:, cols] @ eigvecs[:, keep]
        std = scores.std(axis=0)
        scale = np.where(std > 0, std, 1.0)
        return (scores - scores.mean(axis=0)) / scale

    def __call__(self, mask: np.ndarray) -> float:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            return -1.0
        return pearson(condensed_distances(self.space(mask)), self.reference)


@pytest.fixture
def wide():
    """A seeded 100-phase, 69-characteristic matrix (the paper's shape)."""
    rng = np.random.default_rng(2008)
    signal = rng.normal(size=(100, 8))
    mixed = signal @ rng.normal(size=(8, 69))
    return mixed + 0.3 * rng.normal(size=(100, 69))


@pytest.fixture
def phases():
    rng = np.random.default_rng(21)
    # 30 phases over 10 features; the first 3 features carry the signal,
    # the rest echo them with noise (so subsets can do well).
    signal = rng.normal(size=(30, 3))
    echo = signal @ rng.normal(size=(3, 7)) + 0.05 * rng.normal(size=(30, 7))
    return np.hstack([signal, echo])


def test_full_mask_is_perfect(phases):
    fitness = DistanceCorrelationFitness(phases)
    assert fitness(np.ones(10, dtype=bool)) == pytest.approx(1.0)


def test_empty_mask_is_worst(phases):
    fitness = DistanceCorrelationFitness(phases)
    assert fitness(np.zeros(10, dtype=bool)) == -1.0


def test_signal_subset_beats_noise_subset(phases):
    fitness = DistanceCorrelationFitness(phases)
    signal_mask = np.zeros(10, dtype=bool)
    signal_mask[:3] = True
    single = np.zeros(10, dtype=bool)
    single[9] = True
    assert fitness(signal_mask) > fitness(single)


def test_signal_subset_scores_high(phases):
    fitness = DistanceCorrelationFitness(phases)
    mask = np.zeros(10, dtype=bool)
    mask[:3] = True
    assert fitness(mask) > 0.7


def test_mask_length_checked(phases):
    fitness = DistanceCorrelationFitness(phases)
    with pytest.raises(ValueError):
        fitness(np.ones(5, dtype=bool))


def test_caching_returns_identical_values(phases):
    fitness = DistanceCorrelationFitness(phases)
    mask = np.zeros(10, dtype=bool)
    mask[2:6] = True
    assert fitness(mask) == fitness(mask.copy())


def test_requires_three_phases():
    with pytest.raises(ValueError):
        DistanceCorrelationFitness(np.ones((2, 5)))


def test_matches_exact_svd_path(phases):
    # The Gram-matrix PCA must agree with the from-scratch SVD pipeline
    # to numerical precision for every mask cardinality.
    from repro.stats import condensed_distances, pearson, rescaled_pca_space

    fitness = DistanceCorrelationFitness(phases)
    rng = np.random.default_rng(3)
    for size in (1, 2, 5, 10):
        mask = np.zeros(10, dtype=bool)
        mask[rng.choice(10, size=size, replace=False)] = True
        exact_space = rescaled_pca_space(phases[:, mask])
        exact = pearson(
            condensed_distances(exact_space), fitness.reference_distances
        )
        assert fitness(mask) == pytest.approx(exact, abs=1e-10)


def test_batch_matches_sequential(phases):
    rng = np.random.default_rng(4)
    masks = []
    for _ in range(12):
        m = np.zeros(10, dtype=bool)
        m[rng.choice(10, size=int(rng.integers(1, 11)), replace=False)] = True
        masks.append(m)
    masks.append(np.zeros(10, dtype=bool))  # empty mask inline
    batch = DistanceCorrelationFitness(phases).evaluate_population(masks)
    fresh = DistanceCorrelationFitness(phases)
    sequential = [fresh(m) for m in masks]
    assert batch == sequential


def test_fast_path_bit_identical_every_cardinality(phases):
    fitness = DistanceCorrelationFitness(phases)
    oracle = OracleFitness(fitness)
    rng = np.random.default_rng(5)
    for size in range(1, 11):
        mask = np.zeros(10, dtype=bool)
        mask[rng.choice(10, size=size, replace=False)] = True
        assert fitness(mask) == oracle(mask)


@pytest.mark.parametrize("size", [1, 12, 40, 69])
def test_fast_path_bit_identical_on_paper_shape(wide, size):
    fitness = DistanceCorrelationFitness(wide)
    oracle = OracleFitness(fitness)
    rng = np.random.default_rng(size)
    masks = []
    for _ in range(60):
        mask = np.zeros(69, dtype=bool)
        mask[rng.choice(69, size=size, replace=False)] = True
        masks.append(mask)
    # One batch exercises the stacked eigh path as the GA does.
    assert fitness.evaluate_population(masks) == [oracle(m) for m in masks]


def test_ga_run_identical_to_oracle_fitness(wide):
    cfg = AnalysisConfig.tiny().replace(
        ga_populations=2, ga_population_size=16, ga_generations=8
    )
    fast = select_features(
        DistanceCorrelationFitness(wide), 69, 12, config=cfg, rng=generator("ga", 16)
    )
    oracle = select_features(
        OracleFitness(DistanceCorrelationFitness(wide)),
        69,
        12,
        config=cfg,
        rng=generator("ga", 16),
    )
    assert (fast.mask == oracle.mask).all()
    assert fast.fitness == oracle.fitness
    assert fast.history == oracle.history


def test_cache_hit_counters(phases):
    fitness = DistanceCorrelationFitness(phases)
    mask = np.zeros(10, dtype=bool)
    mask[:4] = True
    fitness(mask)
    fitness(mask)
    fitness(mask.copy())
    info = fitness.cache_info()
    assert info["lookups"] == 3
    assert info["hits"] == 2
    assert info["hit_rate"] == pytest.approx(2 / 3)
    assert info["size"] == 1


def test_lru_eviction_bounds_cache(phases):
    fitness = DistanceCorrelationFitness(phases, cache_size=3)
    masks = []
    for i in range(6):
        m = np.zeros(10, dtype=bool)
        m[i] = True
        masks.append(m)
        fitness(m)
    assert fitness.cache_info()["size"] == 3
    # The three most recent survive; re-scoring them is all hits.
    before = fitness.cache_info()["hits"]
    for m in masks[3:]:
        fitness(m)
    assert fitness.cache_info()["hits"] == before + 3
    # The evicted oldest mask misses (recomputed, value unchanged).
    assert fitness(masks[0]) == pytest.approx(fitness(masks[0]))


def test_lru_recency_updated_on_hit(phases):
    fitness = DistanceCorrelationFitness(phases, cache_size=2)
    a, b, c = (np.zeros(10, dtype=bool) for _ in range(3))
    a[0], b[1], c[2] = True, True, True
    fitness(a)
    fitness(b)
    fitness(a)  # refresh a; b is now least recent
    fitness(c)  # evicts b
    hits = fitness.cache_info()["hits"]
    fitness(a)
    assert fitness.cache_info()["hits"] == hits + 1


def test_rejects_bad_cache_size(phases):
    with pytest.raises(ValueError):
        DistanceCorrelationFitness(phases, cache_size=0)


def test_unbounded_cache_allowed(phases):
    fitness = DistanceCorrelationFitness(phases, cache_size=None)
    for i in range(10):
        m = np.zeros(10, dtype=bool)
        m[i] = True
        fitness(m)
    assert fitness.cache_info()["size"] == 10
    assert fitness.cache_info()["max_size"] is None
