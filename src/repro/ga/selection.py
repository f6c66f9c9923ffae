"""Genetic algorithm for key-characteristic selection.

Follows the paper's description: multiple populations of bit-string
solutions (one bit per characteristic), evolved with mutation, uniform
crossover, and migration between populations; evolution stops when the
best fitness stops improving.  A cardinality repair operator keeps every
solution at exactly the requested subset size, which is how the
correlation-versus-size curve of Figure 1 is produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from ..config import AnalysisConfig
from ..obs import emit_progress, get_logger, metrics

log = get_logger(__name__)


@dataclass
class GAResult:
    """Outcome of a GA run.

    Attributes:
        mask: the best boolean feature mask found.
        fitness: its fitness (distance correlation).
        history: best fitness per generation.
        generations: generations actually run.
    """

    mask: np.ndarray
    fitness: float
    history: List[float] = field(default_factory=list)

    @property
    def generations(self) -> int:
        return len(self.history)

    def selected_indices(self) -> np.ndarray:
        """Indices of the selected characteristics."""
        return np.flatnonzero(self.mask)


def _repair(mask: np.ndarray, n_select: int, rng: np.random.Generator) -> np.ndarray:
    """Force ``mask`` to have exactly ``n_select`` set bits."""
    on = np.flatnonzero(mask)
    off = np.flatnonzero(~mask)
    if len(on) > n_select:
        drop = rng.choice(on, size=len(on) - n_select, replace=False)
        mask[drop] = False
    elif len(on) < n_select:
        add = rng.choice(off, size=n_select - len(on), replace=False)
        mask[add] = True
    return mask


def _random_mask(n_features: int, n_select: int, rng: np.random.Generator) -> np.ndarray:
    mask = np.zeros(n_features, dtype=bool)
    mask[rng.choice(n_features, size=n_select, replace=False)] = True
    return mask


def _mutate(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Swap mutation: move one selected bit to an unselected position."""
    child = mask.copy()
    on = np.flatnonzero(child)
    off = np.flatnonzero(~child)
    if len(on) and len(off):
        child[rng.choice(on)] = False
        child[rng.choice(off)] = True
    return child

def _crossover(a: np.ndarray, b: np.ndarray, n_select: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform crossover followed by cardinality repair."""
    pick = rng.random(len(a)) < 0.5
    child = np.where(pick, a, b)
    return _repair(child, n_select, rng)


def _evaluate(fitness: Callable, masks: List[np.ndarray]) -> List[float]:
    """Score masks, using the fitness's batch path when it has one.

    :class:`repro.ga.DistanceCorrelationFitness` exposes
    ``evaluate_population`` (deduped, cache-aware, batched PCA); plain
    callables are scored one by one.
    """
    batch = getattr(fitness, "evaluate_population", None)
    if batch is not None:
        return [float(s) for s in batch(masks)]
    return [float(fitness(m)) for m in masks]


def _emit_generation(
    fitness: Callable,
    n_select: int,
    generation: int,
    gen_best: float,
    total_generations: int = 0,
) -> None:
    """Publish one generation's summary: obs metrics and an INFO line.

    ``total_generations`` (the config cap; early stopping can finish
    sooner, making the ETA an upper bound) feeds the live telemetry
    progress stream when a bus is attached.
    """
    reg = metrics()
    reg.counter_add("ga.generations", 1)
    reg.gauge_set("ga.best_fitness", gen_best)
    if total_generations:
        emit_progress("ga", generation + 1, total_generations)
    line = f"ga[{n_select}] gen {generation + 1}: best {gen_best:.4f}"
    cache_info = getattr(fitness, "cache_info", None)
    if cache_info is not None:
        info = cache_info()
        reg.gauge_set("ga.fitness_cache.hits", info["hits"])
        reg.gauge_set("ga.fitness_cache.lookups", info["lookups"])
        reg.gauge_set("ga.fitness_cache.hit_rate", info["hit_rate"])
        line += (
            f", cache hit rate {info['hit_rate']:.1%}"
            f" ({info['hits']}/{info['lookups']})"
        )
    log.info("%s", line)


def select_features(
    fitness: Callable[[np.ndarray], float],
    n_features: int,
    n_select: int,
    *,
    config: AnalysisConfig,
    rng: np.random.Generator,
) -> GAResult:
    """Evolve a feature subset of size ``n_select`` maximizing ``fitness``.

    Args:
        fitness: callable scoring a boolean mask (higher is better).
        n_features: total number of characteristics.
        n_select: subset cardinality to maintain.
        config: GA population/generation parameters.
        rng: randomness source.

    Each generation logs one INFO line (best fitness so far, and the
    fitness cache hit rate when the fitness exposes ``cache_info``)
    and updates ``ga.best_fitness``, ``ga.generations`` and
    ``ga.fitness_cache.*`` in the active metrics registry.

    Returns:
        The best solution found, with per-generation history.
    """
    if not 1 <= n_select <= n_features:
        raise ValueError("n_select out of range")
    n_pop = config.ga_populations
    pop_size = config.ga_population_size
    populations = [
        [_random_mask(n_features, n_select, rng) for _ in range(pop_size)]
        for _ in range(n_pop)
    ]
    scores = [_evaluate(fitness, pop) for pop in populations]
    history: List[float] = []
    best_mask = None
    best_score = -np.inf
    stall = 0
    for generation in range(config.ga_generations):
        for p in range(n_pop):
            pop, sc = populations[p], scores[p]
            order = np.argsort(sc)[::-1]
            elite_n = max(1, pop_size // 4)
            elites = [pop[i] for i in order[:elite_n]]
            children = list(elites)
            while len(children) < pop_size:
                # Tournament parent selection from this population.
                i, j = rng.integers(0, pop_size, size=2)
                a = pop[i] if sc[i] >= sc[j] else pop[j]
                i, j = rng.integers(0, pop_size, size=2)
                b = pop[i] if sc[i] >= sc[j] else pop[j]
                child = _crossover(a, b, n_select, rng)
                if rng.random() < 0.5:
                    child = _mutate(child, rng)
                children.append(child)
            populations[p] = children
            scores[p] = _evaluate(fitness, children)
        # Migration: the best solution of each population seeds the next.
        if n_pop > 1:
            bests = [
                populations[p][int(np.argmax(scores[p]))].copy() for p in range(n_pop)
            ]
            for p in range(n_pop):
                target = (p + 1) % n_pop
                worst = int(np.argmin(scores[target]))
                populations[target][worst] = bests[p]
                scores[target][worst] = _evaluate(fitness, [bests[p]])[0]
        gen_best = max(max(sc) for sc in scores)
        history.append(float(gen_best))
        _emit_generation(
            fitness,
            n_select,
            generation,
            float(gen_best),
            config.ga_generations,
        )
        if gen_best > best_score + 1e-12:
            best_score = gen_best
            for p in range(n_pop):
                idx = int(np.argmax(scores[p]))
                if scores[p][idx] == gen_best:
                    best_mask = populations[p][idx].copy()
                    break
            stall = 0
        else:
            stall += 1
            if stall >= config.ga_stall_generations:
                break
    if best_mask is None:
        best_mask = populations[0][0]
        best_score = _evaluate(fitness, [best_mask])[0]
    return GAResult(mask=best_mask, fitness=float(best_score), history=history)


def correlation_curve(
    fitness: Callable[[np.ndarray], float],
    n_features: int,
    sizes: Sequence[int],
    *,
    config: AnalysisConfig,
    rng: np.random.Generator,
) -> dict:
    """Best fitness per subset size — the Figure 1 curve.

    Returns an ordered ``{size: (fitness, GAResult)}`` dict.
    """
    out = {}
    for size in sizes:
        result = select_features(
            fitness, n_features, size, config=config, rng=rng
        )
        out[size] = result
    return out
