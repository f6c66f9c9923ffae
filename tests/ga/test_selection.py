"""Tests for the genetic algorithm."""

import logging

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.ga import correlation_curve, select_features
from repro.synth import generator


@pytest.fixture
def cfg():
    return AnalysisConfig.tiny()


def counting_fitness(mask):
    """Best solution: select exactly the first bits (weighted prefix)."""
    weights = np.linspace(1.0, 0.1, len(mask))
    return float((weights * mask).sum() / weights.sum())


def test_result_has_requested_cardinality(cfg):
    res = select_features(
        counting_fitness, 20, 5, config=cfg, rng=generator("ga", 1)
    )
    assert res.mask.sum() == 5


def test_finds_near_optimal_subset(cfg):
    cfg = cfg.replace(ga_generations=30, ga_population_size=16)
    res = select_features(
        counting_fitness, 20, 4, config=cfg, rng=generator("ga", 2)
    )
    optimal = np.zeros(20, dtype=bool)
    optimal[:4] = True
    assert res.fitness >= 0.95 * counting_fitness(optimal)
    # The single heaviest feature is always found.
    assert 0 in set(int(i) for i in res.selected_indices())


def test_history_is_monotone_nondecreasing(cfg):
    res = select_features(
        counting_fitness, 15, 3, config=cfg, rng=generator("ga", 3)
    )
    assert all(b >= a - 1e-12 for a, b in zip(res.history, res.history[1:]))


def test_fitness_matches_mask(cfg):
    res = select_features(
        counting_fitness, 15, 3, config=cfg, rng=generator("ga", 4)
    )
    assert res.fitness == pytest.approx(counting_fitness(res.mask))


def test_deterministic_given_rng(cfg):
    a = select_features(counting_fitness, 12, 4, config=cfg, rng=generator("ga", 5))
    b = select_features(counting_fitness, 12, 4, config=cfg, rng=generator("ga", 5))
    assert (a.mask == b.mask).all()
    assert a.fitness == b.fitness


def test_rejects_bad_cardinality(cfg):
    with pytest.raises(ValueError):
        select_features(counting_fitness, 10, 0, config=cfg, rng=generator("ga", 6))
    with pytest.raises(ValueError):
        select_features(counting_fitness, 10, 11, config=cfg, rng=generator("ga", 7))


def test_full_cardinality_selects_everything(cfg):
    res = select_features(
        counting_fitness, 8, 8, config=cfg, rng=generator("ga", 8)
    )
    assert res.mask.all()


def test_correlation_curve_improves_with_size(cfg):
    curve = correlation_curve(
        counting_fitness, 20, [1, 4, 10], config=cfg, rng=generator("ga", 9)
    )
    assert list(curve) == [1, 4, 10]
    fits = [curve[s].fitness for s in (1, 4, 10)]
    assert fits[0] < fits[1] < fits[2]


def test_stall_terminates_early():
    cfg = AnalysisConfig.tiny().replace(ga_generations=100, ga_stall_generations=2)
    res = select_features(
        lambda m: 0.5, 10, 3, config=cfg, rng=generator("ga", 10)
    )
    assert res.generations < 100


def _ga_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "repro.ga.selection"]


def test_progress_lines_emitted_per_generation(cfg, caplog):
    with caplog.at_level(logging.INFO, logger="repro.ga.selection"):
        res = select_features(
            counting_fitness, 15, 3, config=cfg, rng=generator("ga", 11)
        )
    lines = _ga_lines(caplog)
    assert len(lines) == res.generations
    assert all("best" in line for line in lines)


def test_progress_line_includes_cache_hit_rate(cfg, caplog):
    from repro.ga import DistanceCorrelationFitness

    rng = np.random.default_rng(12)
    fitness = DistanceCorrelationFitness(rng.normal(size=(12, 15)))
    with caplog.at_level(logging.INFO, logger="repro.ga.selection"):
        select_features(fitness, 15, 4, config=cfg, rng=generator("ga", 12))
    lines = _ga_lines(caplog)
    assert lines
    assert all("cache hit rate" in line for line in lines)


def test_progress_defaults_to_silent(cfg, capsys):
    select_features(counting_fitness, 10, 3, config=cfg, rng=generator("ga", 13))
    assert capsys.readouterr().out == ""


def test_batch_fitness_path_matches_plain_callable(cfg):
    from repro.ga import DistanceCorrelationFitness

    rng = np.random.default_rng(14)
    phases = rng.normal(size=(14, 12))
    batched = DistanceCorrelationFitness(phases)
    plain = DistanceCorrelationFitness(phases)
    a = select_features(batched, 12, 4, config=cfg, rng=generator("ga", 15))
    # Hide the batch path: the GA falls back to one-by-one calls.
    b = select_features(
        lambda m: plain(m), 12, 4, config=cfg, rng=generator("ga", 15)
    )
    assert (a.mask == b.mask).all()
    assert a.fitness == pytest.approx(b.fitness)
