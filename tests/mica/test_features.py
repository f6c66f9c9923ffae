"""Tests for the feature schema (Table 1 analog)."""

import pytest

from repro.mica import (
    CATEGORIES,
    CATEGORY_BRANCH,
    CATEGORY_FOOT,
    CATEGORY_ILP,
    CATEGORY_MIX,
    CATEGORY_REG,
    CATEGORY_STRIDE,
    FEATURE_CATEGORY,
    FEATURE_INDEX,
    FEATURES,
    N_FEATURES,
    feature_names,
    features_in_category,
)

from .oracle import feature_vector


def test_exactly_69_features():
    assert N_FEATURES == 69
    assert len(FEATURES) == 69


def test_category_counts_match_design():
    counts = {c: len(features_in_category(c)) for c in CATEGORIES}
    assert counts[CATEGORY_MIX] == 20
    assert counts[CATEGORY_ILP] == 4
    assert counts[CATEGORY_REG] == 9
    assert counts[CATEGORY_FOOT] == 4
    assert counts[CATEGORY_STRIDE] == 18
    assert counts[CATEGORY_BRANCH] == 14
    assert sum(counts.values()) == 69


def test_feature_names_unique():
    names = feature_names()
    assert len(set(names)) == len(names)


def test_feature_index_is_consistent():
    for i, f in enumerate(FEATURES):
        assert FEATURE_INDEX[f.name] == i
        assert FEATURE_CATEGORY[f.name] == f.category


def test_every_feature_has_description():
    assert all(f.description for f in FEATURES)


def test_features_in_category_rejects_unknown():
    with pytest.raises(ValueError):
        features_in_category("no-such-category")


def test_feature_vector_round_trip():
    values = {name: float(i) for i, name in enumerate(feature_names())}
    vec = feature_vector(values)
    assert vec.tolist() == [float(i) for i in range(69)]


def test_feature_vector_rejects_missing():
    values = {name: 0.0 for name in feature_names()[:-1]}
    with pytest.raises(KeyError):
        feature_vector(values)


def test_feature_vector_rejects_extra():
    values = {name: 0.0 for name in feature_names()}
    values["bogus"] = 1.0
    with pytest.raises(ValueError):
        feature_vector(values)
