"""Tests for result persistence."""

import json

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core import (
    build_dataset,
    load_characterization,
    run_characterization,
    save_characterization,
)
from repro.io.artifacts import HEADER_KEY, SchemaMismatch
from repro.suites import get_suite


@pytest.fixture(scope="module")
def cfg():
    return AnalysisConfig.tiny()


@pytest.fixture(scope="module")
def dataset(cfg):
    return build_dataset(list(get_suite("MediaBenchII").benchmarks), cfg)


@pytest.fixture(scope="module")
def result(dataset, cfg):
    return run_characterization(dataset, cfg, select_key=True)


def test_characterization_round_trip(result, tmp_path):
    path = tmp_path / "char.npz"
    save_characterization(result, path)
    loaded = load_characterization(path)
    assert np.allclose(loaded.space, result.space)
    assert np.array_equal(loaded.clustering.labels, result.clustering.labels)
    assert np.allclose(loaded.clustering.centers, result.clustering.centers)
    assert loaded.clustering.bic == pytest.approx(result.clustering.bic)
    assert np.array_equal(
        loaded.prominent.cluster_ids, result.prominent.cluster_ids
    )
    assert np.allclose(loaded.prominent.weights, result.prominent.weights)
    assert loaded.key_characteristics == result.key_characteristics
    assert loaded.ga_result.fitness == pytest.approx(result.ga_result.fitness)
    assert loaded.n_components == result.n_components
    assert loaded.explained_variance == pytest.approx(result.explained_variance)


def test_headerless_file_rejected(result, tmp_path):
    # The same arrays and meta as a plain np.savez, without the artifact
    # header, are not trusted.
    path = tmp_path / "char.npz"
    save_characterization(result, path)
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    header = json.loads(str(arrays.pop(HEADER_KEY)))
    plain = tmp_path / "plain.npz"
    np.savez(plain, **arrays, meta=np.array(json.dumps(header["meta"])))
    with pytest.raises(SchemaMismatch):
        load_characterization(plain)


def test_round_trip_without_ga(dataset, cfg, tmp_path):
    res = run_characterization(dataset, cfg, select_key=False)
    path = tmp_path / "noga.npz"
    save_characterization(res, path)
    loaded = load_characterization(path)
    assert loaded.key_characteristics is None
    assert loaded.ga_result is None


def test_loaded_ga_mask_matches_names(result, tmp_path):
    from repro.mica import FEATURE_INDEX

    path = tmp_path / "char2.npz"
    save_characterization(result, path)
    loaded = load_characterization(path)
    selected = set(int(i) for i in loaded.ga_result.selected_indices())
    expected = {FEATURE_INDEX[n] for n in result.key_characteristics}
    assert selected == expected
