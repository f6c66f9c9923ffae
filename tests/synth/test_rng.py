"""Tests for deterministic seed derivation."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.synth import derive_seed, generator


def test_derive_seed_is_deterministic():
    assert derive_seed("a", 1, "b") == derive_seed("a", 1, "b")


def test_derive_seed_distinguishes_keys():
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert derive_seed("a", 1) != derive_seed("b", 1)


def test_derive_seed_key_order_matters():
    assert derive_seed("a", "b") != derive_seed("b", "a")


def test_derive_seed_is_63_bit_nonnegative():
    for keys in (("x",), ("y", 2, 3), (0,)):
        s = derive_seed(*keys)
        assert 0 <= s < 2**63


def test_derive_seed_no_separator_collisions():
    # ("ab", "c") must differ from ("a", "bc").
    assert derive_seed("ab", "c") != derive_seed("a", "bc")


def test_generator_streams_are_reproducible():
    a = generator("k", 7).random(5)
    b = generator("k", 7).random(5)
    assert (a == b).all()


def test_generator_streams_are_independent():
    a = generator("k", 7).random(5)
    b = generator("k", 8).random(5)
    assert (a != b).any()


def test_importing_rng_loads_numpy_random():
    # numpy 2 loads numpy.random lazily; the first generator() call must
    # not pay that import inside whatever span happens to make it.
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, repro.synth.rng; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "True"
