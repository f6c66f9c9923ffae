"""Deterministic random-stream derivation.

Every benchmark model, kernel instance, and interval draws randomness from
a :class:`numpy.random.Generator` derived from a stable key, so a full
paper-scale run is reproducible bit-for-bit across processes.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np
# numpy 2 loads numpy.random lazily, on first attribute access; load it
# at import so the first generator() call does not pay ~10-17 ms inside
# whichever span (the first sampling, usually) happens to make it.
import numpy.random  # noqa: F401

Key = Union[int, str]


def derive_seed(*keys: Key) -> int:
    """Derive a 63-bit seed from a sequence of keys.

    The derivation hashes the textual form of the keys, so e.g.
    ``derive_seed("spec2006", "astar", 17)`` is stable across runs,
    platforms, and Python hash randomization.
    """
    blob = "\x1f".join(str(k) for k in keys).encode()
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def generator(*keys: Key) -> np.random.Generator:
    """Return a fresh PCG64 generator seeded from the given keys."""
    return np.random.Generator(np.random.PCG64(derive_seed(*keys)))
