"""Persistence for characterizations.

Paper-scale featurization takes minutes; analyses and benchmarks reuse
a saved run.  A characterization round-trips through a single ``.npz`` file
written via the crash-safe artifact store (:mod:`repro.io.artifacts`):
writes are atomic and checksummed, loads are verified, and files
written before the store existed still load through the legacy path.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Union

import numpy as np

from ..obs import get_logger, span
from .dataset import WorkloadDataset
from .pipeline import PhaseCharacterization
from .prominent import ANALYSIS_META, analysis_from_artifact, analysis_to_artifact

PathLike = Union[str, Path]

log = get_logger(__name__)

#: Artifact schema name of a persisted characterization.
CHARACTERIZATION_SCHEMA = "characterization"

#: Header meta keys a characterization cannot be reconstructed without.
_REQUIRED_CHARACTERIZATION_META = ANALYSIS_META + ("key_characteristics",)


def save_characterization(result: PhaseCharacterization, path: PathLike) -> None:
    """Atomically write a full characterization to ``path``.

    GA fields are only recorded when the GA actually ran; a
    characterization built with ``select_key=False`` carries neither
    ``ga_fitness`` nor ``ga_history`` in its meta.
    """
    from ..io.artifacts import write_artifact

    analysis, meta = analysis_to_artifact(
        result.n_components,
        result.explained_variance,
        result.clustering,
        result.prominent,
    )
    meta["key_characteristics"] = result.key_characteristics or []
    if result.ga_result is not None:
        meta["ga_fitness"] = result.ga_result.fitness
        meta["ga_history"] = [float(h) for h in result.ga_result.history]
    dataset = result.dataset
    arrays = {
        "features": dataset.features,
        "suites": dataset.suites.astype(str),
        "benchmarks": dataset.benchmarks.astype(str),
        "interval_indices": dataset.interval_indices,
        "space": result.space,
        **analysis,
    }
    with span("io.artifact", schema=CHARACTERIZATION_SCHEMA, op="save"):
        write_artifact(path, arrays, schema=CHARACTERIZATION_SCHEMA, meta=meta)


def load_characterization(path: PathLike) -> PhaseCharacterization:
    """Read a characterization written by :func:`save_characterization`.

    The GA internals (mask/populations) are not persisted — only the
    selected names and the fitness history, which is what the analyses
    and figures need.  A file whose meta records key characteristics
    but predates the ``ga_fitness``/``ga_history`` fields (or carries a
    placeholder NaN fitness) yields ``ga_result=None`` with a warning
    instead of fabricating a result.

    Raises :class:`repro.io.artifacts.ArtifactError` on corruption,
    schema mismatch, or an incomplete meta record.
    """
    from ..ga import GAResult  # local import to avoid cycles
    from ..io.artifacts import CorruptArtifact, read_artifact
    from ..mica import FEATURE_INDEX, N_FEATURES

    path = Path(path)
    with span("io.artifact", schema=CHARACTERIZATION_SCHEMA, op="load"):
        arrays, meta = read_artifact(path, schema=CHARACTERIZATION_SCHEMA)
    missing = [k for k in _REQUIRED_CHARACTERIZATION_META if k not in meta]
    if missing:
        raise CorruptArtifact(
            f"{path}: characterization meta missing {', '.join(missing)}"
        )
    try:
        dataset = WorkloadDataset(
            features=arrays["features"],
            suites=arrays["suites"],
            benchmarks=arrays["benchmarks"],
            interval_indices=arrays["interval_indices"],
        )
        n_components, explained, clustering, prominent = analysis_from_artifact(
            arrays, meta
        )
        space = arrays["space"]
    except (KeyError, ValueError, TypeError) as exc:
        raise CorruptArtifact(f"{path}: malformed characterization ({exc})") from exc
    key = meta["key_characteristics"] or None
    ga_result = None
    if key is not None:
        fitness = meta.get("ga_fitness")
        history = meta.get("ga_history")
        if fitness is None or history is None or math.isnan(float(fitness)):
            log.warning(
                "characterization %s records key characteristics but no GA "
                "fitness (meta predates the ga_fitness fields); ga_result "
                "unavailable",
                path,
            )
        else:
            try:
                mask = np.zeros(N_FEATURES, dtype=bool)
                for name in key:
                    mask[FEATURE_INDEX[name]] = True
            except (KeyError, TypeError) as exc:
                raise CorruptArtifact(
                    f"{path}: unknown key characteristic ({exc})"
                ) from exc
            ga_result = GAResult(
                mask=mask,
                fitness=float(fitness),
                history=[float(h) for h in history],
            )
    return PhaseCharacterization(
        dataset=dataset,
        space=space,
        n_components=n_components,
        explained_variance=explained,
        clustering=clustering,
        prominent=prominent,
        key_characteristics=key,
        ga_result=ga_result,
    )
