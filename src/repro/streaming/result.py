"""Persistence for streaming characterizations.

Streaming results carry no feature matrix and no projected space, so
they get their own compact artifact schema rather than reusing the
exact path's :func:`~repro.core.save_characterization` layout; the
clustering, prominent phases and PCA summary use the layout both
share (:func:`repro.core.prominent.analysis_to_artifact`).  Files
travel through the crash-safe artifact store: atomic writes, checksum
verification on load.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from ..core.prominent import analysis_from_artifact, analysis_to_artifact
from ..obs import span
from .engine import StreamingCharacterization

PathLike = Union[str, Path]

#: Artifact schema name for a saved streaming characterization.
STREAMING_SCHEMA = "streaming_characterization"


def save_streaming_result(result: StreamingCharacterization, path: PathLike) -> None:
    """Write a streaming characterization as one artifact ``.npz``."""
    from ..io.artifacts import write_artifact

    analysis, meta = analysis_to_artifact(
        result.n_components,
        result.explained_variance,
        result.clustering,
        result.prominent,
    )
    arrays = {
        "suites": np.asarray(result.suites),
        "benchmarks": np.asarray(result.benchmarks),
        "interval_indices": np.asarray(result.interval_indices, dtype=np.int64),
        **analysis,
    }
    meta.update(
        batch_intervals=result.batch_intervals,
        featurize_sweeps=result.featurize_sweeps,
        replay_sweeps=result.replay_sweeps,
        spool_bytes=result.spool_bytes,
    )
    with span("io.artifact", schema=STREAMING_SCHEMA, op="save"):
        write_artifact(path, arrays, schema=STREAMING_SCHEMA, meta=meta)


def load_streaming_result(path: PathLike) -> StreamingCharacterization:
    """Read a streaming characterization written by :func:`save_streaming_result`."""
    from ..io.artifacts import read_artifact

    with span("io.artifact", schema=STREAMING_SCHEMA, op="load"):
        arrays, meta = read_artifact(path, schema=STREAMING_SCHEMA)
    n_components, explained, clustering, prominent = analysis_from_artifact(
        arrays, meta
    )
    return StreamingCharacterization(
        suites=arrays["suites"],
        benchmarks=arrays["benchmarks"],
        interval_indices=arrays["interval_indices"],
        n_components=n_components,
        explained_variance=explained,
        clustering=clustering,
        prominent=prominent,
        batch_intervals=int(meta["batch_intervals"]),
        # Pass-accounting fields postdate the schema; old artifacts
        # load with the zero defaults.
        featurize_sweeps=int(meta.get("featurize_sweeps", 0)),
        replay_sweeps=int(meta.get("replay_sweeps", 0)),
        spool_bytes=int(meta.get("spool_bytes", 0)),
    )
