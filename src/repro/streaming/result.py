"""Persistence for streaming characterizations.

Streaming results carry no feature matrix and no projected space, so
they get their own compact artifact schema rather than reusing the
exact path's :func:`~repro.core.save_characterization` layout.  Files
travel through the crash-safe artifact store: atomic writes, checksum
verification on load.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from ..core.prominent import ProminentPhases
from ..stats import Clustering
from .engine import StreamingCharacterization

PathLike = Union[str, Path]

#: Artifact schema name for a saved streaming characterization.
STREAMING_SCHEMA = "streaming_characterization"


def save_streaming_result(result: StreamingCharacterization, path: PathLike) -> None:
    """Write a streaming characterization as one artifact ``.npz``."""
    from ..io.artifacts import write_artifact

    arrays = {
        "suites": np.asarray(result.suites),
        "benchmarks": np.asarray(result.benchmarks),
        "interval_indices": np.asarray(result.interval_indices, dtype=np.int64),
        "labels": np.asarray(result.clustering.labels, dtype=np.int64),
        "centers": np.asarray(result.clustering.centers, dtype=np.float64),
        "prominent_cluster_ids": result.prominent.cluster_ids,
        "prominent_weights": result.prominent.weights,
        "prominent_representatives": result.prominent.representative_rows,
    }
    meta = {
        "n_components": result.n_components,
        "explained_variance": result.explained_variance,
        "bic": result.clustering.bic,
        "inertia": result.clustering.inertia,
        "n_iter": result.clustering.n_iter,
        "batch_intervals": result.batch_intervals,
        "featurize_sweeps": result.featurize_sweeps,
        "replay_sweeps": result.replay_sweeps,
        "spool_bytes": result.spool_bytes,
    }
    write_artifact(path, arrays, schema=STREAMING_SCHEMA, meta=meta)


def load_streaming_result(path: PathLike) -> StreamingCharacterization:
    """Read a streaming characterization written by :func:`save_streaming_result`."""
    from ..io.artifacts import read_artifact

    arrays, meta = read_artifact(path, schema=STREAMING_SCHEMA)
    clustering = Clustering(
        centers=arrays["centers"],
        labels=arrays["labels"],
        bic=float(meta["bic"]),
        inertia=float(meta["inertia"]),
        n_iter=int(meta["n_iter"]),
    )
    prominent = ProminentPhases(
        cluster_ids=arrays["prominent_cluster_ids"],
        weights=arrays["prominent_weights"],
        representative_rows=arrays["prominent_representatives"],
    )
    return StreamingCharacterization(
        suites=arrays["suites"],
        benchmarks=arrays["benchmarks"],
        interval_indices=arrays["interval_indices"],
        n_components=int(meta["n_components"]),
        explained_variance=float(meta["explained_variance"]),
        clustering=clustering,
        prominent=prominent,
        batch_intervals=int(meta["batch_intervals"]),
        # Pass-accounting fields postdate the schema; old artifacts
        # load with the zero defaults.
        featurize_sweeps=int(meta.get("featurize_sweeps", 0)),
        replay_sweeps=int(meta.get("replay_sweeps", 0)),
        spool_bytes=int(meta.get("spool_bytes", 0)),
    )
