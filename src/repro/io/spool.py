"""Feature spool: featurize once, replay every later pass from mmap.

The streaming engine (:mod:`repro.streaming`) makes several sweeps
over the same :class:`~repro.core.SamplingPlan` — PCA statistics,
Lloyd refinement passes, scoring — and without help each sweep
regenerates synthetic traces and re-runs the fused MICA meters from
scratch.  The spool turns every sweep after the first into disk reads:
the cold sweep appends each batch's float64 rows to an on-disk store,
and later sweeps replay the rows as zero-copy slices of one read-only
``np.memmap``.  Raw bytes round-trip exactly, so replayed arrays are
bit-identical to freshly computed ones and every bit-identity pin on
the streaming path holds unchanged.

One spool holds independent *kinds* (``"raw"`` feature rows,
``"proj"`` projected points), each a pair of files keyed by a caller-
supplied content fingerprint:

* ``spool_<kind>_<fp>.bin`` — the row-major float64 payload, written
  append-only to a private temporary file and published atomically
  with ``os.replace`` when sealed (the artifact store's protocol: a
  crash mid-sweep leaves no half-spool behind);
* ``spool_<kind>_<fp>.idx.npz`` — a checksummed index artifact
  (:func:`repro.io.artifacts.write_artifact`) recording the row/column
  counts and the payload's SHA-256.

Replays verify the payload digest against the index before yielding
anything, every pass — so truncation or bit rot at any point between
sweeps surfaces as a miss, the damaged pair is quarantined through
:func:`repro.io.artifacts.quarantine` (evidence preserved, never
deleted), and the caller falls back to recomputation with identical
results.  Because the payload is one contiguous matrix, replay batch
boundaries are free to differ from the recorded ones.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from ..obs import get_logger, metrics
from .artifacts import (
    ArtifactError,
    quarantine,
    read_artifact,
    write_artifact,
)

PathLike = Union[str, Path]

log = get_logger(__name__)

#: Artifact schema name for one spool index file.
SPOOL_INDEX_SCHEMA = "spool_index"

#: Bytes hashed per chunk when digesting a payload memmap.
_HASH_CHUNK = 1 << 24

__all__ = ["SPOOL_INDEX_SCHEMA", "FeatureSpool", "SpoolWriter"]


def _digest_memmap(mm: np.memmap) -> str:
    """SHA-256 over a payload memmap, chunked to keep residency bounded."""
    h = hashlib.sha256()
    flat = mm.reshape(-1).view(np.uint8) if mm.size else mm.view(np.uint8)
    for start in range(0, flat.size, _HASH_CHUNK):
        h.update(flat[start : start + _HASH_CHUNK].tobytes())
    return h.hexdigest()


class SpoolWriter:
    """Append-only writer for one spool kind; publish-on-seal.

    Rows accumulate in a private temporary file next to the
    destination; :meth:`seal` fsyncs, publishes the payload with
    ``os.replace`` and writes the index artifact.  Anything short of a
    seal — exception, abandoned sweep, crash — leaves only the
    temporary file, which no replay will ever look at.
    """

    def __init__(self, spool: "FeatureSpool", kind: str, n_rows: int, n_cols: int):
        self._spool = spool
        self.kind = kind
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._written = 0
        self._hash = hashlib.sha256()
        dest = spool.data_path(kind)
        dest.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(dest.parent), prefix=dest.name + ".", suffix=".tmp")
        self._tmp = tmp
        self._handle = os.fdopen(fd, "wb")

    def append(self, rows: np.ndarray) -> None:
        """Append one batch of ``(n, n_cols)`` float64 rows."""
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.n_cols:
            raise ValueError(f"expected (n, {self.n_cols}) rows, got {rows.shape}")
        raw = rows.tobytes()
        self._handle.write(raw)
        self._hash.update(raw)
        self._written += len(rows)
        if self._written > self.n_rows:
            raise ValueError(
                f"spool {self.kind!r} overflow: {self._written} rows > planned {self.n_rows}"
            )

    def seal(self) -> None:
        """Publish the payload and its index; the spool becomes replayable."""
        if self._handle is None:
            raise RuntimeError("spool writer already closed")
        if self._written != self.n_rows:
            self.abandon()
            raise ValueError(
                f"spool {self.kind!r} sealed short: {self._written} of {self.n_rows} rows"
            )
        handle, self._handle = self._handle, None
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        dest = self._spool.data_path(self.kind)
        os.replace(self._tmp, dest)
        write_artifact(
            self._spool.index_path(self.kind),
            {"shape": np.array([self.n_rows, self.n_cols], dtype=np.int64)},
            schema=SPOOL_INDEX_SCHEMA,
            meta={
                "kind": self.kind,
                "fingerprint": self._spool.fingerprint(self.kind),
                "sha256": self._hash.hexdigest(),
                "bytes": self.n_rows * self.n_cols * 8,
            },
        )
        nbytes = self.n_rows * self.n_cols * 8
        metrics().counter_add("spool.bytes", float(nbytes))
        self._spool._bytes_written += nbytes
        log.info(
            "spooled %d x %d %s rows (%.1f MB) to %s",
            self.n_rows,
            self.n_cols,
            self.kind,
            nbytes / 1e6,
            dest,
        )

    def abandon(self) -> None:
        """Discard everything written; no spool is published."""
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        try:
            handle.close()
        finally:
            try:
                os.unlink(self._tmp)
            except OSError:
                pass


class FeatureSpool:
    """On-disk batch store for the streaming engine's repeated sweeps.

    Args:
        root: directory holding the spool files (created on demand).
        fingerprints: ``{kind: fingerprint}`` content keys.  A kind's
            fingerprint must encode everything that determines its
            rows (benchmark selection, interval picks, featurization
            parameters; plus the analysis key for projected points), so
            a persistent spool directory can never serve stale rows to
            a different configuration.
    """

    def __init__(self, root: PathLike, fingerprints: dict):
        self.root = Path(root)
        self._fingerprints = dict(fingerprints)
        self._bytes_written = 0

    def fingerprint(self, kind: str) -> str:
        try:
            return self._fingerprints[kind]
        except KeyError:
            raise KeyError(f"spool kind {kind!r} has no fingerprint") from None

    def data_path(self, kind: str) -> Path:
        return self.root / f"spool_{kind}_{self.fingerprint(kind)}.bin"

    def index_path(self, kind: str) -> Path:
        return self.root / f"spool_{kind}_{self.fingerprint(kind)}.idx.npz"

    @property
    def bytes_written(self) -> int:
        """Payload bytes sealed by this process."""
        return self._bytes_written

    def ready(self, kind: str) -> bool:
        """Whether a sealed payload + index pair exists for ``kind``."""
        return self.data_path(kind).exists() and self.index_path(kind).exists()

    def writer(self, kind: str, n_rows: int, n_cols: int) -> SpoolWriter:
        """A writer for one cold sweep of ``n_rows x n_cols`` rows."""
        return SpoolWriter(self, kind, n_rows, n_cols)

    def _quarantine(self, kind: str, reason: str) -> None:
        reg = metrics()
        reg.counter_add("spool.evictions", 1)
        quarantined = []
        for path in (self.data_path(kind), self.index_path(kind)):
            dest = quarantine(path)
            if dest is not None:
                quarantined.append(dest.name)
        log.warning(
            "spool %r failed verification (%s); quarantined %s — recomputing",
            kind,
            reason,
            ", ".join(quarantined) or "nothing (already gone)",
        )

    def open_replay(
        self, kind: str, n_cols: int
    ) -> Optional[Tuple[np.memmap, int]]:
        """Verify and map a sealed spool; ``(memmap, n_rows)`` or None.

        Verification runs on *every* open — one sequential pass hashing
        the payload against the index's digest, far cheaper than one
        featurization sweep — so corruption introduced at any point
        mid-run is caught before a single stale row reaches the engine.
        On any failure the pair is quarantined and None is returned;
        the caller recomputes.
        """
        if not self.ready(kind):
            return None
        try:
            arrays, meta = read_artifact(self.index_path(kind), schema=SPOOL_INDEX_SCHEMA)
        except ArtifactError as exc:
            self._quarantine(kind, f"bad index: {exc}")
            return None
        shape = arrays.get("shape")
        if (
            shape is None
            or shape.shape != (2,)
            or int(shape[1]) != n_cols
            or meta.get("fingerprint") != self.fingerprint(kind)
        ):
            self._quarantine(kind, "index shape/fingerprint mismatch")
            return None
        n_rows = int(shape[0])
        data_path = self.data_path(kind)
        expected_bytes = n_rows * n_cols * 8
        try:
            actual_bytes = data_path.stat().st_size
        except OSError:
            self._quarantine(kind, "payload missing")
            return None
        if actual_bytes != expected_bytes:
            self._quarantine(
                kind, f"payload is {actual_bytes} bytes, expected {expected_bytes}"
            )
            return None
        mm = np.memmap(data_path, dtype=np.float64, mode="r", shape=(n_rows, n_cols))
        if _digest_memmap(mm) != meta.get("sha256"):
            del mm
            self._quarantine(kind, "payload checksum mismatch")
            return None
        return mm, n_rows

    def replay(
        self, kind: str, n_cols: int, batch_rows: int
    ) -> Optional[Iterator[Tuple[int, np.ndarray]]]:
        """Zero-copy batch iterator over a sealed spool, or None on a miss.

        Yields ``(start_row, rows)`` where ``rows`` is a read-only view
        into the payload memmap.  ``batch_rows`` need not match the
        recorded sweep's batching — the payload is one contiguous
        matrix, so any slicing reproduces the same rows bit-for-bit.
        """
        opened = self.open_replay(kind, n_cols)
        if opened is None:
            return None
        mm, n_rows = opened

        def _iterate() -> Iterator[Tuple[int, np.ndarray]]:
            for start in range(0, n_rows, batch_rows):
                yield start, mm[start : min(start + batch_rows, n_rows)]

        return _iterate()
