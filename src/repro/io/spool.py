"""Feature spool: featurize once, replay every later pass from mmap.

The streaming engine (:mod:`repro.streaming`) makes several sweeps
over the same :class:`~repro.core.SamplingPlan` — PCA statistics,
Lloyd refinement passes, scoring — and without help each sweep
regenerates synthetic traces and re-runs the fused MICA meters from
scratch.  The spool turns every sweep after the first into disk reads:
the cold sweep appends each batch's float64 feature rows to an on-disk
store, and later sweeps replay the rows as zero-copy slices of one
read-only ``np.memmap``.  Raw bytes round-trip exactly, so replayed
arrays are bit-identical to freshly computed ones and every
bit-identity pin on the streaming path holds unchanged.

A spool is scratch for one run: it lives in a directory the run owns
(the engine's temporary directory) and replays only what the same
:class:`FeatureSpool` object sealed.  Rows are reused across runs
through :class:`~repro.io.FeatureBlockCache`, never through a spool.
It holds one payload, the file ``spool.bin``: the row-major float64
rows, written append-only to a private temporary file and published
with ``os.replace`` when sealed, so a new payload never truncates a
file that a live replay still maps.  The seal keeps the row/column
counts and the payload's SHA-256 in memory.

Replays verify the payload against that digest before yielding
anything, every pass — so truncation or bit rot at any point between
sweeps surfaces as a miss, the damaged file is quarantined through
:func:`repro.io.artifacts.quarantine`, and the caller falls back to
recomputation with identical results.  Because the payload is one
contiguous matrix, replay batch boundaries are free to differ from the
recorded ones.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from ..obs import get_logger, metrics
from .artifacts import quarantine

PathLike = Union[str, Path]

log = get_logger(__name__)

#: Bytes hashed per chunk when digesting a payload memmap.
_HASH_CHUNK = 1 << 24

__all__ = ["FeatureSpool", "SpoolWriter"]


def _digest_memmap(mm: np.memmap) -> str:
    """SHA-256 over a payload memmap, chunked to keep residency bounded.

    Each chunk is hashed through the buffer protocol, never copied into
    a ``bytes`` object, so a replay allocates nothing that grows with
    the payload."""
    h = hashlib.sha256()
    flat = mm.reshape(-1).view(np.uint8) if mm.size else mm.view(np.uint8)
    for start in range(0, flat.size, _HASH_CHUNK):
        h.update(flat[start : start + _HASH_CHUNK])
    return h.hexdigest()


class SpoolWriter:
    """Append-only writer for the spool's payload; publish-on-seal.

    Rows accumulate in a private temporary file next to the
    destination; :meth:`seal` publishes the payload with
    ``os.replace`` and records its digest in the spool.  Anything
    short of a seal — exception, abandoned sweep — leaves only the
    temporary file, which no replay will ever look at.  Creating a
    writer forgets any earlier seal.
    """

    def __init__(self, spool: "FeatureSpool", n_rows: int, n_cols: int):
        spool._seal = None
        self._spool = spool
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._written = 0
        self._hash = hashlib.sha256()
        dest = spool.data_path()
        dest.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(dest.parent), prefix=dest.name + ".", suffix=".tmp")
        self._tmp = tmp
        self._handle = os.fdopen(fd, "wb")

    def append(self, rows: np.ndarray) -> None:
        """Append one batch of ``(n, n_cols)`` float64 rows."""
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.n_cols:
            raise ValueError(f"expected (n, {self.n_cols}) rows, got {rows.shape}")
        if self._written + len(rows) > self.n_rows:
            raise ValueError(
                f"spool overflow: {self._written + len(rows)} rows "
                f"> planned {self.n_rows}"
            )
        raw = rows.tobytes()
        self._handle.write(raw)
        self._hash.update(raw)
        self._written += len(rows)

    def seal(self) -> None:
        """Publish the payload; the spool can replay it."""
        if self._handle is None:
            raise RuntimeError("spool writer already closed")
        if self._written != self.n_rows:
            self.abandon()
            raise ValueError(
                f"spool sealed short: {self._written} of {self.n_rows} rows"
            )
        handle, self._handle = self._handle, None
        handle.close()
        dest = self._spool.data_path()
        os.replace(self._tmp, dest)
        self._spool._seal = (self.n_rows, self.n_cols, self._hash.hexdigest())
        nbytes = self.n_rows * self.n_cols * 8
        metrics().counter_add("spool.bytes", float(nbytes))
        self._spool._bytes_written += nbytes
        log.info(
            "spooled %d x %d rows (%.1f MB) to %s",
            self.n_rows,
            self.n_cols,
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
    """On-disk batch store for one streaming run's repeated sweeps.

    Args:
        root: directory holding the spool files (created on demand).
            It should belong to one run: a payload found there that
            this object did not seal is never replayed.
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        #: ``(n_rows, n_cols, sha256)`` of the payload sealed here, if any.
        self._seal: Optional[Tuple[int, int, str]] = None
        self._bytes_written = 0

    def data_path(self) -> Path:
        return self.root / "spool.bin"

    @property
    def bytes_written(self) -> int:
        """Payload bytes sealed by this spool."""
        return self._bytes_written

    def writer(self, n_rows: int, n_cols: int) -> SpoolWriter:
        """A writer for one cold sweep of ``n_rows x n_cols`` rows."""
        return SpoolWriter(self, n_rows, n_cols)

    def _quarantine(self, reason: str) -> None:
        self._seal = None
        metrics().counter_add("spool.quarantined", 1)
        dest = quarantine(self.data_path())
        log.warning(
            "spool failed verification (%s); quarantined %s — recomputing",
            reason,
            dest.name if dest is not None else "nothing (already gone)",
        )

    def open_replay(self, n_cols: int) -> Optional[Tuple[np.memmap, int]]:
        """Verify and map a sealed spool; ``(memmap, n_rows)`` or None.

        Verification runs on *every* open — one sequential pass hashing
        the payload against the digest recorded at seal, far cheaper
        than one featurization sweep — so corruption introduced at any
        point mid-run is caught before a single stale row reaches the
        engine.  On any failure the payload is quarantined and None is
        returned; the caller recomputes.
        """
        if self._seal is None:
            return None
        n_rows, sealed_cols, digest = self._seal
        if sealed_cols != n_cols:
            self._quarantine(f"sealed with {sealed_cols} columns, not {n_cols}")
            return None
        data_path = self.data_path()
        expected_bytes = n_rows * n_cols * 8
        try:
            actual_bytes = data_path.stat().st_size
        except OSError:
            self._quarantine("payload missing")
            return None
        if actual_bytes != expected_bytes:
            self._quarantine(f"payload is {actual_bytes} bytes, expected {expected_bytes}")
            return None
        mm = np.memmap(data_path, dtype=np.float64, mode="r", shape=(n_rows, n_cols))
        if _digest_memmap(mm) != digest:
            del mm
            self._quarantine("payload checksum mismatch")
            return None
        return mm, n_rows

    def replay(
        self, n_cols: int, batch_rows: int
    ) -> Optional[Iterator[Tuple[int, np.ndarray]]]:
        """Zero-copy batch iterator over a sealed spool, or None on a miss.

        Yields ``(start_row, rows)`` where ``rows`` is a read-only view
        into the payload memmap.  ``batch_rows`` need not match the
        recorded sweep's batching — the payload is one contiguous
        matrix, so any slicing reproduces the same rows bit-for-bit.
        """
        opened = self.open_replay(n_cols)
        if opened is None:
            return None
        mm, n_rows = opened

        def _iterate() -> Iterator[Tuple[int, np.ndarray]]:
            for start in range(0, n_rows, batch_rows):
                yield start, mm[start : min(start + batch_rows, n_rows)]

        return _iterate()
