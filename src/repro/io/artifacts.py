"""Crash-safe artifact store: atomic, verified, lockable ``.npz`` files.

Every characterization, feature block and pipeline stage checkpoint
in the repo persists through this module.  It provides four
guarantees the bare ``np.savez`` + ``path.exists()`` pattern cannot:

* **Atomic publication** — :func:`write_artifact` writes to a temporary
  file in the destination directory, fsyncs, and publishes with
  ``os.replace``.  A crash (including SIGKILL) at any instruction
  leaves either the previous artifact or none — never a truncated one.
* **Verified loads** — every artifact embeds a schema-versioned JSON
  header (the ``__artifact__`` member) carrying a SHA-256 digest per
  array.  :func:`read_artifact` re-hashes on load, so truncation, bit
  rot, and schema drift surface as :class:`ArtifactError` instead of
  downstream garbage.
* **Quarantine, not crash** — cache layers route loads through
  :func:`load_or_quarantine`, which moves a failing entry aside to
  ``<path>.corrupt-<timestamp_ns>`` and reports a miss so the caller
  rebuilds.  Nothing is silently deleted; the evidence stays on disk
  and the ``artifact_cache.corrupt`` / ``artifact_cache.quarantined``
  counters record the event.
* **Single-flight builds** — :func:`artifact_lock` serializes
  cross-process construction of one artifact with an ``fcntl.flock``
  advisory lock, which the kernel releases when the holder dies, even
  by SIGKILL.  Concurrent builders of one artifact (a
  ``characterize_to_file`` output, a feature-block merge) serialize
  instead of racing the write.  The store is POSIX-only.

:class:`StageCheckpoint` composes the primitives into stage-level
resume for the ``characterize`` pipeline's analysis and GA stages.
Protocol details and the quarantine layout live in docs/robustness.md.
"""

from __future__ import annotations

import fcntl
import json
import hashlib
import os
import signal
import tempfile
import time
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import emit_event, get_logger, metrics, span

PathLike = Union[str, Path]
Arrays = Dict[str, np.ndarray]
Meta = Dict[str, Any]

log = get_logger(__name__)

#: npz member holding the JSON header; excluded from checksumming.
HEADER_KEY = "__artifact__"

#: Bump when the header layout itself changes (not payload schemas).
ARTIFACT_VERSION = 1

__all__ = [
    "ARTIFACT_VERSION",
    "HEADER_KEY",
    "ArtifactError",
    "CorruptArtifact",
    "LockTimeout",
    "SchemaMismatch",
    "StageCheckpoint",
    "artifact_lock",
    "load_or_quarantine",
    "lock_path_for",
    "maybe_crash",
    "quarantine",
    "read_artifact",
    "write_artifact",
]


class ArtifactError(Exception):
    """A persisted artifact could not be trusted or produced."""


class CorruptArtifact(ArtifactError):
    """The file is unreadable, truncated, or fails checksum verification."""


class SchemaMismatch(ArtifactError):
    """The file is intact but has no artifact header, or the wrong schema or version."""


class LockTimeout(ArtifactError, TimeoutError):
    """The advisory lock could not be acquired within the timeout."""


# Everything np.load / zipfile / zlib raise on a damaged npz.
_CORRUPT_EXCEPTIONS = (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error)


def _array_digest(arr: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape, and raw bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(repr(arr.shape).encode())
    h.update(arr)  # the contiguous buffer itself, not a bytes copy
    return h.hexdigest()


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


def write_artifact(
    path: PathLike,
    arrays: Mapping[str, np.ndarray],
    *,
    schema: str,
    meta: Optional[Mapping[str, Any]] = None,
    version: int = ARTIFACT_VERSION,
) -> None:
    """Atomically write a checksummed, schema-versioned ``.npz`` artifact.

    Args:
        path: destination; parent directories are created.
        arrays: named payload arrays (``__artifact__`` is reserved).
        schema: payload schema name (``"characterization"``,
            ``"feature_block"``, ``"stage:*"``, ...); verified on load.
        meta: JSON-serializable metadata stored in the header.
        version: header format version.
    """
    path = Path(path)
    if HEADER_KEY in arrays:
        raise ValueError(f"array name {HEADER_KEY!r} is reserved")
    named = {name: np.asarray(value) for name, value in arrays.items()}
    header = {
        "schema": schema,
        "version": version,
        "meta": dict(meta or {}),
        "arrays": {
            name: {
                "sha256": _array_digest(value),
                "dtype": str(value.dtype),
                "shape": list(value.shape),
            }
            for name, value in named.items()
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **named, **{HEADER_KEY: np.array(json.dumps(header))})
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)
    metrics().counter_add("artifact_cache.writes", 1)


def read_artifact(
    path: PathLike,
    *,
    schema: str,
    version: int = ARTIFACT_VERSION,
) -> Tuple[Arrays, Meta]:
    """Load and verify an artifact, returning ``(arrays, meta)``.

    Only files written by :func:`write_artifact` load: a plain ``.npz``
    without an artifact header is a :class:`SchemaMismatch`.

    Raises:
        CorruptArtifact: unreadable npz, missing arrays, or checksum
            mismatch.
        SchemaMismatch: intact file with no artifact header, or with
            the wrong schema/version.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays: Arrays = {name: data[name] for name in data.files}
    except _CORRUPT_EXCEPTIONS as exc:
        raise CorruptArtifact(f"{path}: unreadable npz ({exc!r})") from exc
    header_raw = arrays.pop(HEADER_KEY, None)
    if header_raw is None:
        raise SchemaMismatch(f"{path}: missing artifact header")
    try:
        header = json.loads(str(header_raw))
    except ValueError as exc:
        raise CorruptArtifact(f"{path}: unparseable artifact header ({exc})") from exc
    if not isinstance(header, dict):
        raise CorruptArtifact(f"{path}: artifact header is not an object")
    if header.get("schema") != schema:
        raise SchemaMismatch(
            f"{path}: schema {header.get('schema')!r}, expected {schema!r}"
        )
    if header.get("version") != version:
        raise SchemaMismatch(
            f"{path}: artifact version {header.get('version')!r}, expected {version}"
        )
    declared = header.get("arrays")
    if not isinstance(declared, dict) or set(declared) != set(arrays):
        raise CorruptArtifact(f"{path}: header/payload array set mismatch")
    for name, info in declared.items():
        if _array_digest(arrays[name]) != info.get("sha256"):
            raise CorruptArtifact(f"{path}: checksum mismatch for array {name!r}")
    meta = header.get("meta")
    return arrays, dict(meta) if isinstance(meta, dict) else {}


def quarantine(path: PathLike) -> Optional[Path]:
    """Move a bad artifact to ``<path>.corrupt-<timestamp_ns>``.

    Returns the quarantine path, or None if the file was already gone
    (e.g. a concurrent process quarantined it first).
    """
    path = Path(path)
    dest = path.with_name(f"{path.name}.corrupt-{time.time_ns()}")
    try:
        os.replace(path, dest)
    except OSError:
        return None
    return dest


def load_or_quarantine(path: PathLike, loader, *, kind: str = "artifact"):
    """Run ``loader(path)``; quarantine the file and return None on failure.

    The loader must raise :class:`ArtifactError` for anything
    untrustworthy.  A missing file is an ordinary miss (None) and does
    not count as corruption.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        return loader(path)
    except ArtifactError as exc:
        reg = metrics()
        reg.counter_add("artifact_cache.corrupt", 1)
        dest = quarantine(path)
        if dest is not None:
            reg.counter_add("artifact_cache.quarantined", 1)
            log.warning(
                "%s %s failed verification (%s); quarantined to %s",
                kind,
                path,
                exc,
                dest.name,
            )
        else:
            log.warning(
                "%s %s failed verification (%s); already removed by another process",
                kind,
                path,
                exc,
            )
        return None


# --------------------------------------------------------------------------
# Advisory locking


def lock_path_for(path: PathLike) -> Path:
    """The lock file guarding one artifact path.

    Locks live in a ``.locks/`` subdirectory next to the artifact, so
    the lock files left behind (see :func:`artifact_lock`) never
    pollute artifact-directory listings.
    """
    path = Path(path)
    return path.parent / ".locks" / (path.name + ".lock")


@contextmanager
def artifact_lock(
    path: PathLike,
    *,
    timeout: float = 3600.0,
    poll: float = 0.05,
) -> Iterator[None]:
    """Cross-process ``fcntl.flock`` lock guarding the artifact at ``path``.

    The kernel drops the lock when the holding process exits — however
    it exits — so a SIGKILLed builder never wedges later runs; no stale
    detection is needed.  The lock file itself is never unlinked
    (unlink + flock re-creation races would let two holders coexist);
    a ``.lock`` file at rest is expected residue.

    Args:
        path: the artifact being built; the lock file is
            :func:`lock_path_for` ``(path)``.
        timeout: seconds to wait before raising :class:`LockTimeout`.
        poll: seconds between acquisition attempts while contended.
    """
    lock_path = lock_path_for(path)
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        deadline = time.monotonic() + timeout
        waited = False
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                if not waited:
                    waited = True
                    metrics().counter_add("artifact_cache.lock_waits", 1)
                    log.info("waiting for lock %s", lock_path)
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"{lock_path}: lock not acquired within {timeout:.0f}s"
                    )
                time.sleep(poll)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


# --------------------------------------------------------------------------
# Fault injection (test-only)


def maybe_crash(point: str) -> None:
    """SIGKILL the process when ``REPRO_FAULT_SIGKILL_AFTER`` names ``point``.

    Test-only hook behind an env var: the fault-injection suite and the
    CI crash/resume smoke job use it to die deterministically right
    after a stage completes: its checkpoint is on disk (``analysis``,
    ``ga``), or its rows are in the feature blocks (``dataset``).  A
    no-op in normal runs.
    """
    if os.environ.get("REPRO_FAULT_SIGKILL_AFTER") == point:
        log.warning("fault injection: SIGKILL after %r", point)
        os.kill(os.getpid(), signal.SIGKILL)


# --------------------------------------------------------------------------
# Stage checkpoints


class StageCheckpoint:
    """Stage-level checkpoint store for one ``characterize`` run.

    Each completed analysis stage (``analysis``, ``ga``) is persisted
    as its own verified artifact under ``root``, named
    ``stage_<stage>_<run_key>.npz``.  ``run_key`` must encode everything
    that determines the run's results (config full key + benchmark
    selection), so stages from a different configuration can never be
    resumed by mistake.  With ``resume=False`` the store still writes
    checkpoints (keeping every run crash-safe) but never reads them.

    Stage artifacts are left in place after a successful run: a re-run
    with the same key short-circuits through them, and the results are
    bit-identical either way because every stage draws from its own
    seeded RNG stream.
    """

    def __init__(self, root: PathLike, run_key: str, *, resume: bool = True):
        self.root = Path(root)
        self.run_key = run_key
        self.resume = resume

    def path(self, stage: str) -> Path:
        """The checkpoint file for one stage."""
        return self.root / f"stage_{stage}_{self.run_key}.npz"

    def load(
        self,
        stage: str,
        *,
        require_arrays: Sequence[str] = (),
        require_meta: Sequence[str] = (),
    ) -> Optional[Tuple[Arrays, Meta]]:
        """Load a completed stage, or None when it must be (re)computed.

        A checkpoint that fails verification or lacks a required array
        or meta key is quarantined and reported as a miss.
        """
        if not self.resume:
            return None
        path = self.path(stage)
        with span("io.checkpoint", stage=stage, op="load"):
            loaded = load_or_quarantine(
                path,
                lambda p: read_artifact(p, schema=f"stage:{stage}"),
                kind=f"stage checkpoint {stage!r}",
            )
        if loaded is None:
            return None
        arrays, meta = loaded
        missing = [k for k in require_arrays if k not in arrays]
        missing += [k for k in require_meta if k not in meta]
        if missing:
            reg = metrics()
            reg.counter_add("artifact_cache.corrupt", 1)
            dest = quarantine(path)
            if dest is not None:
                reg.counter_add("artifact_cache.quarantined", 1)
            log.warning(
                "stage checkpoint %r missing %s; quarantined and recomputing",
                stage,
                ", ".join(missing),
            )
            return None
        metrics().counter_add("checkpoint.stage_hits", 1)
        emit_event("stage", stage=stage, action="resumed")
        log.info("resumed stage %r from %s", stage, path)
        return arrays, meta

    def save(
        self,
        stage: str,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Persist a completed stage atomically; returns its path."""
        path = self.path(stage)
        with span("io.checkpoint", stage=stage, op="save"):
            write_artifact(path, arrays, schema=f"stage:{stage}", meta=meta)
        metrics().counter_add("checkpoint.stage_writes", 1)
        # The stage event lands on the telemetry stream *before* the
        # fault-injection hook, so a SIGKILL right after the checkpoint
        # leaves a log that already records the completed stage.
        emit_event("stage", stage=stage, action="completed")
        log.debug("checkpointed stage %r to %s", stage, path)
        maybe_crash(stage)
        return path
