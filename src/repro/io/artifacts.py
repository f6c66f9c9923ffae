"""Crash-safe artifact store: atomic, verified, lockable ``.npz`` files.

Every dataset, characterization, feature block and pipeline stage
checkpoint in the repo persists through this module.  It provides four
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
  cross-process construction of one artifact with an advisory lock:
  ``fcntl.flock`` where available (the kernel releases it when the
  holder dies, even by SIGKILL), or an exclusive-create pidfile with
  stale-lock takeover elsewhere.  Concurrent builders of one artifact
  (a ``characterize_to_file`` output, a feature-block merge) serialize
  instead of racing the write.

:class:`StageCheckpoint` composes the primitives into stage-level
resume for the ``characterize`` pipeline (dataset → analysis → GA).
Protocol details and the quarantine layout live in docs/robustness.md.
"""

from __future__ import annotations

import json
import hashlib
import os
import signal
import socket
import tempfile
import time
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import emit_event, get_logger, metrics, span
from ..obs.proc import pid_alive

try:  # POSIX advisory locks; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

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
    """The file is intact but carries the wrong schema or version."""


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
    h.update(arr.tobytes())
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
        schema: payload schema name (``"dataset"``,
            ``"characterization"``, ``"feature_block"``, ``"stage:*"``);
            verified on load.
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
    allow_legacy: bool = True,
) -> Tuple[Arrays, Meta]:
    """Load and verify an artifact, returning ``(arrays, meta)``.

    With ``allow_legacy`` (the default), a headerless plain ``.npz``
    written before the artifact store existed is accepted unverified:
    its arrays are returned as-is and a legacy ``meta`` member (the
    JSON blob old characterizations carried) is parsed into the meta
    dict.  Pass ``allow_legacy=False`` for artifacts that can only ever
    have been produced by :func:`write_artifact` (stage checkpoints).

    Raises:
        CorruptArtifact: unreadable npz, missing arrays, or checksum
            mismatch.
        SchemaMismatch: intact file with the wrong schema/version, or
            headerless when ``allow_legacy=False``.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays: Arrays = {name: data[name] for name in data.files}
    except _CORRUPT_EXCEPTIONS as exc:
        raise CorruptArtifact(f"{path}: unreadable npz ({exc!r})") from exc
    header_raw = arrays.pop(HEADER_KEY, None)
    if header_raw is None:
        if not allow_legacy:
            raise SchemaMismatch(f"{path}: missing artifact header")
        meta: Meta = {}
        legacy_meta = arrays.pop("meta", None)
        if legacy_meta is not None:
            try:
                meta = json.loads(str(legacy_meta))
            except ValueError as exc:
                raise CorruptArtifact(f"{path}: unparseable legacy meta ({exc})") from exc
        metrics().counter_add("artifact_cache.legacy_loads", 1)
        return arrays, meta
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
    the residue an flock backend leaves behind (see :class:`_FlockLock`)
    never pollutes artifact-directory listings.
    """
    path = Path(path)
    return path.parent / ".locks" / (path.name + ".lock")


def _owner_stamp() -> Dict[str, Any]:
    return {"pid": os.getpid(), "host": socket.gethostname(), "time": time.time()}


class _FlockLock:
    """``fcntl.flock`` exclusive lock on a sidecar lock file.

    The kernel drops the lock when the holding process exits — however
    it exits — so a SIGKILLed builder never wedges later runs; no stale
    detection is needed.  The lock file itself is never unlinked
    (unlink + flock re-creation races would let two holders coexist);
    an empty ``.lock`` file at rest is expected residue.
    """

    def __init__(self, lock_path: Path, timeout: float, poll: float):
        self.lock_path = lock_path
        self.timeout = timeout
        self.poll = poll
        self._fd: Optional[int] = None

    def acquire(self) -> None:
        fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        deadline = time.monotonic() + self.timeout
        waited = False
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                if not waited:
                    waited = True
                    metrics().counter_add("artifact_cache.lock_waits", 1)
                    log.info("waiting for lock %s", self.lock_path)
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise LockTimeout(
                        f"{self.lock_path}: lock not acquired within {self.timeout:.0f}s"
                    )
                time.sleep(self.poll)
        self._fd = fd
        try:
            os.ftruncate(fd, 0)
            os.write(fd, json.dumps(_owner_stamp()).encode())
        except OSError:  # pragma: no cover - stamp is advisory
            pass

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None


class _PidFileLock:
    """Exclusive-create pidfile lock with stale-lock takeover.

    Portable fallback for platforms without ``fcntl``.  A lock is
    considered stale — and taken over, bumping the
    ``artifact_cache.stale_locks`` counter — when its recorded owner
    pid is dead on this host, or the file has not been touched for
    ``stale_after`` seconds.

    Takeover discipline (the unlink + re-create scheme this replaces
    let *every* waiter that had judged the lock stale proceed, so two
    stealers both "won" and single-flight silently became N-flight):

    1. A stealer never unlinks the lock file.  It writes its own stamp
       to a sibling temp file, re-reads the lock immediately before
       publishing, requires the content to still be the exact stale
       stamp it judged, and takes over with one atomic ``os.replace``.
       A rival that won first has already changed the content, so the
       re-read aborts the steal.
    2. Every acquisition — clean create or takeover — is confirmed by
       read-back: after a short settle, the lock must still hold *our*
       uniquely-nonced stamp.  If a rival replaced it in the remaining
       re-read→replace window, exactly one of us reads back its own
       stamp (the last replace wins); the loser bumps
       ``artifact_cache.lock_steal_races`` and goes back to waiting.
    3. Release only unlinks the file while it still holds our stamp, so
       a holder that lost a (mis)takeover never deletes the new owner's
       lock out from under it.

    With only create/read/replace primitives a perfect mutex is not
    constructible (that is what ``flock`` is for); the read-back makes
    the double-holder schedule require two context switches inside a
    millisecond-scale window instead of any interleaving at all, and a
    lost race is detected rather than silent.
    """

    #: Seconds to let rival replaces land before trusting the read-back.
    _SETTLE = 0.005

    def __init__(self, lock_path: Path, timeout: float, poll: float, stale_after: float):
        self.lock_path = lock_path
        self.timeout = timeout
        self.poll = poll
        self.stale_after = stale_after
        self._held = False
        self._stamp: Optional[Dict[str, Any]] = None

    def _read_owner(self) -> Optional[Dict[str, Any]]:
        """The lock file's current stamp, ``{}`` if unparseable, None if gone."""
        try:
            raw = self.lock_path.read_text()
        except OSError:
            return None
        try:
            owner = json.loads(raw) if raw.strip() else {}
        except ValueError:
            owner = {}
        return owner if isinstance(owner, dict) else {}

    def acquire(self) -> None:
        deadline = time.monotonic() + self.timeout
        waited = False
        while True:
            self._stamp = dict(
                _owner_stamp(), nonce=f"{os.getpid()}.{time.monotonic_ns()}"
            )
            acquired = False
            try:
                fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                acquired = self._steal_if_stale()
            else:
                with os.fdopen(fd, "w") as handle:
                    json.dump(self._stamp, handle)
                acquired = True
            if acquired:
                time.sleep(self._SETTLE)
                if self._read_owner() == self._stamp:
                    self._held = True
                    return
                metrics().counter_add("artifact_cache.lock_steal_races", 1)
                log.warning(
                    "lost %s to a concurrent takeover after acquiring; backing off",
                    self.lock_path,
                )
            if not waited:
                waited = True
                metrics().counter_add("artifact_cache.lock_waits", 1)
                log.info("waiting for lock %s", self.lock_path)
            if time.monotonic() >= deadline:
                raise LockTimeout(
                    f"{self.lock_path}: lock not acquired within {self.timeout:.0f}s"
                )
            time.sleep(self.poll)

    def _steal_if_stale(self) -> bool:
        """Try to take over a stale lock; True means "probably ours now"."""
        owner = self._read_owner()
        if owner is None:
            return False  # vanished underneath us; retry the create path
        stale = False
        pid = owner.get("pid")
        if pid is not None and owner.get("host") == socket.gethostname():
            stale = not pid_alive(pid)
        if not stale:
            try:
                age = time.time() - self.lock_path.stat().st_mtime
            except OSError:
                return False  # vanished; retry the create path
            stale = age > self.stale_after
        if not stale:
            return False
        fd, tmp = tempfile.mkstemp(
            dir=str(self.lock_path.parent), prefix=self.lock_path.name + ".", suffix=".steal"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self._stamp, handle)
                handle.flush()
                os.fsync(handle.fileno())
            # Last-moment re-read: only replace while the lock still
            # carries the stale stamp we decided on.  A rival stealer
            # (or a fresh legitimate holder) has already changed it.
            if self._read_owner() != owner:
                return False
            os.replace(tmp, self.lock_path)
            tmp = None
        except OSError:  # pragma: no cover - fs error mid-steal
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:  # pragma: no cover - already gone
                    pass
        metrics().counter_add("artifact_cache.stale_locks", 1)
        log.warning("took over stale lock %s (owner %s)", self.lock_path, owner)
        return True

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        owner = self._read_owner()
        if owner != self._stamp:
            log.warning(
                "lock %s no longer ours at release (taken over as stale?); "
                "leaving it to its new owner",
                self.lock_path,
            )
            return
        try:
            os.unlink(self.lock_path)
        except OSError:  # pragma: no cover - already stolen or cleaned
            pass


@contextmanager
def artifact_lock(
    path: PathLike,
    *,
    timeout: float = 3600.0,
    poll: float = 0.05,
    stale_after: float = 300.0,
) -> Iterator[None]:
    """Cross-process advisory lock guarding the artifact at ``path``.

    Lock selection: ``fcntl.flock`` on POSIX, pidfile with stale
    takeover elsewhere; ``REPRO_ARTIFACT_LOCK=pidfile`` forces the
    fallback (used by the fault-injection tests).

    Args:
        path: the artifact being built; the lock file is ``<path>.lock``.
        timeout: seconds to wait before raising :class:`LockTimeout`.
        poll: seconds between acquisition attempts while contended.
        stale_after: pidfile age beyond which a lock with an
            unverifiable owner is taken over (ignored under flock —
            the kernel already releases a dead holder's lock).
    """
    lock_path = lock_path_for(path)
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    backend = os.environ.get("REPRO_ARTIFACT_LOCK", "auto")
    if fcntl is not None and backend != "pidfile":
        lock = _FlockLock(lock_path, timeout, poll)
    else:
        lock = _PidFileLock(lock_path, timeout, poll, stale_after)
    lock.acquire()
    try:
        yield
    finally:
        lock.release()


# --------------------------------------------------------------------------
# Fault injection (test-only)


def maybe_crash(point: str) -> None:
    """SIGKILL the process when ``REPRO_FAULT_SIGKILL_AFTER`` names ``point``.

    Test-only hook behind an env var: the fault-injection suite and the
    CI crash/resume smoke job use it to die deterministically right
    after a stage checkpoint lands on disk.  A no-op in normal runs.
    """
    if os.environ.get("REPRO_FAULT_SIGKILL_AFTER") == point:
        log.warning("fault injection: SIGKILL after %r", point)
        os.kill(os.getpid(), signal.SIGKILL)


# --------------------------------------------------------------------------
# Stage checkpoints


class StageCheckpoint:
    """Stage-level checkpoint store for one ``characterize`` run.

    Each completed pipeline stage (``dataset``, ``analysis``, ``ga``)
    is persisted as its own verified artifact under ``root``, named
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
                lambda p: read_artifact(p, schema=f"stage:{stage}", allow_legacy=False),
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
