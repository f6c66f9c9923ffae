"""Append-only, checksummed JSON record logs.

A :class:`RecordLog` is the one implementation of durable JSON records
in the package: one file per record, written with tmp + fsync +
``os.replace``, stamped with a monotonic sequence number allocated
under the artifact store's cross-process advisory lock, and carrying a
SHA-256 digest of its canonical payload that is re-verified on every
read (failures are quarantined, never silently deleted).  Both the
run-history store (:class:`repro.obs.history.HistoryStore`) and the
service job queue
(:class:`repro.service.queue.JobQueue`) build on it.

Layout::

    <root>/
      COUNTER                          # last allocated sequence number
      .locks/                          # artifact_lock residue
      [<directory>/]<prefix>-000001-<tag>.json  # one envelope per record

Logs that share a root share its ``COUNTER`` and lock, and so one
gap-free sequence; a lost ``COUNTER`` is rebuilt from the record files
in the root and its immediate subdirectories, whichever log wrote
them.

Envelope::

    {"schema": <schema>, "version": 1, "seq": 1,
     "created": <unix time>, "sha256": <digest of canonical record>,
     "record": {...}, ...}     # plus any header fields the caller stamps

A log is *append-only*: records are never rewritten in place.  State
machines layered on top (the job queue) model transitions as new
records and fold the log by sequence number, so a crash at any point
leaves a prefix that still tells the whole story.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..obs import get_logger

__all__ = [
    "RECORD_SCHEMA_VERSION",
    "RecordLog",
    "canonical_digest",
    "write_json_atomic",
]

PathLike = Union[str, Path]

#: Bump when the envelope layout changes incompatibly.
RECORD_SCHEMA_VERSION = 1

log = get_logger(__name__)


def canonical_digest(record: Any) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON form of a record."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_json_atomic(path: PathLike, document: Dict[str, Any]) -> None:
    """tmp + fsync + ``os.replace``: the artifact-store write discipline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _safe_tag(tag: str) -> str:
    return re.sub(r"[^A-Za-z0-9._+-]", "_", tag)[:80] or "record"


#: A record file name, ``<prefix>-<seq>-<tag>.json`` (quarantined
#: ``.corrupt-*`` copies included, so a lost COUNTER skips them too).
_RECORD_NAME = re.compile(r"^[A-Za-z]+-(\d+)-")


class RecordLog:
    """One append-only directory of checksummed, seq-stamped JSON records.

    Args:
        root: owns the ``COUNTER`` and the lock that allocate sequence
            numbers.
        schema: stamped into every envelope and required on read.
        prefix: record file name prefix.
        directory: optional subdirectory of ``root`` holding the
            records, so several logs can share one root and one
            sequence.
    """

    def __init__(
        self,
        root: PathLike,
        *,
        schema: str,
        prefix: str = "rec",
        directory: Optional[PathLike] = None,
    ) -> None:
        self.root = Path(root)
        self.schema = schema
        self.prefix = prefix
        self.directory = self.root / directory if directory is not None else self.root

    def _counter_path(self) -> Path:
        return self.root / "COUNTER"

    def _next_seq_locked(self) -> int:
        """Allocate the next sequence number; caller holds the counter lock.

        A lost COUNTER never reuses a number: every record file in the
        root and its immediate subdirectories — whichever log of the
        root wrote it — is scanned, and allocation continues past the
        highest on disk.
        """
        counter = self._counter_path()
        try:
            last = int(counter.read_text().strip() or 0)
        except (OSError, ValueError):
            last = 0
        for directory in [self.root, *(p for p in self.root.iterdir() if p.is_dir())]:
            for name in os.listdir(directory):
                match = _RECORD_NAME.match(name)
                if match:
                    last = max(last, int(match.group(1)))
        seq = last + 1
        fd, tmp = tempfile.mkstemp(dir=str(self.root), prefix="COUNTER.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(str(seq))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, counter)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return seq

    def append(
        self, record: Dict[str, Any], *, tag: str = "record", **header: Any
    ) -> Dict[str, Any]:
        """Append one record; returns its envelope (with ``path`` added).

        The sequence number is allocated and the file published under
        the artifact store's advisory lock, so concurrent appenders from
        any process interleave into one gap-free, totally ordered log.
        ``header`` fields are stamped into the envelope next to ``seq``
        (they are not covered by the record digest).
        """
        # Lazy import: artifacts imports from repro.obs at module scope;
        # importing it here keeps the io package import-order agnostic.
        from .artifacts import artifact_lock

        self.root.mkdir(parents=True, exist_ok=True)
        with artifact_lock(self._counter_path()):
            seq = self._next_seq_locked()
            envelope = {
                **header,
                "schema": self.schema,
                "version": RECORD_SCHEMA_VERSION,
                "seq": seq,
                "created": time.time(),
                "sha256": canonical_digest(record),
                "record": record,
            }
            path = self.directory / f"{self.prefix}-{seq:06d}-{_safe_tag(tag)}.json"
            write_json_atomic(path, envelope)
        envelope["path"] = str(path)
        return envelope

    def _verify(self, path: Path) -> Optional[Dict[str, Any]]:
        from .artifacts import quarantine

        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            envelope = None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != self.schema
            or envelope.get("version") != RECORD_SCHEMA_VERSION
            or canonical_digest(envelope.get("record")) != envelope.get("sha256")
        ):
            dest = quarantine(path)
            log.warning(
                "record %s failed verification; quarantined to %s",
                path,
                dest.name if dest else "(already removed)",
            )
            return None
        envelope["path"] = str(path)
        return envelope

    def read(self) -> List[Dict[str, Any]]:
        """All verified envelopes, ordered by sequence number.

        A record that fails verification (truncated, bit-flipped,
        wrong schema) is quarantined aside and skipped; the rest of the
        log remains usable.
        """
        if not self.directory.is_dir():
            return []
        out: List[Dict[str, Any]] = []
        for name in sorted(os.listdir(self.directory)):
            if not name.startswith(f"{self.prefix}-") or not name.endswith(".json"):
                continue
            envelope = self._verify(self.directory / name)
            if envelope is not None:
                out.append(envelope)
        out.sort(key=lambda e: e.get("seq", 0))
        return out
