"""Persistence helpers: crash-safe artifacts, feature blocks, record logs, text tables."""

from .artifacts import (
    ArtifactError,
    CorruptArtifact,
    LockTimeout,
    SchemaMismatch,
    StageCheckpoint,
    artifact_lock,
    load_or_quarantine,
    quarantine,
    read_artifact,
    write_artifact,
)
from .feature_blocks import FeatureBlockCache, feature_block_dir
from .records import RECORD_SCHEMA_VERSION, RecordLog, canonical_digest, write_json_atomic
from .spool import FeatureSpool, SpoolWriter
from .tables import format_table

__all__ = [
    "ArtifactError",
    "CorruptArtifact",
    "FeatureBlockCache",
    "FeatureSpool",
    "LockTimeout",
    "RECORD_SCHEMA_VERSION",
    "RecordLog",
    "SchemaMismatch",
    "SpoolWriter",
    "StageCheckpoint",
    "artifact_lock",
    "canonical_digest",
    "feature_block_dir",
    "format_table",
    "load_or_quarantine",
    "quarantine",
    "read_artifact",
    "write_artifact",
    "write_json_atomic",
]
