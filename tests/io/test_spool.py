"""Tests for the feature spool: round trips, fault injection."""

import numpy as np
import pytest

from repro.io.spool import FeatureSpool
from repro.obs import observe

from .faults import bit_flip, truncate_file


@pytest.fixture
def rows():
    rng = np.random.default_rng(7)
    return rng.standard_normal((23, 5))


def make_spool(tmp_path):
    return FeatureSpool(tmp_path)


def write_kind(spool, kind, rows, batch=7):
    writer = spool.writer(kind, len(rows), rows.shape[1])
    for start in range(0, len(rows), batch):
        writer.append(rows[start : start + batch])
    writer.seal()


def replay_all(spool, kind, n_cols, batch):
    replay = spool.replay(kind, n_cols, batch)
    assert replay is not None
    starts, chunks = [], []
    for start, chunk in replay:
        starts.append(start)
        chunks.append(np.asarray(chunk))
    return starts, np.concatenate(chunks) if chunks else np.empty((0, n_cols))


def test_round_trip_bit_identical(tmp_path, rows):
    spool = make_spool(tmp_path)
    assert not spool.ready("raw")
    write_kind(spool, "raw", rows)
    assert spool.ready("raw")
    starts, got = replay_all(spool, "raw", 5, batch=7)
    assert starts == [0, 7, 14, 21]
    assert got.dtype == np.float64
    assert np.array_equal(got, rows)


def test_replay_rebatches_freely(tmp_path, rows):
    # Replay batching is independent of the batching the sweep wrote with.
    spool = make_spool(tmp_path)
    write_kind(spool, "raw", rows, batch=7)
    for batch in (1, 4, 23, 100):
        _, got = replay_all(spool, "raw", 5, batch=batch)
        assert np.array_equal(got, rows)


def test_replay_views_are_zero_copy(tmp_path, rows):
    spool = make_spool(tmp_path)
    write_kind(spool, "raw", rows)
    replay = spool.replay("raw", 5, 7)
    _, chunk = next(replay)
    assert isinstance(chunk, np.memmap) or isinstance(chunk.base, np.memmap)


def test_kinds_are_independent(tmp_path, rows):
    spool = make_spool(tmp_path)
    write_kind(spool, "raw", rows)
    assert spool.ready("raw")
    assert not spool.ready("proj")
    assert spool.replay("proj", 3, 8) is None


def test_unsealed_writer_leaves_nothing_replayable(tmp_path, rows):
    spool = make_spool(tmp_path)
    writer = spool.writer("raw", len(rows), 5)
    writer.append(rows[:7])
    writer.abandon()
    assert not spool.ready("raw")
    assert spool.replay("raw", 5, 7) is None
    assert list(tmp_path.glob("*.tmp")) == []


def test_seal_short_raises_and_abandons(tmp_path, rows):
    spool = make_spool(tmp_path)
    writer = spool.writer("raw", len(rows), 5)
    writer.append(rows[:7])
    with pytest.raises(ValueError, match="sealed short"):
        writer.seal()
    assert not spool.ready("raw")


def test_append_overflow_raises(tmp_path, rows):
    spool = make_spool(tmp_path)
    writer = spool.writer("raw", 10, 5)
    with pytest.raises(ValueError, match="overflow"):
        writer.append(rows)
    writer.abandon()


def test_overflowing_append_writes_nothing(tmp_path, rows):
    # A rejected append leaves the writer as it was: it can still be
    # filled to plan and sealed, and the payload holds only good rows.
    spool = make_spool(tmp_path)
    writer = spool.writer("raw", 10, 5)
    with pytest.raises(ValueError, match="overflow"):
        writer.append(rows)
    writer.append(rows[:10])
    writer.seal()
    _, got = replay_all(spool, "raw", 5, batch=4)
    assert np.array_equal(got, rows[:10])


def test_append_rejects_wrong_width(tmp_path, rows):
    spool = make_spool(tmp_path)
    writer = spool.writer("raw", len(rows), 5)
    with pytest.raises(ValueError, match="rows"):
        writer.append(rows[:, :3])
    writer.abandon()


def test_bytes_written_tracks_sealed_payloads(tmp_path, rows):
    spool = make_spool(tmp_path)
    assert spool.bytes_written == 0
    write_kind(spool, "raw", rows)
    assert spool.bytes_written == 23 * 5 * 8


def test_truncated_payload_quarantined(tmp_path, rows):
    spool = make_spool(tmp_path)
    write_kind(spool, "raw", rows)
    truncate_file(spool.data_path("raw"), keep=0.5)
    with observe() as ob:
        assert spool.replay("raw", 5, 7) is None
    assert ob.metrics.counter_value("spool.quarantined") == 1
    assert not spool.ready("raw")
    assert list(tmp_path.glob("*.corrupt-*"))


def test_bit_flipped_payload_quarantined(tmp_path, rows):
    # Same size, one flipped bit: only the checksum pass can catch this.
    spool = make_spool(tmp_path)
    write_kind(spool, "raw", rows)
    bit_flip(spool.data_path("raw"), offset=500)
    assert spool.replay("raw", 5, 7) is None
    assert not spool.ready("raw")
    assert list(tmp_path.glob("*.corrupt-*"))


def test_recovery_after_quarantine(tmp_path, rows):
    # Quarantine frees the name: a fresh sweep re-spools and replays.
    spool = make_spool(tmp_path)
    write_kind(spool, "raw", rows)
    truncate_file(spool.data_path("raw"), keep=0.25)
    assert spool.replay("raw", 5, 7) is None
    write_kind(spool, "raw", rows)
    _, got = replay_all(spool, "raw", 5, batch=9)
    assert np.array_equal(got, rows)


def test_payload_sealed_elsewhere_is_never_replayed(tmp_path, rows):
    # A spool replays only what it sealed itself: another spool on the
    # same directory (a later run, say) sees nothing to replay.
    write_kind(make_spool(tmp_path), "raw", rows)
    other = make_spool(tmp_path)
    assert other.data_path("raw").exists()
    assert not other.ready("raw")
    assert other.replay("raw", 5, 7) is None


def test_new_writer_forgets_the_earlier_seal(tmp_path, rows):
    spool = make_spool(tmp_path)
    write_kind(spool, "raw", rows)
    writer = spool.writer("raw", len(rows), 5)
    assert not spool.ready("raw")
    assert spool.replay("raw", 5, 7) is None
    writer.abandon()
