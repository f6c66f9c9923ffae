"""One workspace serves batch after batch, bit-identically.

A featurizing thread reuses one :class:`~repro.mica.workspace.Workspace`
for every batch of a build or a streaming sweep: the trace columns and
the fused pass's arena are overwritten in place.  Rows must not depend
on what an earlier batch left behind — a full batch, a shorter last
batch and a batch of another benchmark, run through one workspace,
must give exactly the rows of fresh allocations.
"""

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.mica import FUSED_BATCH_INSTRUCTIONS, characterize_intervals
from repro.mica.workspace import TraceBatch, Workspace
from repro.suites import get_benchmark

CFG = AnalysisConfig.small()
N = CFG.interval_instructions


def _fill(ws, bench, picks):
    batch = ws.batch([N] * len(picks))
    for k, index in enumerate(picks):
        bench.program.interval_trace(index, N, out=batch[k])
    return batch


def _fresh_rows(bench, picks):
    return characterize_intervals([bench.program.interval_trace(i, N) for i in picks], CFG)


def test_batches_reuse_one_workspace_bit_identically():
    per_batch = FUSED_BATCH_INSTRUCTIONS // N
    first = get_benchmark("SPECint2006", "gcc")
    other = get_benchmark("BioPerf", "hmmer")
    runs = [
        (first, list(range(per_batch))),  # a full batch
        (first, list(range(per_batch, per_batch + 3))),  # a shorter last batch
        (other, list(range(1, per_batch + 1))),  # another benchmark
    ]
    ws = Workspace()
    arena_before = None
    wholes = []
    for bench, picks in runs:
        batch = _fill(ws, bench, picks)
        assert len(batch) == len(picks)
        assert len(batch.whole) == N * len(picks)
        rows = characterize_intervals(batch, CFG)
        np.testing.assert_array_equal(rows, _fresh_rows(bench, picks))
        np.testing.assert_array_equal(rows, characterize_intervals(list(batch), CFG))
        wholes.append(batch.whole)
        if arena_before is not None:
            assert ws._arena is arena_before  # sized once, never regrown
        arena_before = ws._arena
    for name in ("op", "addr", "pc", "taken"):
        base = getattr(wholes[0], name)
        assert all(np.shares_memory(base, getattr(w, name)) for w in wholes[1:])


def test_trace_batch_is_a_sequence_of_interval_views():
    ws = Workspace()
    bench = get_benchmark("BMW", "face")
    batch = _fill(ws, bench, [0, 2, 5])
    assert isinstance(batch, TraceBatch)
    assert [len(t) for t in batch] == [N, N, N]
    assert list(batch.lengths) == [N, N, N]
    last = batch[-1]
    assert np.shares_memory(last.pc, batch.whole.pc)
    np.testing.assert_array_equal(last.pc, bench.program.interval_trace(5, N).pc)
    with pytest.raises(IndexError):
        batch[3]
    with pytest.raises(ValueError):
        TraceBatch(batch.whole, [N, N], ws)


def test_workspace_grows_to_the_largest_batch():
    # A workspace starts empty and grows when a batch is larger than any
    # before; oversize temporaries come from the heap once, and the
    # arena is regrown before the next batch.  Rows never change.
    ws = Workspace()
    bench = get_benchmark("SPECfp2006", "lbm")
    for picks in ([0], [1, 2, 3], [4, 5]):
        batch = _fill(ws, bench, picks)
        np.testing.assert_array_equal(
            characterize_intervals(batch, CFG), _fresh_rows(bench, picks)
        )
    assert len(ws._columns) == 3 * N
    assert len(ws._arena) >= ws._need


def test_frames_release_in_stack_order():
    ws = Workspace()
    ws.batch([1000])  # provisions the arena at the next outermost frame
    with ws.frame():
        a = ws.empty(100, np.int64)
        with ws.frame():
            b = ws.empty(100, np.int64)
        c = ws.empty(100, np.int64)
        assert np.shares_memory(b, c) and not np.shares_memory(a, c)
        assert np.shares_memory(a, ws._arena)
    with ws.frame():
        assert np.shares_memory(ws.empty(100, np.int64), a)
