"""In-place synthesis: a workspace batch is byte-identical to fresh traces.

Featurization synthesizes each fused batch straight into a workspace's
trace columns (``interval_trace(..., out=batch[i])``).  For every
benchmark of every suite, at the tiny and small interval sizes, the
filled batch must equal the concatenation of independently generated
``interval_trace(i)`` calls, column for column — and those must equal a
plain reference of the generation algorithm (tile the body, draw every
stream and branch model at its full ceil-tiled size, concatenate the
pieces), so filling in place changed no draw and no byte.
"""

import math

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.isa import NO_ADDR, OpClass, Trace, concat
from repro.mica.workspace import Workspace
from repro.suites import all_benchmarks
from repro.synth import BlendKernel, Kernel
from repro.synth.rng import generator

COLUMNS = ("op", "src1", "src2", "dst", "addr", "pc", "taken")
SIZES = (AnalysisConfig.tiny().interval_instructions, AnalysisConfig.small().interval_instructions)


def reference_generate(kernel, n, rng):
    """The generation algorithm written plainly: one fresh trace per call."""
    if isinstance(kernel, BlendKernel):
        weights = np.array([w for _, w in kernel.parts])
        pieces, remaining = [], n
        while remaining > 0:
            sub = kernel.parts[int(rng.choice(len(kernel.parts), p=weights))][0]
            size = min(kernel.chunk, remaining)
            pieces.append(reference_generate(sub, size, rng))
            remaining -= size
        return concat(pieces)
    body = kernel.body
    width = len(body)
    reps = math.ceil(n / width)
    if kernel.n_variants == 1:
        variant = np.zeros(reps, dtype=np.int64)
    else:
        variant = rng.integers(0, kernel.n_variants, size=reps, dtype=np.int64)
    pos = np.arange(reps * width)
    slot = pos % width
    pc = kernel.code_base + variant[pos // width] * width * kernel.pc_spacing
    pc = pc + slot * kernel.pc_spacing
    addr = np.full(reps * width, NO_ADDR, dtype=np.int64)
    streams = {}
    for idx, s in enumerate(body):
        if s.stream is not None:
            streams.setdefault(id(s.stream), (s.stream, []))[1].append(idx)
    for stream, positions in streams.values():
        seq = stream.addresses(reps * len(positions), rng)
        addr[(np.arange(reps)[:, None] * width + np.array(positions)[None, :]).ravel()] = seq
    taken = np.zeros(reps * width, dtype=bool)
    for idx, s in enumerate(body):
        if s.op is OpClass.CALL:
            taken[idx::width] = True
        elif s.branch is not None:
            taken[idx::width] = s.branch.outcomes(reps, rng)
    full = Trace(
        op=np.array([int(s.op) for s in body], dtype=np.uint8)[slot],
        src1=np.array([s.src1 for s in body], dtype=np.int16)[slot],
        src2=np.array([s.src2 for s in body], dtype=np.int16)[slot],
        dst=np.array([s.dst for s in body], dtype=np.int16)[slot],
        addr=addr,
        pc=pc.astype(np.int64),
        taken=taken,
    )
    return full.slice(0, n)


def reference_interval_trace(program, index, n):
    total = program.n_intervals * n
    start = index * n
    pieces = [
        reference_generate(kernel, hi - lo, generator(program.seed, "interval", index, seg))
        for seg, (lo, hi, kernel) in enumerate(
            program.schedule.overlapping(total, start, start + n)
        )
    ]
    return concat(pieces)


def _picks(program, n):
    """Interval 0, the last one, and every interval straddling a phase boundary."""
    picks = {0, program.n_intervals - 1}
    for seg_start, _, _ in program.schedule.segments(program.n_intervals * n)[1:]:
        if seg_start % n:
            picks.add(seg_start // n)
    return sorted(picks)


def _assert_same(got, want):
    assert len(got) == len(want)
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("n", SIZES)
def test_batch_filled_in_place_equals_fresh_traces(n):
    ws = Workspace()
    seen = {"blend": 0, "straddle": 0, "cut_short": 0}
    for bench in all_benchmarks():
        program = bench.program
        picks = _picks(program, n)
        batch = ws.batch([n] * len(picks))
        for k, index in enumerate(picks):
            filled = program.interval_trace(index, n, out=batch[k])
            assert np.shares_memory(filled.op, batch.whole.op)
        fresh = [program.interval_trace(index, n) for index in picks]
        _assert_same(batch.whole, concat(fresh))
        for index, trace in zip(picks, fresh):
            _assert_same(trace, reference_interval_trace(program, index, n))
            pieces = program.schedule.overlapping(
                program.n_intervals * n, index * n, (index + 1) * n
            )
            seen["straddle"] += len(pieces) > 1
            for lo, hi, kernel in pieces:
                seen["blend"] += isinstance(kernel, BlendKernel)
                seen["cut_short"] += (
                    isinstance(kernel, Kernel) and (hi - lo) % len(kernel.body) != 0
                )
    assert all(seen.values()), seen


def test_kernel_rejects_a_mismatched_out():
    kernel = all_benchmarks()[0].program.schedule.phases[0].kernel
    with pytest.raises(ValueError):
        kernel.generate(10, generator("out", 1), out=Trace.allocate(9))
    with pytest.raises(ValueError):
        all_benchmarks()[0].program.interval_trace(0, 10, out=Trace.allocate(11))
