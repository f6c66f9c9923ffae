"""A small trace-driven timing model.

The model combines:

* a base issue component — dataflow-limited IPC within a finite
  instruction window, clipped by the machine width (computed by the
  same block scheduler as the MICA ILP meter, but this time it is one
  *particular* machine, not an idealized characterization);
* simulated L1/L2 data-cache misses with per-level penalties;
* simulated L1 instruction-cache misses;
* a concrete dynamic branch predictor with a squash penalty.

It is deliberately a first-order model — the point of the substrate is
to provide microarchitecture-*dependent* numbers (CPI, miss rates) that
respond to the same program properties MICA measures, so phase-level
simulation methodology can be validated end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..isa import OpClass, Trace, is_memory_op
from ..mica import match_producers
from .branch_predictor import BimodalPredictor, GSharePredictor
from .cache import CacheConfig, CacheHierarchy, Cache


@dataclass(frozen=True)
class MachineConfig:
    """One machine point: width, window, caches, predictor, penalties.

    The default hierarchy is scaled down to match the library's scaled
    interval sizes (the same argument as the 100M -> 10k interval
    substitution in DESIGN.md): a few thousand memory accesses can warm
    and exercise a 16KB/256KB hierarchy the way 100M instructions
    exercise 32KB/1MB.  ``warmup=True`` runs each interval once to warm
    the structures before measuring, the standard protocol for
    phase-level sampled simulation.
    """

    name: str = "baseline"
    width: int = 4
    window: int = 64
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(16 * 1024, 64, 4))
    l2: Optional[CacheConfig] = field(
        default_factory=lambda: CacheConfig(256 * 1024, 64, 8)
    )
    l1i: Optional[CacheConfig] = field(
        default_factory=lambda: CacheConfig(16 * 1024, 64, 4)
    )
    predictor: str = "gshare"  # "gshare" | "bimodal"
    l1_penalty: int = 10
    l2_penalty: int = 100
    branch_penalty: int = 12
    ilp_sample_instructions: int = 2_000
    warmup: bool = True

    def __post_init__(self) -> None:
        if self.width < 1 or self.window < 1:
            raise ValueError("width and window must be >= 1")
        if self.predictor not in ("gshare", "bimodal"):
            raise ValueError(f"unknown predictor {self.predictor!r}")


@dataclass(frozen=True)
class SimResult:
    """Outcome of simulating one trace interval."""

    instructions: int
    cycles: float
    l1d_miss_rate: float
    l2_miss_rate: float
    l1i_miss_rate: float
    bp_miss_rate: float

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles


def _base_cycles(trace: Trace, config: MachineConfig) -> float:
    """Dataflow/width-limited cycles, measured on a leading subsample."""
    n = len(trace)
    sample = (
        trace
        if n <= config.ilp_sample_instructions
        else trace.slice(0, config.ilp_sample_instructions)
    )
    p1_arr, p2_arr = match_producers(sample)
    p1, p2 = p1_arr.tolist(), p2_arr.tolist()
    m = len(sample)
    w = config.window
    total_cycles = 0.0
    start = 0
    while start < m:
        stop = min(start + w, m)
        depth = [1] * (stop - start)
        block_max = 1
        for i in range(start, stop):
            d = 1
            a = p1[i]
            if a >= start:
                da = depth[a - start] + 1
                if da > d:
                    d = da
            b = p2[i]
            if b >= start:
                db = depth[b - start] + 1
                if db > d:
                    d = db
            depth[i - start] = d
            if d > block_max:
                block_max = d
        # The block drains in max(critical path, size/width) cycles.
        total_cycles += max(block_max, (stop - start) / config.width)
        start = stop
    return total_cycles * (n / m)


def simulate(trace: Trace, config: MachineConfig) -> SimResult:
    """Simulate one interval on the given machine (cold structures)."""
    n = len(trace)
    if n == 0:
        raise ValueError("cannot simulate an empty trace")

    data = CacheHierarchy(config.l1d, config.l2)
    mem_mask = is_memory_op(trace.op)
    data_addresses = trace.addr[mem_mask]
    if config.warmup:
        data.access_many(data_addresses)
        data.l1.reset_stats()
        if data.l2 is not None:
            data.l2.reset_stats()
    l1_misses, l2_misses = data.access_many(data_addresses)
    n_mem = int(mem_mask.sum())

    l1i_misses = 0
    n_fetch_blocks = 0
    if config.l1i is not None:
        icache = Cache(config.l1i)
        # One lookup per fetch line transition keeps the model cheap and
        # is how real front ends behave for straight-line fetch.
        lines = trace.pc >> 6
        changed = np.ones(n, dtype=bool)
        changed[1:] = lines[1:] != lines[:-1]
        fetch_pcs = trace.pc[changed]
        if config.warmup:
            icache.access_many(fetch_pcs)
            icache.reset_stats()
        l1i_misses = icache.access_many(fetch_pcs)
        n_fetch_blocks = int(changed.sum())

    branch_mask = trace.op == OpClass.BRANCH
    pcs = trace.pc[branch_mask]
    outcomes = trace.taken[branch_mask]
    if config.predictor == "gshare":
        predictor = GSharePredictor()
    else:
        predictor = BimodalPredictor()
    bp_misses = 0
    if len(pcs):
        if config.warmup:
            predictor.predict_many(pcs, outcomes)
            predictor.predictions = 0
            predictor.misses = 0
        bp_misses = predictor.predict_many(pcs, outcomes)

    cycles = (
        _base_cycles(trace, config)
        + l1_misses * config.l1_penalty
        + l2_misses * config.l2_penalty
        + l1i_misses * config.l1_penalty
        + bp_misses * config.branch_penalty
    )
    return SimResult(
        instructions=n,
        cycles=float(cycles),
        l1d_miss_rate=l1_misses / n_mem if n_mem else 0.0,
        l2_miss_rate=l2_misses / l1_misses if l1_misses else 0.0,
        l1i_miss_rate=l1i_misses / n_fetch_blocks if n_fetch_blocks else 0.0,
        bp_miss_rate=bp_misses / len(pcs) if len(pcs) else 0.0,
    )
