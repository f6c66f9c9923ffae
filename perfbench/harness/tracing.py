"""Per-layer tracing for the benchmark's traced run.

The program is not instrumented for this.  :func:`patched` replaces each
layer's public entry point, as the pipeline imports it, with a wrapper
that records a span (call id, parent, layer, thread, start, end, error)
into an in-memory :class:`Tracer`; the spans are written out when the
run ends.  Self time is a span's duration minus that of its direct
children on the same thread.  The producer thread of ``prefetch_iter``
runs trace synthesis and MICA on ``small-stream``; its spans have no
parent, so they never reduce the self time of a main-thread span.

A traced call also runs under an in-memory ``repro.obs`` observation
(no sink, no report) to read counters the program already keeps: the
per-meter ``mica.meter.<name>.seconds``, ``kmeans.point_rows_*``,
``feature_blocks.interval_*`` and the GA fitness-cache hit rate.
Untraced calls leave ``repro.obs`` inert.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro import obs

#: Layer name of the span around one whole traced call; its self time
#: is the call's unattributed time.
ROOT = "call"

LAYERS = (
    "synth",
    "sampling",
    "mica",
    "io.feature_blocks",
    "io.checkpoint",
    "io.artifact",
    "pca",
    "kmeans",
    "prominent",
    "ga",
    "streaming",
    "prefetch",
)

METERS = (
    "instruction_mix", "ilp", "register_traffic", "footprint", "strides", "branch",
)

#: Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER = (
    [
        ("synth.calls", "count", "lower"),
        ("synth.busy_s", "s", "lower"),
        ("synth.instructions", "count", "lower"),
        ("sampling.busy_s", "s", "lower"),
        ("sampling.unique_frac", "ratio", "lower"),
        ("mica.calls", "count", "lower"),
        ("mica.busy_s", "s", "lower"),
        ("mica.intervals", "count", "lower"),
        ("mica.instructions", "count", "lower"),
        ("mica.fused_frac", "ratio", "higher"),
    ]
    + [(f"mica.{meter}_s", "s", "lower") for meter in METERS]
    + [
        ("io.feature_blocks.busy_s", "s", "lower"),
        ("io.feature_blocks.hit_frac", "ratio", "higher"),
        ("io.checkpoint.busy_s", "s", "lower"),
        ("io.checkpoint.writes", "count", "lower"),
        ("io.artifact.busy_s", "s", "lower"),
        ("io.artifact.bytes", "bytes", "lower"),
        ("io.spool.bytes", "bytes", "lower"),
        ("io.spool.featurize_sweeps", "count", "lower"),
        ("io.spool.replay_sweeps", "count", "lower"),
        ("pca.busy_s", "s", "lower"),
        ("kmeans.busy_s", "s", "lower"),
        ("kmeans.iterations", "count", "lower"),
        ("kmeans.rows_computed_frac", "ratio", "lower"),
        ("prominent.busy_s", "s", "lower"),
        ("ga.busy_s", "s", "lower"),
        ("ga.generations", "count", "lower"),
        ("ga.fitness_cache.hit_rate", "ratio", "higher"),
        ("streaming.self_s", "s", "lower"),
        ("streaming.sweeps", "count", "lower"),
        ("streaming.refine_passes", "count", "lower"),
        ("prefetch.wait_s", "s", "lower"),
        ("prefetch.batches", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unattributed_s", "s", "lower"),
    ]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
)


class LayerNotReached(RuntimeError):
    """A layer the workload must exercise recorded no call."""


@dataclass
class Span:
    id: int
    parent: Optional[int]
    call: int
    layer: str
    thread: str
    start: float
    end: float = 0.0
    error: bool = False
    #: Set on the spans of ``BatchSource`` sweeps, to count sweeps once
    #: when a projected sweep reads a raw one.
    sweep: bool = False


class Tracer:
    """Spans and counts recorded by the wrappers :func:`patched` installs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.call = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def begin(self, call: int) -> None:
        """Start attributing spans and counts to traced call ``call``."""
        self.call = call
        self.counts = defaultdict(float)

    def stack(self) -> List[Span]:
        """This thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    @contextmanager
    def span(self, layer: str, *, sweep: bool = False) -> Iterator[Span]:
        stack = self.stack()
        record = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            call=self.call,
            layer=layer,
            thread=threading.current_thread().name,
            start=time.perf_counter(),
            sweep=sweep,
        )
        stack.append(record)
        try:
            yield record
        except BaseException:
            record.error = True
            raise
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def fold(self, call: int, registry) -> Dict[str, float]:
        """Per-layer metrics of one traced call.

        ``registry`` is the call's ``repro.obs`` metrics registry.
        """
        spans = [s for s in self.spans if s.call == call]
        by_id = {s.id: s for s in spans}
        children: Dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                children[s.parent] += s.end - s.start
        self_s: Dict[str, float] = defaultdict(float)
        busy: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        errors: Dict[str, int] = defaultdict(int)
        for s in spans:
            duration = s.end - s.start
            self_s[s.layer] += duration - children[s.id]
            if not _inside_same_layer(s, by_id):
                busy[s.layer] += duration
                calls[s.layer] += 1
                errors[s.layer] += int(s.error)
        counts = self.counts

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        block_hits = registry.counter_value("feature_blocks.interval_hits")
        block_misses = registry.counter_value("feature_blocks.interval_misses")
        rows_total = registry.counter_value("kmeans.point_rows_total")
        if not calls["kmeans"]:
            rows_computed_frac = 0.0
        elif rows_total:
            rows_computed_frac = registry.counter_value("kmeans.point_rows_computed") / rows_total
        else:
            rows_computed_frac = 1.0  # plain Lloyd computes every row
        values = {
            "synth.calls": calls["synth"],
            "synth.busy_s": busy["synth"],
            "synth.instructions": counts["synth.instructions"],
            "sampling.busy_s": busy["sampling"],
            "sampling.unique_frac": ratio(counts["sampling.unique"], counts["sampling.rows"]),
            "mica.calls": calls["mica"],
            "mica.busy_s": busy["mica"],
            "mica.intervals": counts["mica.intervals"],
            "mica.instructions": counts["mica.instructions"],
            "mica.fused_frac": ratio(counts["mica.fused_intervals"], counts["mica.intervals"]),
            "io.feature_blocks.busy_s": busy["io.feature_blocks"],
            "io.feature_blocks.hit_frac": ratio(block_hits, block_hits + block_misses),
            "io.checkpoint.busy_s": busy["io.checkpoint"],
            "io.checkpoint.writes": counts["io.checkpoint.writes"],
            "io.artifact.busy_s": busy["io.artifact"],
            "io.artifact.bytes": counts["io.artifact.bytes"],
            "io.spool.bytes": counts["io.spool.bytes"],
            "io.spool.featurize_sweeps": counts["io.spool.featurize_sweeps"],
            "io.spool.replay_sweeps": counts["io.spool.replay_sweeps"],
            "pca.busy_s": busy["pca"],
            "kmeans.busy_s": busy["kmeans"],
            "kmeans.iterations": registry.counter_value("kmeans.iterations"),
            "kmeans.rows_computed_frac": rows_computed_frac,
            "prominent.busy_s": busy["prominent"],
            "ga.busy_s": busy["ga"],
            "ga.generations": counts["ga.generations"],
            "ga.fitness_cache.hit_rate": registry.gauge_value("ga.fitness_cache.hit_rate", 0.0),
            "streaming.self_s": self_s["streaming"],
            "streaming.sweeps": counts["streaming.sweeps"],
            "streaming.refine_passes": registry.gauge_value("streaming.refine_passes", 0.0),
            "prefetch.wait_s": busy["prefetch"],
            "prefetch.batches": counts["prefetch.batches"],
            "trace.unattributed_s": self_s[ROOT],
        }
        for meter in METERS:
            values[f"mica.{meter}_s"] = registry.counter_value(f"mica.meter.{meter}.seconds")
        for layer in LAYERS:
            values[f"{layer}.errors"] = errors[layer]
            values[f"_calls.{layer}"] = calls[layer]
        return values

    def records(self, origin: float) -> List[dict]:
        """All spans as plain dicts, times in seconds since ``origin``."""
        rows = []
        for s in sorted(self.spans, key=lambda s: s.start):
            row = asdict(s)
            row["start"] = s.start - origin
            row["end"] = s.end - origin
            rows.append(row)
        return rows


def require_layers(values: Dict[str, float], layers: Sequence[str]) -> None:
    """Raise when a layer the workload must exercise recorded no call.

    A refactor that routes the pipeline around a wrapped entry point
    would otherwise read as a layer taking 0 s.
    """
    missing = [layer for layer in layers if not values[f"_calls.{layer}"]]
    if missing:
        raise LayerNotReached(
            "traced call reached no entry point of layer(s) " + ", ".join(missing)
        )


def _inside_same_layer(span: Span, by_id: Dict[int, Span]) -> bool:
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.layer == span.layer:
            return True
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return False


# --- wrappers ---------------------------------------------------------------


def _function(layer: str, before=None, after=None):
    def make(tracer: Tracer, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            state = before() if before is not None else None
            with tracer.span(layer):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, result, state)
            return result

        return traced

    return make


def _iterator(layer: str, *, sweep: bool = False, item_count: Optional[str] = None):
    """Wrap a generator function; each ``next`` is one span."""

    def make(tracer: Tracer, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            try:
                while True:
                    with tracer.span(layer, sweep=sweep):
                        if first and sweep:
                            if not any(s.sweep for s in tracer.stack()[:-1]):
                                tracer.count("streaming.sweeps")
                        first = False
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    if item_count is not None:
                        tracer.count(item_count)
                    yield item
            finally:
                inner.close()

        return traced

    return make


def _fused_batches() -> float:
    # The current thread's registry: executor tasks collect into their
    # own observation until it is merged into the call's.
    return obs.metrics().counter_value("mica.fused_batches")


def _after_synth(tracer, args, trace, state):
    tracer.count("synth.instructions", len(trace))


def _after_sampling(tracer, args, picks, state):
    tracer.count("sampling.rows", len(picks))
    tracer.count("sampling.unique", len(np.unique(picks)))


def _after_mica(tracer, args, matrix, fused_before):
    traces = args[0]
    tracer.count("mica.intervals", len(traces))
    tracer.count("mica.instructions", sum(len(t) for t in traces))
    if _fused_batches() > fused_before:
        tracer.count("mica.fused_intervals", len(traces))


def _after_checkpoint_save(tracer, args, path, state):
    tracer.count("io.checkpoint.writes")


def _after_artifact_save(tracer, args, result, state):
    tracer.count("io.artifact.bytes", os.path.getsize(args[1]))


def _after_select_features(tracer, args, result, state):
    tracer.count("ga.generations", result.generations)


def _after_streaming(tracer, args, result, state):
    tracer.count("io.spool.bytes", result.spool_bytes)
    tracer.count("io.spool.featurize_sweeps", result.featurize_sweeps)
    tracer.count("io.spool.replay_sweeps", result.replay_sweeps)


#: (owner, attribute, wrapper factory).  An owner is a module, or
#: ``module:Class`` for a method.  Functions are wrapped in the module
#: that calls them, so the pipeline's own references are the ones
#: replaced.
_PATCHES = (
    ("repro.synth.program:SyntheticProgram", "interval_trace",
     _function("synth", after=_after_synth)),
    ("repro.core.dataset", "sample_interval_indices",
     _function("sampling", after=_after_sampling)),
    ("repro.streaming.engine", "build_sampling_plan", _function("sampling")),
    ("repro.core.dataset", "characterize_intervals",
     _function("mica", before=_fused_batches, after=_after_mica)),
    ("repro.io.feature_blocks:FeatureBlockCache", "load", _function("io.feature_blocks")),
    ("repro.io.feature_blocks:FeatureBlockCache", "store", _function("io.feature_blocks")),
    ("repro.io.artifacts:StageCheckpoint", "load", _function("io.checkpoint")),
    ("repro.io.artifacts:StageCheckpoint", "save",
     _function("io.checkpoint", after=_after_checkpoint_save)),
    ("repro.core.results", "save_characterization",
     _function("io.artifact", after=_after_artifact_save)),
    ("repro.core.results", "load_characterization", _function("io.artifact")),
    ("repro.streaming.result", "save_streaming_result",
     _function("io.artifact", after=_after_artifact_save)),
    ("repro.streaming.result", "load_streaming_result", _function("io.artifact")),
    ("repro.core.pipeline", "fit_pca", _function("pca")),
    ("repro.core.pipeline", "kmeans", _function("kmeans")),
    ("repro.core.pipeline", "select_prominent_phases", _function("prominent")),
    ("repro.core.pipeline", "DistanceCorrelationFitness", _function("ga")),
    ("repro.core.pipeline", "select_features",
     _function("ga", after=_after_select_features)),
    ("repro.streaming.engine", "run_streaming_characterization",
     _function("streaming", after=_after_streaming)),
    ("repro.streaming.source:BatchSource", "raw_batches", _iterator("streaming", sweep=True)),
    ("repro.streaming.source:BatchSource", "projected_batches",
     _iterator("streaming", sweep=True)),
    ("repro.streaming.source", "prefetch_iter",
     _iterator("prefetch", item_count="prefetch.batches")),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def patched(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper for the ``with`` block.

    A missing entry point raises ``AttributeError``: the benchmark no
    longer matches the program and must say so, not report zeros.
    """
    saved = []
    try:
        for path, attr, make in _PATCHES:
            owner = _owner(path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(tracer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
