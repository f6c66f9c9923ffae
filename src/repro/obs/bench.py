"""BENCH-line emission through the metrics registry.

The benchmark harness has always printed one ``BENCH {json}`` line per
experiment so results are machine-collectable from CI logs.
:func:`emit_bench` keeps that contract and additionally folds the
payload's numeric fields into the active observation's registry as
``bench.<name>.<key>`` gauges — so a run report written around a bench
run carries the same numbers the BENCH line published, and a bench that
runs inside ``--run-report`` needs no side channel.

Every bench that passes a ``report`` writer also gets a second copy of
its payload as ``BENCH_<name>.json``: the stable, repo-discoverable
artifact name CI gates ``cat``/check and the perf trajectory collects
(``benchmarks/output/BENCH_*.json``), uniform across all benches
instead of each gated bench inventing its own.  The perf ledger
(``benchmarks/bench_layers.py``) is one such payload, gated against
its committed copy at the repo root; the run-history store holds run
reports only.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Optional

from .spans import metrics

__all__ = ["emit_bench"]


def emit_bench(
    name: str,
    payload: Dict[str, Any],
    *,
    report: Optional[Callable[[str, str], Any]] = None,
    echo: Callable[[str], Any] = print,
) -> Dict[str, Any]:
    """Publish one benchmark result everywhere it is consumed.

    * prints the ``BENCH {json}`` line (via ``echo``);
    * writes ``<name>.json`` *and* the stable gate/collector artifact
      ``BENCH_<name>.json`` through ``report`` when given (the
      benchmark harness's per-experiment report writer) — every gated
      bench therefore leaves one repo-discoverable ``BENCH_*.json``
      with a predictable name, which is what CI gates and the perf
      trajectory collect;
    * records every numeric payload field as a ``bench.<name>.<key>``
      gauge in the active metrics registry (no-op when none is active).

    The payload is returned unchanged with ``bench`` filled in, so
    callers can build it without repeating the name.
    """
    payload = {"bench": name, **payload}
    reg = metrics()
    for key, value in payload.items():
        if isinstance(value, bool):
            reg.gauge_set(f"bench.{name}.{key}", float(value))
        elif isinstance(value, (int, float)):
            reg.gauge_set(f"bench.{name}.{key}", value)
    if report is not None:
        text = json.dumps(payload, indent=2)
        for filename in (f"{name}.json", f"BENCH_{name}.json"):
            try:
                report(filename, text)
            except FileNotFoundError as exc:
                # Output directories are wiped freely between bench
                # runs; recreate the missing one rather than losing
                # the result.
                parent = os.path.dirname(exc.filename or "")
                if not parent:
                    raise
                os.makedirs(parent, exist_ok=True)
                report(filename, text)
    echo("BENCH " + json.dumps(payload))
    return payload
