"""BENCH-line emission.

The benchmark harness has always printed one ``BENCH {json}`` line per
experiment so results are machine-collectable from CI logs.
:func:`emit_bench` keeps that contract.

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
from typing import Any, Callable, Dict, Optional

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
      benchmark harness's per-experiment report writer, which creates
      its output directory) — every gated bench therefore leaves one
      repo-discoverable ``BENCH_*.json`` with a predictable name,
      which is what CI gates and the perf trajectory collect.

    The payload is returned unchanged with ``bench`` filled in, so
    callers can build it without repeating the name.
    """
    payload = {"bench": name, **payload}
    if report is not None:
        text = json.dumps(payload, indent=2)
        for filename in (f"{name}.json", f"BENCH_{name}.json"):
            report(filename, text)
    echo("BENCH " + json.dumps(payload))
    return payload
