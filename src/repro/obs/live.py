"""Following a live event log: ``repro watch``.

The event bus (:mod:`repro.obs.events`) writes one flushed JSON line
per event, so the log on disk is always a valid prefix of the run.
This module follows that prefix:

* :func:`summarize_events` — the run's current state as a view of the
  same fold as the run report (:class:`repro.obs.spans.EventFold`):
  per-stage progress/ETA, the latest heartbeat, which spans are still
  open, stage checkpoints, counter totals.
* :func:`render_live` — one terminal-friendly snapshot of that state
  (what ``repro watch PATH`` prints each refresh).
* :func:`watch` — re-read and render the log until the run ends.

Rebuilding a whole report from the log is
:func:`repro.obs.report.report_from_events`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from .events import read_events
from .proc import pid_alive
from .spans import EventFold

__all__ = [
    "render_live",
    "summarize_events",
    "watch",
]

PathLike = Union[str, Path]


def summarize_events(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The run's current (last-known) state, folded from an event list."""
    fold = EventFold()
    for event in events:
        fold.feed(event)
    start, end = fold.start or {}, fold.end or {}
    pid = start.get("pid")
    return {
        "run_id": fold.run_id,
        "started": start.get("ts"),
        "last_ts": fold.last_ts,
        "ended": end.get("ts"),
        "ok": end.get("ok"),
        "command": start.get("command"),
        "preset": start.get("preset"),
        "pid": pid if isinstance(pid, int) else None,  # the writer's
        "events": fold.events,
        "progress": fold.progress,  # stage -> latest progress fields
        "heartbeat": fold.heartbeat,  # latest heartbeat fields
        "open_spans": [node.name for node in fold.open_spans()],  # outermost first
        "stages": fold.stages,  # stage checkpoint events, in order
        "counters": fold.counters,  # totals the closed spans carried so far
    }


def _bar(fraction: float, width: int = 24) -> str:
    fraction = max(0.0, min(1.0, float(fraction or 0.0)))
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


def _fmt_eta(eta: Optional[float]) -> str:
    if eta is None:
        return "--:--"
    eta = max(0.0, float(eta))
    return f"{int(eta // 60):02d}:{int(eta % 60):02d}"


def render_live(state: Dict[str, Any], *, truncated: bool = False) -> str:
    """One snapshot of a run's live state, as ``repro watch`` prints it."""
    if state["ended"] is not None:
        status = "finished ok" if state.get("ok") else "finished with errors"
    elif state["started"] is not None:
        status = "running"
    else:
        status = "no events yet"
    lines = [
        f"run {state.get('run_id') or '?'}  "
        f"[{state.get('command') or '?'}"
        + (f", preset {state['preset']}" if state.get("preset") else "")
        + f"]  {status}  ({state['events']} events)"
    ]
    if truncated:
        lines.append("note: log ends mid-line (writer was killed?)")
    for stage, prog in state["progress"].items():
        fraction = prog.get("fraction") or 0.0
        lines.append(
            f"  {stage:<18} [{_bar(fraction)}] "
            f"{prog.get('done', 0)}/{prog.get('total', 0)} "
            f"({100 * fraction:5.1f}%)  eta {_fmt_eta(prog.get('eta_s'))}"
        )
    beat = state.get("heartbeat")
    if beat is not None:
        lines.append(
            f"  last heartbeat: {beat.get('label')} "
            f"({beat.get('completed')}/{beat.get('total')} tasks)"
        )
    if state["open_spans"] and state["ended"] is None:
        lines.append("  open spans: " + " > ".join(state["open_spans"]))
    if state["stages"]:
        done = ", ".join(
            f"{s['stage']}({s['action']})" for s in state["stages"][-6:]
        )
        lines.append(f"  stages: {done}")
    return "\n".join(lines) + "\n"


def watch(
    path: PathLike,
    *,
    once: bool = False,
    interval: float = 1.0,
    echo: Callable[[str], Any] = print,
    sleep=time.sleep,
) -> int:
    """Follow an event log, printing a snapshot per refresh.

    Returns once the log carries ``run.end`` (exit 0) or immediately
    after one snapshot with ``once=True``.  A log that has not grown
    for 10 refresh intervals only ends the watch (exit 1: writer
    presumed dead) when the writer is *provably* gone — its ``run.start``
    recorded no pid, or that pid no longer exists.  A quiet log whose
    writer pid is still alive is a slow stage (a long k-means pass, a
    starved worker), not a dead run, and the watch keeps following —
    this used to give up at 10 quiet polls unconditionally and abandon
    live runs mid-flight.
    """
    stale = 0
    last_count = -1
    while True:
        events, truncated = read_events(path)
        state = summarize_events(events)
        echo(render_live(state, truncated=truncated).rstrip("\n"))
        if once or state["ended"] is not None:
            return 0
        if len(events) == last_count:
            stale += 1
            if stale >= 10:
                pid = state.get("pid")
                if pid is not None and pid_alive(pid):
                    echo(
                        f"no new events for {stale * interval:.0f}s; "
                        f"writer pid {pid} still alive, waiting"
                    )
                    stale = 0
                else:
                    reason = (
                        f"writer pid {pid} is gone"
                        if pid is not None
                        else "no writer pid recorded"
                    )
                    echo(
                        f"no new events for {stale * interval:.0f}s "
                        f"and {reason}; giving up"
                    )
                    return 1
        else:
            stale = 0
        last_count = len(events)
        sleep(interval)
