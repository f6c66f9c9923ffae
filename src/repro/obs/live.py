"""Following a live event log: ``repro watch`` and report reconstruction.

The event bus (:mod:`repro.obs.events`) writes one flushed JSON line
per event, so the log on disk is always a valid prefix of the run.
This module consumes that prefix three ways:

* :func:`summarize_events` — fold a list of events into the run's
  current state: per-stage progress/ETA, the latest heartbeat, which
  spans are still open, counter totals.
* :func:`render_live` — one terminal-friendly snapshot of that state
  (what ``repro watch PATH`` prints each refresh).
* :func:`report_from_events` — reconstruct a schema-valid (possibly
  partial) run report from whatever made it to disk, for ``repro
  report --from-events PATH`` after a crash: closed spans carry their
  recorded durations, spans left open by the kill are rebuilt with
  wall time estimated from event timestamps and flagged
  ``partial: true``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from .events import read_events
from .report import SCHEMA_VERSION
from .spans import Span

__all__ = [
    "report_from_events",
    "render_live",
    "summarize_events",
    "watch",
]

PathLike = Union[str, Path]


def summarize_events(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold an event list into the run's current (last-known) state."""
    state: Dict[str, Any] = {
        "run_id": None,
        "started": None,
        "last_ts": None,
        "ended": None,
        "ok": None,
        "command": None,
        "preset": None,
        "pid": None,  # writer pid from run.start, when recorded
        "events": len(events),
        "progress": {},  # stage -> latest progress fields
        "heartbeat": None,  # latest heartbeat fields
        "open_spans": [],  # names, outermost first
        "stages": [],  # stage checkpoint events, in order
        "counters": {},  # accumulated metric deltas
    }
    open_spans: List[str] = []
    for event in events:
        etype = event.get("type")
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            state["last_ts"] = ts
        if state["run_id"] is None and event.get("run_id"):
            state["run_id"] = event["run_id"]
        if etype == "run.start":
            state["started"] = ts
            state["command"] = event.get("command")
            state["preset"] = event.get("preset")
            if isinstance(event.get("pid"), int):
                state["pid"] = event["pid"]
        elif etype == "run.end":
            state["ended"] = ts
            state["ok"] = event.get("ok")
        elif etype == "span.open":
            open_spans.append(str(event.get("span", "?")))
        elif etype == "span.close":
            name = str(event.get("span", "?"))
            if name in open_spans:
                # Close the innermost matching open span; worker event
                # replay can interleave depths, so match by name.
                for i in range(len(open_spans) - 1, -1, -1):
                    if open_spans[i] == name:
                        del open_spans[i]
                        break
        elif etype == "progress":
            stage = str(event.get("stage", "?"))
            state["progress"][stage] = {
                k: event.get(k) for k in ("done", "total", "fraction", "elapsed_s", "eta_s")
            }
        elif etype == "heartbeat":
            state["heartbeat"] = {
                k: event.get(k) for k in ("label", "completed", "total", "ts")
            }
        elif etype == "stage":
            state["stages"].append(
                {"stage": event.get("stage"), "action": event.get("action")}
            )
        elif etype == "metric":
            for name, delta in (event.get("counters") or {}).items():
                if isinstance(delta, (int, float)):
                    state["counters"][name] = state["counters"].get(name, 0.0) + delta
    state["open_spans"] = open_spans
    return state


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
        lines.append(f"  stage checkpoints: {done}")
    return "\n".join(lines) + "\n"


def _writer_alive(pid: int) -> bool:
    """Whether the event-log writer's pid still exists on this host."""
    import os

    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, ValueError, TypeError):
        return False
    except PermissionError:  # pragma: no cover - pid owned by another user
        return True
    except OSError:  # pragma: no cover - conservative default
        return True
    return True


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
                if pid is not None and _writer_alive(pid):
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


# --- report reconstruction -------------------------------------------------


def report_from_events(
    events: List[Dict[str, Any]], *, truncated: bool = False
) -> Dict[str, Any]:
    """Rebuild a (possibly partial) run report from an event log.

    Closed spans get their recorded wall/CPU durations and final attrs.
    Spans still open when the log ends — the residue of a SIGKILL —
    are kept with wall time estimated from the span-open timestamp to
    the last event seen, and flagged ``partial: true``; the report
    itself carries ``partial: true`` whenever the log lacks
    ``run.end``.  The result passes
    :func:`repro.obs.report.validate_report`.
    """
    run_id = None
    created = None
    last_ts = None
    command = "characterize"
    config: Dict[str, Any] = {"digest": None, "fields": {}}
    environment: Dict[str, Any] = {
        "python": None,
        "numpy": None,
        "platform": None,
        "git_sha": None,
    }
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    root = Span("run")
    # One stack per thread: the observing thread's (key None) starts at
    # the root; another thread's starts at the span the observing
    # thread has open when that thread's first span opens — where the
    # span layer hangs it — so interleaved threads never nest into each
    # other.
    stacks: Dict[Optional[str], List[Span]] = {None: [root]}
    open_ts: Dict[Optional[str], List[Optional[float]]] = {None: [None]}
    ended = False

    for event in events:
        etype = event.get("type")
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            last_ts = ts
            if created is None:
                created = ts
        if run_id is None and event.get("run_id"):
            run_id = event["run_id"]
        if etype == "run.start":
            command = event.get("command") or command
            if isinstance(event.get("config"), dict):
                config.update(event["config"])
            if isinstance(event.get("environment"), dict):
                environment.update(event["environment"])
        elif etype == "run.end":
            ended = True
        elif etype == "span.open":
            thread = event.get("thread")
            if thread not in stacks:
                stacks[thread] = [stacks[None][-1]]
                open_ts[thread] = [None]
            stack = stacks[thread]
            node = Span(str(event.get("span", "?")), dict(event.get("attrs") or {}))
            stack[-1].children.append(node)
            stack.append(node)
            open_ts[thread].append(ts if isinstance(ts, (int, float)) else None)
        elif etype == "span.close":
            thread = event.get("thread")
            stack = stacks.get(thread, [])
            name = str(event.get("span", "?"))
            # Close the thread's innermost open span with this name;
            # replayed worker events close in LIFO order within their
            # buffer, so scanning from the top of the stack is exact.
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].name == name:
                    node = stack[i]
                    node.wall_s = float(event.get("wall_s", 0.0) or 0.0)
                    node.cpu_s = float(event.get("cpu_s", 0.0) or 0.0)
                    attrs = event.get("attrs")
                    if isinstance(attrs, dict):
                        node.attrs.update(attrs)
                    del stack[i]
                    del open_ts[thread][i]
                    break
        elif etype == "metric":
            for cname, delta in (event.get("counters") or {}).items():
                if isinstance(delta, (int, float)):
                    counters[cname] = counters.get(cname, 0.0) + delta
            for gname, value in (event.get("gauges") or {}).items():
                if isinstance(value, (int, float)):
                    gauges[gname] = float(value)

    # Spans the kill left open: estimate wall from open-ts to the last
    # event and mark them partial, so the rendered tree says which
    # stage died rather than pretending it took zero time.
    left_open = False
    for thread, stack in stacks.items():
        for node, opened in zip(stack[1:], open_ts[thread][1:]):
            left_open = True
            node.attrs.setdefault("partial", True)
            if node.wall_s == 0.0 and opened is not None and last_ts is not None:
                node.wall_s = max(0.0, float(last_ts) - float(opened))
    if created is not None and last_ts is not None:
        root.wall_s = max(0.0, float(last_ts) - float(created))
    partial = truncated or not ended or left_open
    report = {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id or "unknown",
        "created": created if created is not None else time.time(),
        "command": command,
        "config": config,
        "environment": environment,
        "spans": root.to_dict(),
        "metrics": {"counters": counters, "gauges": gauges, "histograms": {}},
    }
    if partial:
        report["partial"] = True
    return report
