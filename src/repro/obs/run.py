"""The scaffold of one recorded run: ``run.start``, observation, ``run.end``.

``repro characterize`` (batch and ``--streaming``) and the service
worker record a run the same way: the observation's log opens with
``run.start`` (command, config document, environment, pid), the work
executes under :func:`~repro.obs.observe`, and the log closes with the
metrics still pending (if any) and ``run.end`` — ``ok`` and the observation's
``wall_s``/``cpu_s``, the live report's root clocks.  An optional
:class:`EventBus` writes the same log as JSONL while it grows.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Optional, TextIO, Union

from .events import EventBus
from .report import _environment
from .spans import Observation
from .spans import observe as _observe

__all__ = ["recorded_run"]


class recorded_run:
    """Record one run: ``with recorded_run(...) as run:``.

    Args:
        run_id: the run's id, on the observation and every event.
        command: the producing command, recorded in ``run.start``.
        config: the :class:`~repro.config.AnalysisConfig`; ``run.start``
            carries its digest and fields.
        events: where the event log is written as JSONL (a path,
            ``-`` for stdout, or a text stream); no log when None.
        observe: observe the run even without an event log (a run
            report or history record needs the observation).
        **fields: further ``run.start`` fields (preset, job, ...).

    The work executes in :meth:`observing`; what follows it in the
    block (writing reports, completing a job) still counts toward
    ``run.end``'s ``ok``: whether the block raised.
    """

    def __init__(
        self,
        run_id: str,
        *,
        command: str,
        config: Any,
        events: Optional[Union[str, Path, TextIO]] = None,
        observe: bool = True,
        **fields: Any,
    ) -> None:
        self.run_id = run_id
        self._bus: Optional[EventBus] = None
        #: The run's observation, once :meth:`observing` has entered.
        self.observation: Optional[Observation] = None
        self._events = events
        self._observe = observe or events is not None
        config_doc = {"digest": config.full_key(), "fields": dataclasses.asdict(config)}
        self._start = {"command": command, **fields, "config": config_doc}

    def __enter__(self) -> "recorded_run":
        return self

    def observing(self):
        """The context the work executes in; yields the run's
        :class:`~repro.obs.Observation` (None when not observed)."""
        if not self._observe:
            return nullcontext()
        if self._events is not None:
            self._bus = EventBus(self._events, self.run_id)
        context = _observe(run_id=self.run_id, emitter=self._bus)
        self.observation = context.observation
        self.observation.emit(
            "run.start", **self._start, environment=_environment(), pid=os.getpid()
        )
        return context

    def __exit__(self, exc_type, exc, tb) -> bool:
        ob = self.observation
        if ob is not None:
            ob.emit_metric_deltas()
            ob.emit("run.end", ok=exc_type is None, wall_s=ob.wall_s, cpu_s=ob.cpu_s)
        if self._bus is not None:
            self._bus.close()
        return False
