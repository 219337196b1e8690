"""Lightweight phase timers for the ETA² closed loop.

One :class:`PhaseTimer` instance lives for one warm-up or daily step and
accumulates wall-clock seconds per named phase (``identify``, ``allocate``,
``collect``, ``truth``).  The timer is pure bookkeeping — a few
``perf_counter`` calls per step — so it stays on in production; the recorded
dict ends up on :class:`~repro.core.pipeline.StepResult` and, through the
simulation engine, on every :class:`~repro.simulation.engine.DayRecord`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable

__all__ = ["PHASES", "PhaseTimer", "merge_timings"]

#: The canonical step phases, in pipeline order.
PHASES = ("identify", "allocate", "collect", "truth")


class PhaseTimer:
    """Accumulates wall-clock self-time per named phase.

    A phase may be entered several times (e.g. ``collect`` once per min-cost
    recruiting round); durations add up.  Phases may nest: an inner phase's
    time is credited to the inner phase alone and subtracted from the phase
    enclosing it, so min-cost's ``allocate`` span, which runs ``collect``
    and ``truth`` callbacks inside it, keeps only its own time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, tracer=None):
        self._clock = clock
        self._seconds: dict = {}
        # One entry per open phase: seconds spent in the phases it encloses.
        self._nested: list = []
        # A RunTracer (repro.observability) turns each phase block into a
        # phase.start/phase.end span; None keeps the timer telemetry-free.
        self.tracer = tracer

    @contextmanager
    def phase(self, name: str):
        """Time the enclosed block under ``name`` (exception-safe).

        With a tracer attached, the block is also recorded as a
        ``phase.start``/``phase.end`` span; wall-clock seconds are added
        to the end event only when the tracer opts into wall time
        (``include_wall_time``), keeping traces replay-deterministic.
        Those seconds are inclusive of nested phases: trace profiles
        subtract children themselves.
        """
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        if traced:
            tracer.emit("phase.start", phase=name)
        extra = {}
        start = self._clock()
        self._nested.append(0.0)
        try:
            yield
        except BaseException as error:
            extra["error"] = type(error).__name__
            raise
        finally:
            elapsed = self._clock() - start
            self.add(name, elapsed - self._nested.pop())
            if self._nested:
                self._nested[-1] += elapsed
            if traced:
                if getattr(tracer, "include_wall_time", False):
                    extra["wall_seconds"] = max(0.0, float(elapsed))
                tracer.emit("phase.end", phase=name, **extra)

    def wrap(self, name: str, func: Callable) -> Callable:
        """Return ``func`` with every call timed under ``name``."""

        def timed(*args, **kwargs):
            with self.phase(name):
                return func(*args, **kwargs)

        return timed

    def add(self, name: str, seconds: float) -> None:
        """Credit ``seconds`` to ``name`` directly."""
        self._seconds[name] = self._seconds.get(name, 0.0) + max(0.0, float(seconds))

    def get(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    @property
    def total(self) -> float:
        return float(sum(self._seconds.values()))

    def timings(self) -> dict:
        """Snapshot ``{phase: self-seconds}`` (canonical phases always present)."""
        out = {name: 0.0 for name in PHASES}
        out.update(self._seconds)
        return out


def merge_timings(totals: dict, step_timings: "dict | None") -> dict:
    """Fold one step's timings into a running total (in place; returned)."""
    if step_timings:
        for name, seconds in step_timings.items():
            totals[name] = totals.get(name, 0.0) + float(seconds)
    return totals
