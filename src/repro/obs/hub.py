"""The instrumentation hub: one process-global switch for every sink.

A :class:`Hub` holds a run's four optional sinks: the span
:class:`~repro.obs.trace.Tracer` (``--trace``/``--profile``/
``--html-report``), the JSONL :class:`~repro.obs.events.EventLog`
(``--events``), the :class:`~repro.obs.live.TelemetryBus`
(``--live``/``--metrics-port``/``--metrics-out``) and per-phase
tracemalloc peaks (``--mem-profile``).  One hub is installed per
process at a time; the default one has every sink off, and
:func:`installed` swaps another in for a ``with`` block.

Instrumentation sites call :func:`trace_span`/:func:`trace_instant`,
:func:`emit_event` and :func:`bus_event` unconditionally.  With the
sink off each is one module-global read, one attribute read and a
``None`` check (``benchmarks/bench_trace_overhead.py`` and
``benchmarks/smoke_live_telemetry.py`` hold that under 3%).
:meth:`Hub.phase` brackets a pipeline phase with one ``perf_counter``
pair that feeds its span, its ``phase.start``/``phase.end`` events and
its wall time alike.  Sinks do not cross process boundaries: a pool
worker installs the hub its parent's :meth:`Hub.wiring` describes.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.obs.events import EventLog
from repro.obs.live import TelemetryBus
from repro.obs.trace import _NOOP, Tracer

__all__ = [
    "Hub",
    "HubWiring",
    "Phase",
    "bus_event",
    "current_hub",
    "emit_event",
    "install",
    "installed",
    "trace_instant",
    "trace_span",
]


@dataclass(frozen=True)
class HubWiring:
    """A picklable description of a parent's hub for its pool workers.

    A worker records spans under a tracer pinned to ``trace_epoch``,
    one per chunk, shipped back as a trace lane; with ``telemetry`` set
    it reports per-unit deltas through the run journal, since the bus
    stays in the parent.
    """

    trace_epoch: Optional[float] = None
    events_path: Optional[str] = None
    events_epoch: Optional[float] = None
    telemetry: bool = False
    mem_profile: bool = False

    def worker_hub(self) -> "Hub":
        """The worker's hub: the parent's event log reopened for
        appending on the parent's epoch, no tracer and no bus."""
        events = (
            EventLog(self.events_path, epoch=self.events_epoch, append=True)
            if self.events_path is not None
            else None
        )
        return Hub(events=events, mem_profile=self.mem_profile)


@dataclass(frozen=True, slots=True)
class Hub:
    """The sinks one run reports to (``None``/``False``: that sink is off)."""

    run_id: Optional[str] = None
    tracer: Optional[Tracer] = None
    events: Optional[EventLog] = None
    bus: Optional[TelemetryBus] = None
    mem_profile: bool = False

    def phase(self, name: str, unit: str) -> "Phase":
        """Bracket one pipeline phase of ``unit`` (see :class:`Phase`)."""
        return Phase(self, name, unit)

    def wiring(self) -> HubWiring:
        """What a pool worker needs to build its own hub from this one."""
        tracer, events = self.tracer, self.events
        return HubWiring(
            trace_epoch=tracer.epoch if tracer is not None else None,
            events_path=events.path if events is not None else None,
            events_epoch=events.epoch if events is not None else None,
            telemetry=self.bus is not None,
            mem_profile=self.mem_profile,
        )


class Phase:
    """One pipeline phase: a context manager that yields itself.

    ``set(**attrs)`` annotates the ``phase.<name>`` span.  After exit,
    ``seconds`` is the phase's wall time -- the reading the span and
    the ``phase.end`` event carry -- and ``mem_peak`` its tracemalloc
    peak in bytes under ``--mem-profile`` (``None`` otherwise).
    """

    __slots__ = ("_hub", "_name", "_unit", "_span", "_start", "seconds",
                 "mem_peak")

    def __init__(self, hub: Hub, name: str, unit: str) -> None:
        self._hub = hub
        self._name = name
        self._unit = unit

    def __enter__(self) -> "Phase":
        hub = self._hub
        if hub.mem_profile:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            tracemalloc.reset_peak()
        self._start = now = time.perf_counter()
        self._span = (
            hub.tracer.open(f"phase.{self._name}", now, {})
            if hub.tracer is not None
            else _NOOP
        )
        if hub.events is not None:
            hub.events.emit_at(
                now, "phase.start", phase=self._name, unit=self._unit
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        self.seconds = end - self._start
        hub = self._hub
        if hub.events is not None:
            hub.events.emit_at(
                end,
                "phase.end",
                phase=self._name,
                unit=self._unit,
                duration_ms=round(self.seconds * 1000.0, 3),
            )
        self._span.close(exc_type, end)
        self.mem_peak = (
            tracemalloc.get_traced_memory()[1] if hub.mem_profile else None
        )
        return False

    def set(self, **attrs: Any) -> None:
        self._span.set(**attrs)


# ---------------------------------------------------------------------------
# The process-global hub
# ---------------------------------------------------------------------------

_HUB = Hub()


def current_hub() -> Hub:
    return _HUB


def install(hub: Hub) -> Hub:
    """Install ``hub`` for the rest of the process; returns the previous one.

    For a process-lifetime install (a worker's start-up); scoped
    code uses :func:`installed`.
    """
    global _HUB
    previous = _HUB
    _HUB = hub
    return previous


@contextmanager
def installed(hub: Hub) -> Iterator[Hub]:
    """Install ``hub`` for a ``with`` block, then restore the previous hub."""
    previous = install(hub)
    try:
        yield hub
    finally:
        install(previous)


def trace_span(name: str, **attrs: Any):
    """Open a span under the hub's tracer (a shared no-op when off)."""
    tracer = _HUB.tracer
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)


def trace_instant(name: str, **attrs: Any) -> None:
    """Record a point event under the hub's tracer (no-op when off)."""
    tracer = _HUB.tracer
    if tracer is not None:
        tracer.instant(name, **attrs)


def emit_event(kind: str, **fields: Any) -> None:
    """Write one record to the hub's event log (no-op when off)."""
    log = _HUB.events
    if log is not None:
        log.emit(kind, **fields)


def bus_event(kind: str, **fields: Any) -> None:
    """Feed the hub's telemetry bus (no-op when off)."""
    bus = _HUB.bus
    if bus is not None:
        bus.handle(kind, **fields)
