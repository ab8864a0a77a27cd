"""Deterministic fault injection for robustness tests.

Saturn-style checkers prove their isolation story by *injecting* failures
rather than waiting for them.  Each pipeline phase calls
:func:`fire` at a named injection point; tests arm points with
:func:`inject` (or the :func:`injected` context manager) to deterministically
exercise the degradation and fault-isolation paths:

* ``raise`` -- throw :class:`InjectedFault` (models an internal crash);
* ``delay`` -- sleep, so wall-clock budgets trip on cue;
* ``corrupt-budget`` -- poison the active :class:`~repro.util.budget.BudgetMeter`
  so its next checkpoint raises ``BudgetExceeded``;
* ``kill`` -- SIGKILL the *current process* (models a segfault or the
  OOM killer taking out a pool worker; in serial mode this kills the
  parent itself, which is exactly what the journal-resume tests need);
* ``hang`` -- sleep ``delay_seconds`` if set, otherwise effectively
  forever (models a worker stuck between budget checkpoints; only the
  supervisor's hard-timeout SIGKILL can end it).

Injection points used by the pipeline: ``frontend``, ``call-graph``,
``context-cloning``, ``correlation``, ``post-processing`` (see
:func:`repro.tool.regionwiz.run_regionwiz`) and ``batch-unit`` (see
:func:`repro.tool.batch.run_batch`).  A spec may be scoped to one batch
unit (``unit=``) and to a firing count (``times=``), which is what lets a
test poison exactly one executable of a package sweep.

The registry is process-global and therefore test-only by design; always
pair :func:`inject` with :func:`clear` (the :func:`injected` context
manager does both).

**Worker processes.**  The parallel batch executor
(:func:`repro.tool.batch.run_batch` with ``jobs > 1``) ships a
:func:`snapshot` of the armed specs with every dispatched unit and
:func:`install`\\ s it inside the worker before analysis, so injection
works identically whether a unit runs in-process or in a pool worker.
Because each dispatch carries its own copy, a ``times=`` count without a
``unit=`` filter is scoped *per dispatch* in parallel mode (it may fire
once in every worker) rather than globally; pair ``times=`` with
``unit=`` -- the documented way to poison one executable of a sweep --
and the behaviour is exactly the serial one.

``kill`` and ``hang`` are the exception to per-dispatch scoping: the
worker that fires one never reports back, so its local ``times``
decrement is lost with the process.  The supervisor closes the loop
through :func:`set_fire_hook` -- workers journal each destructive
firing *before* it executes, and the parent decrements its master
snapshot from the journal, so a ``times=1`` kill fires exactly once
per sweep and the retried unit runs fault-free.
"""

from __future__ import annotations

import os
import signal as _signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.obs.hub import trace_instant
from repro.util.budget import BudgetMeter

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "inject",
    "clear",
    "active",
    "injected",
    "fire",
    "snapshot",
    "install",
    "set_fire_hook",
]

_ACTIONS = ("raise", "delay", "corrupt-budget", "kill", "hang")

#: How long a ``hang`` with no explicit ``delay_seconds`` sleeps: long
#: enough that only an external SIGKILL plausibly ends it.
_HANG_SECONDS = 3600.0


class InjectedFault(RuntimeError):
    """The failure thrown by a ``raise`` fault (an 'internal' crash)."""


@dataclass
class FaultSpec:
    """One armed fault."""

    point: str
    action: str = "raise"
    #: Only fire for this unit name (None: any unit).
    unit: Optional[str] = None
    #: Fire at most this many times, then disarm (None: every time).
    times: Optional[int] = None
    delay_seconds: float = 0.0
    message: str = ""


_ACTIVE: Dict[str, List[FaultSpec]] = {}

#: Called with ``(spec, unit)`` just before a selected fault's action
#: executes.  The batch supervisor installs a hook inside pool workers
#: that journals ``kill``/``hang`` firings: those actions destroy the
#: worker, so the journal line is the only record the parent ever gets
#: that the armed count was consumed.
_FIRE_HOOK: Optional[Callable[[FaultSpec, Optional[str]], None]] = None


def set_fire_hook(
    hook: Optional[Callable[[FaultSpec, Optional[str]], None]],
) -> Optional[Callable[[FaultSpec, Optional[str]], None]]:
    """Install ``hook`` (or ``None`` to clear); returns the previous one."""
    global _FIRE_HOOK
    previous = _FIRE_HOOK
    _FIRE_HOOK = hook
    return previous


def inject(
    point: str,
    action: str = "raise",
    unit: Optional[str] = None,
    times: Optional[int] = None,
    delay_seconds: float = 0.0,
    message: str = "",
) -> FaultSpec:
    """Arm a fault at ``point``; returns the (mutable) spec."""
    if action not in _ACTIONS:
        raise ValueError(f"unknown fault action {action!r}; one of {_ACTIONS}")
    spec = FaultSpec(
        point=point,
        action=action,
        unit=unit,
        times=times,
        delay_seconds=delay_seconds,
        message=message,
    )
    _ACTIVE.setdefault(point, []).append(spec)
    return spec


def clear(point: Optional[str] = None) -> None:
    """Disarm every fault at ``point`` (or everywhere)."""
    if point is None:
        _ACTIVE.clear()
    else:
        _ACTIVE.pop(point, None)


def active() -> List[FaultSpec]:
    """Every currently armed spec (for assertions and diagnostics)."""
    return [spec for specs in _ACTIVE.values() for spec in specs]


def snapshot() -> List[FaultSpec]:
    """A picklable copy of every armed spec (current ``times`` included).

    The parallel batch executor sends this with each dispatched unit so
    pool workers see the same armed faults as an in-process run.
    """
    return [replace(spec) for specs in _ACTIVE.values() for spec in specs]


def install(specs: Iterable[FaultSpec]) -> None:
    """Replace the registry with copies of ``specs`` (worker-side setup)."""
    _ACTIVE.clear()
    for spec in specs:
        _ACTIVE.setdefault(spec.point, []).append(replace(spec))


@contextmanager
def injected(
    point: str,
    action: str = "raise",
    **kwargs,
) -> Iterator[FaultSpec]:
    """Arm a fault for the duration of a ``with`` block."""
    spec = inject(point, action, **kwargs)
    try:
        yield spec
    finally:
        specs = _ACTIVE.get(point)
        if specs is not None and spec in specs:
            specs.remove(spec)
            if not specs:
                del _ACTIVE[point]


def fire(
    point: str,
    unit: Optional[str] = None,
    meter: Optional[BudgetMeter] = None,
) -> None:
    """Trigger any faults armed at ``point`` for ``unit``.

    Pipeline phases call this unconditionally; with nothing armed it is a
    single dict lookup.
    """
    specs = _ACTIVE.get(point)
    if not specs:
        return
    for spec in list(specs):
        if spec.unit is not None and spec.unit != unit:
            continue
        if spec.times is not None:
            if spec.times <= 0:
                continue
            spec.times -= 1
            if spec.times == 0:
                specs.remove(spec)
        trace_instant(
            "fault", point=point, action=spec.action, unit=unit or ""
        )
        if _FIRE_HOOK is not None:
            _FIRE_HOOK(spec, unit)
        if spec.action == "raise":
            raise InjectedFault(
                spec.message or f"injected fault at {point}"
                + (f" (unit {unit})" if unit else "")
            )
        if spec.action == "delay":
            time.sleep(spec.delay_seconds)
        elif spec.action == "corrupt-budget" and meter is not None:
            meter.corrupt()
        elif spec.action == "kill":
            os.kill(os.getpid(), _signal.SIGKILL)
        elif spec.action == "hang":
            time.sleep(spec.delay_seconds or _HANG_SECONDS)
