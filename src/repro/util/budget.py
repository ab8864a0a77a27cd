"""Resource budgets with cooperative checkpoints.

The paper analyzes 1.35 MLOC and reports runs taking hours; a production
deployment needs every fixpoint to be *interruptible*.  A
:class:`ResourceBudget` declares the limits; :meth:`ResourceBudget.start`
mints a :class:`BudgetMeter` that the call-graph builder, the context
numbering, the pointer solver, and both Datalog engines poll at loop
granularity.  Crossing a limit raises a structured
:class:`~repro.util.errors.BudgetExceeded`, which the degradation ladder
in :mod:`repro.tool.regionwiz` catches to retry at lower precision.

Checkpoints are *cooperative*: phases call :meth:`BudgetMeter.checkpoint`
(wall clock) and :meth:`BudgetMeter.charge_tuples` /
:meth:`~BudgetMeter.charge_contexts` / :meth:`~BudgetMeter.charge_objects`
(counters) at the top of their fixpoint rounds.  With no limits set every
check is a two-attribute-read no-op, so threading a meter through the hot
loops costs nothing in the common case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.util.errors import BudgetExceeded

__all__ = ["ResourceBudget", "BudgetMeter"]

#: :meth:`ResourceBudget.hard_deadline` is the wall-clock budget times
#: this factor.
HARD_DEADLINE_GRACE = 4.0


@dataclass(frozen=True)
class ResourceBudget:
    """Declarative resource limits (``None`` = unlimited)."""

    #: Wall-clock deadline for one pipeline attempt, in seconds.
    wall_clock_seconds: Optional[float] = None
    #: Cumulative cap on tuples derived by the pointer solver and any
    #: Datalog fixpoint run under the same meter.
    max_derived_tuples: Optional[int] = None
    #: Cap on the total number of calling contexts the numbering creates.
    max_contexts: Optional[int] = None
    #: Cap on abstract objects + regions the pointer analysis tracks.
    max_objects: Optional[int] = None

    @property
    def unlimited(self) -> bool:
        return (
            self.wall_clock_seconds is None
            and self.max_derived_tuples is None
            and self.max_contexts is None
            and self.max_objects is None
        )

    def start(self, clock: Callable[[], float] = time.monotonic) -> "BudgetMeter":
        """Begin one attempt: the wall clock starts ticking now."""
        return BudgetMeter(self, clock=clock)

    def hard_deadline(self) -> Optional[float]:
        """The supervisor's per-unit wall-clock ceiling, in seconds.

        Cooperative checkpoints should always trip first; the hard
        deadline is the budget's wall clock times
        :data:`HARD_DEADLINE_GRACE` (covering every degradation-ladder
        rung retrying under a fresh meter plus checkpoint latency),
        after which the batch supervisor assumes the unit is *stuck
        between checkpoints* and kills the worker outright.  ``None``
        when the budget carries no wall-clock limit -- there is nothing
        to scale a grace period from, so only an explicit
        ``--hard-timeout`` can arm the watchdog.
        """
        if self.wall_clock_seconds is None:
            return None
        return self.wall_clock_seconds * HARD_DEADLINE_GRACE

    def to_dict(self) -> Dict[str, Any]:
        return {
            "wall_clock_seconds": self.wall_clock_seconds,
            "max_derived_tuples": self.max_derived_tuples,
            "max_contexts": self.max_contexts,
            "max_objects": self.max_objects,
        }


class BudgetMeter:
    """Mutable per-attempt tracker for one :class:`ResourceBudget`.

    A fresh meter is minted for every attempt (each degradation rung gets
    a full budget: a retry with an already-expired deadline could never
    succeed).  All ``charge_*`` methods raise
    :class:`~repro.util.errors.BudgetExceeded` the moment a limit is
    crossed; :meth:`corrupt` (used by the ``corrupt-budget`` fault
    injection action) forces the next checkpoint to fail deterministically.
    """

    def __init__(
        self,
        budget: ResourceBudget,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.budget = budget
        self._clock = clock
        self._deadline: Optional[float] = None
        if budget.wall_clock_seconds is not None:
            self._deadline = clock() + budget.wall_clock_seconds
        self.tuples_used = 0
        self.contexts_used = 0
        self.objects_used = 0
        self._corrupted = False

    # ------------------------------------------------------------------

    def corrupt(self) -> None:
        """Poison the meter: every subsequent check raises."""
        self._corrupted = True

    def _trip(
        self, resource: str, limit: float, used: float, phase: str
    ) -> None:
        """Emit a ``budget.trip`` event and raise (the only raise path).

        The hub import is local: this is the cold path (budget
        exhaustion), and :mod:`repro.obs.hub` layers above
        :mod:`repro.util` at import time.
        """
        from repro.obs.hub import emit_event

        emit_event(
            "budget.trip",
            resource=resource,
            limit=limit,
            used=used,
            phase=phase,
        )
        raise BudgetExceeded(resource, limit, used, phase)

    def checkpoint(self, phase: str) -> None:
        """Wall-clock check; call at the top of every fixpoint round."""
        if self._corrupted:
            self._trip("corrupted", 0, 0, phase)
        if self._deadline is not None and self._clock() > self._deadline:
            assert self.budget.wall_clock_seconds is not None
            limit = self.budget.wall_clock_seconds
            used = limit + (self._clock() - self._deadline)
            self._trip("wall_clock", limit, used, phase)

    def charge_tuples(self, count: int, phase: str) -> None:
        """Add ``count`` newly derived tuples; also checks the deadline."""
        self.tuples_used += count
        limit = self.budget.max_derived_tuples
        if limit is not None and self.tuples_used > limit:
            self._trip("derived_tuples", limit, self.tuples_used, phase)
        self.checkpoint(phase)

    def charge_contexts(self, total: int, phase: str) -> None:
        """Record the running total of calling contexts."""
        self.contexts_used = max(self.contexts_used, total)
        limit = self.budget.max_contexts
        if limit is not None and self.contexts_used > limit:
            self._trip("contexts", limit, self.contexts_used, phase)
        self.checkpoint(phase)

    def charge_objects(self, total: int, phase: str) -> None:
        """Record the running total of abstract objects (incl. regions)."""
        self.objects_used = max(self.objects_used, total)
        limit = self.budget.max_objects
        if limit is not None and self.objects_used > limit:
            self._trip("objects", limit, self.objects_used, phase)
        self.checkpoint(phase)

    def usage(self) -> Dict[str, int]:
        """Counters charged so far (wall clock is not included)."""
        return {
            "derived_tuples": self.tuples_used,
            "contexts": self.contexts_used,
            "objects": self.objects_used,
        }
