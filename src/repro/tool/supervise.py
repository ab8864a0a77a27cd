"""Crash-proof supervision for the parallel batch executor.

The warm-worker shard scheduler (:func:`repro.tool.batch.run_batch`
with ``jobs > 1``) isolates *exceptions* per unit, but three failure
classes escape in-process isolation entirely:

* a **worker process dies** (segfault, the OOM killer, an injected
  ``kill`` fault) -- ``ProcessPoolExecutor`` marks the whole pool
  broken and every outstanding future fails with
  ``BrokenProcessPool``, taking the sweep down with it;
* a **unit hangs between budget checkpoints** -- cooperative
  :class:`~repro.util.budget.BudgetMeter` polling only runs at fixpoint
  round boundaries, so a worker stuck inside one (or in an injected
  ``hang``) stalls the sweep forever;
* the **parent itself is killed** mid-sweep -- every completed result
  is discarded and the next run starts from zero.

:class:`BatchSupervisor` is the external harness that competition-grade
analyzers (2LS, PredatorHP) rely on, built into the executor:

**Worker-loss recovery.**  Each pool generation runs under a
:class:`RunJournal` -- an O_APPEND JSONL file that workers heartbeat
``unit.start`` records into and append completed ``unit.done`` outcome
payloads to (single short writes, so parent and worker lines interleave
at line granularity exactly like the event log).  When the pool breaks,
the journal tells the parent which units *completed but never shipped*
(adopted straight from their journaled payloads, no re-analysis), which
were *in flight* (retried on a fresh pool after bounded exponential
backoff), and which never started (simply rescheduled).  A unit that is
in flight across more than ``crash_retries`` pool losses is **bisected**
one-unit-per-fresh-process: if the solo process also dies, the unit is
the poison pill and is quarantined with a ``crashed`` outcome (exit 3,
:class:`~repro.util.errors.WorkerCrash` detail carrying the dead pid
and signal); if it survives solo, it was an innocent casualty of a
shared pool and its outcome is adopted.

**Hung-unit watchdog.**  The parent polls the journal's heartbeats and
enforces a hard per-unit wall-clock deadline -- ``--hard-timeout``, or
the budget's wall clock times :attr:`SupervisePolicy.grace_factor` (see
:meth:`~repro.util.budget.ResourceBudget.hard_deadline`).  A unit past
its deadline gets its worker SIGKILLed; the resulting pool break flows
through the same recovery path.  Timeouts are retried like crashes (a
hang may be transient); a unit that *repeatedly* blows the deadline is
recorded as a ``timeout`` outcome (exit 4) carrying a
:class:`~repro.util.errors.HardTimeout` -- a ``BudgetExceeded``
subclass, so hard enforcement folds into the existing budget contract.

**Fault accounting.**  ``kill``/``hang`` faults consume their armed
``times=`` count inside a process that never reports back.  Workers
journal each destructive firing *before* it executes (via
:func:`repro.util.faults.set_fire_hook`); the parent replays those
records against its master spec list and ships the decremented snapshot
to respawned pools, so a ``times=1`` kill is transient sweep-wide and
the retried unit converges to its fault-free outcome -- the property
the serial≡parallel hypothesis tests pin down.

**Resumable sweeps.**  ``unit.done`` records reuse the cache-payload
schema and carry the unit's content key (the cache key,
:meth:`repro.tool.batch.SweepConfig.key`), so a *new parent* given
``resume=True`` replays completed outcomes and re-analyzes only
incomplete units -- surviving even ``kill -9`` of the parent.
:func:`interruptible` converts SIGTERM to ``KeyboardInterrupt`` so both
signals drain in-flight results, write partial batch JSON, and exit 130
without orphaning children.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from collections import defaultdict
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.hub import bus_event, emit_event
from repro.util.budget import ResourceBudget
from repro.util.errors import HardTimeout, WorkerCrash
from repro.util.faults import FaultSpec

__all__ = [
    "SupervisePolicy",
    "RunJournal",
    "BatchSupervisor",
    "interruptible",
    "JOURNAL_SCHEMA_VERSION",
]

#: Bump when the journal record shape changes; a resumed journal with a
#: different schema is ignored (every unit re-analyzes) rather than
#: misread.
JOURNAL_SCHEMA_VERSION = 1

#: Unit exit codes that stop a ``keep_going=False`` sweep (mirrors
#: :data:`repro.tool.batch._HARD_FAILURES`; duplicated to keep this
#: module importable before batch).
_HARD_FAILURES = (2, 3, 4)


@dataclass(frozen=True)
class SupervisePolicy:
    """Tunables for one supervised sweep (defaults suit production)."""

    #: Explicit per-unit wall-clock ceiling in seconds (``--hard-timeout``).
    #: ``None`` derives one from the budget via ``grace_factor``; with no
    #: wall-clock budget either, the watchdog stays disarmed.
    hard_timeout: Optional[float] = None
    #: Hard deadline = budget wall clock x this (covers every
    #: degradation-ladder rung getting a fresh meter).
    grace_factor: float = 4.0
    #: How many times a unit may be in flight during a pool loss before
    #: it is bisected solo to find the poison pill.
    crash_retries: int = 1
    #: How many watchdog kills a unit may absorb before its outcome is
    #: recorded as ``timeout`` instead of being retried.
    timeout_retries: int = 1
    #: Pool respawns before the supervisor gives up on the sweep
    #: (``None``: scaled to the corpus, ``2 * units + 4``).
    max_respawns: Optional[int] = None
    #: Exponential backoff before respawning the pool:
    #: ``min(cap, base * 2**(respawn - 1))`` seconds.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: How often the parent wakes to read heartbeats and check deadlines.
    poll_interval: float = 0.05

    def deadline(self, budget: Optional[ResourceBudget]) -> Optional[float]:
        """The effective hard per-unit deadline, or ``None`` (no watchdog)."""
        if self.hard_timeout is not None:
            return self.hard_timeout
        if budget is not None:
            return budget.hard_deadline(self.grace_factor)
        return None


# ---------------------------------------------------------------------------
# The run journal
# ---------------------------------------------------------------------------


class RunJournal:
    """An O_APPEND JSONL journal of sweep progress, shared with workers.

    Record kinds: ``journal.open`` (header, schema + t), ``unit.start``
    (heartbeat: index/unit/pid/t), ``unit.done`` (index/unit/pid/key +
    the outcome's cache payload), ``fault.fired`` (a destructive
    ``kill``/``hang`` fault consumed its armed count).  Every record is
    written as one short line so concurrent appends interleave cleanly;
    a torn final line (the writer died mid-write) is simply ignored.

    ``resume=True`` keeps the existing file, indexes its ``unit.done``
    records into :attr:`completed` (keyed ``(unit_name, content_key)``),
    and appends; otherwise the file is truncated.
    """

    def __init__(
        self,
        path: str,
        resume: bool = False,
        run_id: Optional[str] = None,
    ) -> None:
        self.path = str(path)
        #: ``(unit_name, key) -> outcome payload`` from prior runs.
        self.completed: Dict[Tuple[str, str], Dict[str, Any]] = {}
        records: List[Dict[str, Any]] = []
        if resume and os.path.exists(self.path):
            records = self.load(self.path)
            header_ok = (
                bool(records)
                and records[0].get("kind") == "journal.open"
                and records[0].get("schema") == JOURNAL_SCHEMA_VERSION
            )
            if not header_ok:
                records = []
        if not records:
            open(self.path, "w").close()
        self._handle = open(self.path, "a", buffering=1)
        self._reader = None
        if not records:
            header = {
                "kind": "journal.open",
                "schema": JOURNAL_SCHEMA_VERSION,
                "t": time.time(),
            }
            if run_id is not None:
                header["run_id"] = run_id
            self.append(header)
        for record in records:
            if record.get("kind") != "unit.done":
                continue
            key = record.get("key")
            unit = record.get("unit")
            outcome = record.get("outcome")
            if key and unit and isinstance(outcome, dict):
                self.completed[(unit, key)] = outcome
        # Tail only what arrives after this point: resumed history is
        # already folded into ``completed``.
        self._read_pos = os.path.getsize(self.path)

    def append(self, record: Dict[str, Any]) -> None:
        """Write one record as a single JSONL line (append mode)."""
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def tail(self) -> List[Dict[str, Any]]:
        """Every *complete* record appended since the last call."""
        if self._reader is None:
            self._reader = open(self.path, "rb")
        self._reader.seek(self._read_pos)
        data = self._reader.read()
        if not data:
            return []
        end = data.rfind(b"\n")
        if end < 0:
            return []  # only a torn line so far
        consumed = data[: end + 1]
        self._read_pos += len(consumed)
        records = []
        for line in consumed.splitlines():
            if not line.strip():
                continue
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                continue
        return records

    @staticmethod
    def load(path: str) -> List[Dict[str, Any]]:
        """Every complete, parseable record in ``path`` (tolerant)."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return []
        records = []
        for line in data.splitlines():
            if not line.strip():
                continue
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                continue
        return records

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
        if self._reader is not None and not self._reader.closed:
            self._reader.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------------------
# Outcome builders (UnitOutcome imported lazily: batch imports us)
# ---------------------------------------------------------------------------


def crashed_outcome(
    unit_name: str,
    attempts: int,
    pid: Optional[int],
    signum: Optional[int],
):
    """A quarantined poison pill: the worker died and so did the retry."""
    from repro.tool.batch import UnitOutcome

    error = WorkerCrash(unit_name, pid=pid, signum=signum)
    return UnitOutcome(
        unit=unit_name,
        status="crashed",
        exit_code=3,
        attempts=attempts,
        error=str(error),
        error_type="WorkerCrash",
        error_detail=error.to_dict(),
    )


def timeout_outcome(
    unit_name: str, attempts: int, limit: float, used: float
):
    """A unit SIGKILLed past the hard deadline (maps to exit 4)."""
    from repro.tool.batch import UnitOutcome

    error = HardTimeout(limit, used)
    return UnitOutcome(
        unit=unit_name,
        status="timeout",
        exit_code=4,
        attempts=attempts,
        error=str(error),
        error_type="HardTimeout",
        error_detail=error.to_dict(),
    )


# ---------------------------------------------------------------------------
# SIGTERM -> KeyboardInterrupt (so one drain path serves both signals)
# ---------------------------------------------------------------------------


def _raise_interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt(f"signal {signum}")


@contextmanager
def interruptible() -> Iterator[None]:
    """Convert SIGTERM to ``KeyboardInterrupt`` for the block's duration.

    A supervised sweep drains on Ctrl-C; SIGTERM (the fleet scheduler's
    polite kill) should take the identical partial-results path rather
    than the default die-where-you-stand.  Outside the main thread
    (where ``signal.signal`` raises), this is a no-op.
    """
    try:
        previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    except ValueError:  # not the main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


class BatchSupervisor:
    """Run one sweep's pool generations; recover, watch, and retry.

    The batch layer wires in everything process-pool-shaped
    (``make_config`` rebuilding the worker initializer payload from a
    fault snapshot, the picklable ``worker_init``/``worker_chunk``/
    ``solo_entry`` functions, the chunker, and the tracer ``adopt``
    callback) so this class owns only the supervision state machine:

    ``DISPATCH -> (drain | BROKEN)``; on ``BROKEN``: adopt journaled
    outcomes, attribute in-flight units, bisect repeat offenders,
    backoff, respawn; on watchdog expiry: SIGKILL the worker and fold
    into ``BROKEN``.  The ``journal`` is the heartbeat and outcome
    channel every one of those steps reads.
    """

    def __init__(
        self,
        *,
        units: Sequence[Any],
        to_run: List[int],
        jobs: int,
        keep_going: bool,
        policy: SupervisePolicy,
        deadline: Optional[float],
        journal: RunJournal,
        keys: Sequence[Optional[str]],
        fault_specs: List[FaultSpec],
        make_config: Callable[[List[FaultSpec]], Any],
        worker_init: Callable,
        worker_chunk: Callable,
        solo_entry: Callable,
        chunk_fn: Callable[[List[int], int], List[List[int]]],
        adopt: Callable[[List[Any], int], None],
        pool_failure: Callable[[Any, BaseException], Any],
    ) -> None:
        self.units = units
        self.to_run = list(to_run)
        self.jobs = jobs
        self.keep_going = keep_going
        self.policy = policy
        self.deadline = deadline
        self.journal = journal
        self.keys = keys
        self.make_config = make_config
        self.worker_init = worker_init
        self.worker_chunk = worker_chunk
        self.solo_entry = solo_entry
        self.chunk_fn = chunk_fn
        self.adopt = adopt
        self.pool_failure = pool_failure

        self.slots: Dict[int, Any] = {}
        self.interrupted = False
        self.stats: Dict[str, int] = defaultdict(int)
        self._fault_specs = [replace(spec) for spec in fault_specs]
        self._crash_count: Dict[int, int] = defaultdict(int)
        self._timeout_count: Dict[int, int] = defaultdict(int)
        #: index -> (pid, started_at) for units currently heartbeating.
        self._running: Dict[int, Tuple[Optional[int], float]] = {}
        #: index -> last pid observed analyzing it (crash attribution).
        self._last_pid: Dict[int, Optional[int]] = {}
        #: index -> journaled ``unit.done`` outcome payload.
        self._journal_done: Dict[int, Dict[str, Any]] = {}
        #: pid -> exitcode of the last generation's workers (best effort).
        self._exitcodes: Dict[int, Optional[int]] = {}
        self._watchdog_killed: set = set()
        self._gen_started: set = set()

    # -- public entry ------------------------------------------------------

    def run(self) -> Dict[int, Any]:
        """Supervise until every runnable unit has an outcome."""
        max_respawns = (
            self.policy.max_respawns
            if self.policy.max_respawns is not None
            else 2 * len(self.to_run) + 4
        )
        generation = 0
        while not self.interrupted:
            runnable = self._runnable()
            if not runnable:
                break
            if generation > 0:
                self.stats["respawns"] += 1
                delay = min(
                    self.policy.backoff_cap,
                    self.policy.backoff_base * (2 ** (generation - 1)),
                )
                if delay > 0:
                    time.sleep(delay)
                emit_event(
                    "supervisor.respawn",
                    generation=generation,
                    units=len(runnable),
                    backoff_s=round(delay, 3),
                )
            broken = self._generation(runnable)
            if self.interrupted:
                break
            if not broken:
                break  # clean drain (or early stop): nothing to recover
            self._recover(runnable)
            generation += 1
            if generation > max_respawns:
                self._give_up()
                break
        return self.slots

    # -- scheduling helpers ------------------------------------------------

    def _first_failure(self) -> Optional[int]:
        """Earliest submission index with a hard failure (2/3/4)."""
        first: Optional[int] = None
        for index, outcome in self.slots.items():
            if outcome.exit_code in _HARD_FAILURES:
                if first is None or index < first:
                    first = index
        return first

    def _runnable(self) -> List[int]:
        pending = [i for i in self.to_run if i not in self.slots]
        if not self.keep_going:
            first = self._first_failure()
            if first is not None:
                # Serial semantics: everything after the earliest hard
                # failure stays unrun (reported skipped by the caller),
                # but units *before* it must still complete.
                pending = [i for i in pending if i < first]
        return pending

    # -- one pool generation ----------------------------------------------

    def _generation(self, runnable: List[int]) -> bool:
        order = list(runnable)
        if self.keep_going:
            # LPT dispatch: safe because every unit runs regardless of
            # order.
            order.sort(key=lambda i: -len(self.units[i].source))
        workers = min(self.jobs, len(order))
        chunks = self.chunk_fn(order, workers)
        # No more workers than chunks: an idle worker still pays its
        # fork and gc.freeze.
        workers = max(1, min(workers, len(chunks)))
        config = self.make_config(
            [replace(spec) for spec in self._fault_specs]
        )
        self._gen_started = set()
        self._watchdog_killed = set()
        self._running.clear()
        broken = False
        stopping = False
        executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=self.worker_init,
            initargs=(config,),
        )
        futures: Dict[Any, List[int]] = {}
        try:
            try:
                for indices in chunks:
                    task = [
                        (index, self.units[index], self.keys[index])
                        for index in indices
                    ]
                    futures[executor.submit(self.worker_chunk, task)] = (
                        indices
                    )
            except BrokenProcessPool:
                broken = True  # died during submission: recover below
            not_done = set(futures)
            while not_done:
                done, not_done = wait(
                    not_done,
                    timeout=self.policy.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                self._consume_journal()
                bus_event("tick", stats=self.stats)
                for future in done:
                    indices = futures[future]
                    try:
                        results, roots, pid = future.result()
                    except CancelledError:
                        continue
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as error:
                        # A structural dispatch failure (pickling, ...):
                        # deterministic, so retrying cannot help.
                        for index in indices:
                            if index not in self.slots:
                                self._record(
                                    index,
                                    self.pool_failure(
                                        self.units[index], error
                                    ),
                                    adjust=False,
                                )
                        continue
                    self.adopt(roots, pid)
                    for index, outcome in results:
                        self._record(index, outcome)
                if (
                    not self.keep_going
                    and not stopping
                    and self._first_failure() is not None
                ):
                    stopping = True
                    for future in not_done:
                        future.cancel()
                if not broken and not stopping:
                    self._watchdog()
        except KeyboardInterrupt:
            self.interrupted = True
            self.stats["interrupted"] = 1
            self._drain_interrupt(executor, futures)
            return False
        finally:
            procs = []
            try:  # private API, best effort: crash/signal attribution
                procs = list(executor._processes.values())
            except Exception:
                procs = []
            executor.shutdown(wait=not self.interrupted)
            self._exitcodes = {}
            for proc in procs:
                try:
                    self._exitcodes[proc.pid] = proc.exitcode
                except Exception:
                    continue
        self._consume_journal()
        return broken

    # -- journal consumption ----------------------------------------------

    def _consume_journal(self) -> None:
        for record in self.journal.tail():
            kind = record.get("kind")
            if kind == "unit.start":
                index = record.get("index")
                if not isinstance(index, int):
                    continue
                pid = record.get("pid")
                self._running[index] = (pid, record.get("t", time.time()))
                self._last_pid[index] = pid
                self._gen_started.add(index)
                bus_event(
                    "unit.start",
                    index=index,
                    unit=record.get("unit"),
                    pid=pid,
                )
            elif kind == "telemetry":
                # Worker metric/RSS deltas piggybacked on the heartbeat
                # channel (see batch._worker_analyze_chunk); forwarded
                # to the live bus, never interpreted here.
                bus_event("worker.delta", record=record)
            elif kind == "unit.done":
                index = record.get("index")
                if not isinstance(index, int):
                    continue
                self._running.pop(index, None)
                if isinstance(record.get("outcome"), dict):
                    self._journal_done[index] = record
            elif kind == "fault.fired":
                self._consume_fault(record)

    def _consume_fault(self, record: Dict[str, Any]) -> None:
        """Replay one destructive fault firing against the master specs.

        The worker that fired a ``kill``/``hang`` never reports back, so
        its local ``times`` decrement died with it; this keeps the
        parent's snapshot -- the one respawned pools are armed from --
        consistent with what actually fired.
        """
        point = record.get("point")
        action = record.get("action")
        unit = record.get("unit")
        if action not in ("kill", "hang"):
            return
        for spec in self._fault_specs:
            if spec.point != point or spec.action != action:
                continue
            if spec.unit is not None and spec.unit != unit:
                continue
            if spec.times is None:
                return  # persistent spec: nothing to decrement
            spec.times -= 1
            if spec.times <= 0:
                self._fault_specs.remove(spec)
            return

    # -- outcome recording -------------------------------------------------

    def _record(self, index: int, outcome: Any, adjust: bool = True) -> None:
        if adjust:
            retries = self._crash_count[index] + self._timeout_count[index]
            if retries:
                outcome.attempts += retries
        self.slots[index] = outcome
        self._running.pop(index, None)
        bus_event("unit.done", index=index, outcome=outcome)

    def _adopt_journal_done(self) -> None:
        """Units that completed in a worker but never shipped a result."""
        from repro.tool.batch import UnitOutcome

        for index, record in self._journal_done.items():
            if index in self.slots or index not in self.to_run:
                continue
            try:
                outcome = UnitOutcome.from_payload(record["outcome"])
            except (KeyError, TypeError, ValueError):
                continue
            outcome.worker_pid = record.get("pid")
            self.stats["journal_recovered"] += 1
            emit_event(
                "supervisor.journal-recovered", unit=outcome.unit
            )
            self._record(index, outcome)

    # -- the watchdog ------------------------------------------------------

    def _watchdog(self) -> None:
        if self.deadline is None:
            return
        now = time.time()
        for index, (pid, started) in list(self._running.items()):
            if index in self.slots:
                continue
            used = now - started
            if used <= self.deadline:
                continue
            self._running.pop(index, None)
            self._watchdog_killed.add(index)
            self._timeout_count[index] += 1
            self.stats["watchdog_kills"] += 1
            unit_name = self.units[index].name
            emit_event(
                "supervisor.watchdog-kill",
                unit=unit_name,
                pid=pid,
                used_s=round(used, 3),
                limit_s=self.deadline,
            )
            if self._timeout_count[index] > self.policy.timeout_retries:
                self.stats["timeouts"] += 1
                self._record(
                    index,
                    timeout_outcome(
                        unit_name,
                        self._timeout_count[index],
                        self.deadline,
                        used,
                    ),
                    adjust=False,
                )
            if pid:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass

    # -- recovery after a broken pool --------------------------------------

    def _signal_for(self, pid: Optional[int]) -> Optional[int]:
        if pid is None:
            return None
        exitcode = self._exitcodes.get(pid)
        if exitcode is not None and exitcode < 0:
            return -exitcode
        return None

    def _recover(self, runnable: List[int]) -> None:
        self._consume_journal()
        self._adopt_journal_done()
        suspects = []
        for index in runnable:
            if index in self.slots:
                continue
            if (
                index in self._gen_started
                and index not in self._watchdog_killed
            ):
                self._crash_count[index] += 1
                pid = self._last_pid.get(index)
                emit_event(
                    "supervisor.worker-lost",
                    unit=self.units[index].name,
                    pid=pid,
                    signal=self._signal_for(pid),
                    crashes=self._crash_count[index],
                )
                if self._crash_count[index] > self.policy.crash_retries:
                    suspects.append(index)
        self._running.clear()
        for index in suspects:
            self._bisect(index)

    def _bisect(self, index: int) -> None:
        """One unit, one fresh process: find (and quarantine) poison pills."""
        unit = self.units[index]
        emit_event("supervisor.bisect", unit=unit.name)
        config = self.make_config(
            [replace(spec) for spec in self._fault_specs]
        )
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=self.solo_entry,
            args=(config, index, unit, self.keys[index], child_conn),
        )
        proc.start()
        child_conn.close()
        proc.join(self.deadline)
        if proc.is_alive():
            proc.kill()
            proc.join()
            parent_conn.close()
            self._consume_journal()
            self._timeout_count[index] += 1
            self.stats["watchdog_kills"] += 1
            self.stats["timeouts"] += 1
            assert self.deadline is not None
            self._record(
                index,
                timeout_outcome(
                    unit.name,
                    self._crash_count[index] + self._timeout_count[index],
                    self.deadline,
                    self.deadline,
                ),
                adjust=False,
            )
            return
        payload = None
        try:
            if parent_conn.poll(0):
                payload = parent_conn.recv()
        except (EOFError, OSError):
            payload = None
        finally:
            parent_conn.close()
        self._consume_journal()
        if isinstance(payload, dict):
            from repro.tool.batch import UnitOutcome

            try:
                outcome = UnitOutcome.from_payload(payload)
            except (KeyError, TypeError, ValueError):
                outcome = None
            if outcome is not None:
                outcome.worker_pid = proc.pid
                outcome.attempts += (
                    self._crash_count[index] + self._timeout_count[index]
                )
                self._record(index, outcome, adjust=False)
                return
        exitcode = proc.exitcode
        signum = -exitcode if exitcode is not None and exitcode < 0 else None
        self.stats["quarantined"] += 1
        emit_event(
            "supervisor.quarantine",
            unit=unit.name,
            pid=proc.pid,
            signal=signum,
        )
        self._record(
            index,
            crashed_outcome(
                unit.name,
                attempts=self._crash_count[index] + 1,
                pid=proc.pid,
                signum=signum,
            ),
            adjust=False,
        )

    def _give_up(self) -> None:
        """Respawn budget exhausted: fail what's left, structurally."""
        for index in self._runnable():
            unit = self.units[index]
            emit_event("supervisor.gave-up", unit=unit.name)
            self._record(
                index,
                crashed_outcome(
                    unit.name,
                    attempts=self._crash_count[index] + 1,
                    pid=self._last_pid.get(index),
                    signum=None,
                ),
                adjust=False,
            )

    # -- interrupt drain ---------------------------------------------------

    def _drain_interrupt(self, executor, futures: Dict[Any, Any]) -> None:
        """Ctrl-C/SIGTERM: keep what finished, kill children, come home.

        Completed futures were already harvested; journaled ``unit.done``
        payloads cover results that finished inside workers but never
        shipped.  In-flight analyses are killed rather than awaited --
        the whole point of the drain is to exit promptly without
        orphaning children.

        Pending futures are deliberately NOT cancelled: killing the
        workers breaks the pool, and the executor's management thread
        then settles every pending future with ``BrokenProcessPool``
        itself.  Cancelling first makes that ``set_exception`` call
        raise ``InvalidStateError`` inside the management thread, which
        splats a phantom traceback on stderr mid-drain.
        """
        emit_event("supervisor.interrupted")
        procs = []
        try:  # private API, best effort
            procs = list(executor._processes.values())
        except Exception:
            procs = []
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                continue
        deadline = time.time() + 1.0
        for proc in procs:
            try:
                proc.join(max(0.0, deadline - time.time()))
            except Exception:
                continue
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.kill()
            except Exception:
                continue
        try:
            executor.shutdown(wait=False)
        except Exception:
            pass
        self._consume_journal()
        self._adopt_journal_done()
