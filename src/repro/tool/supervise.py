"""The parallel batch executor: forked workers under a supervisor.

:func:`repro.tool.batch.run_batch` with ``jobs > 1`` hands its units to
:func:`_run_batch_parallel`, whose :class:`BatchSupervisor` forks the
worker processes and drives them itself.

**Probe order.**  Decoding a cache hit does not depend on analyzing a
miss, so on a warm re-sweep the two overlap: (1) a stat-only presence
probe (:meth:`AnalysisCache.present`) finds the units with no entry;
(2) workers are forked for them and handed their chunks, longest unit
first (LPT) under ``keep_going``; (3) while they analyze, the parent
reads and decodes the present entries -- one
:meth:`AnalysisCache.lookup` per unit, as in a serial sweep, so counters
and ``cache.*`` events are the same; (4) an entry that turns out
corrupt, has a stale schema or names another unit is a *late miss*,
queued to the live workers.  With no miss in the probe nothing is forked
before the decoding, so a sweep whose entries all decode forks nothing.

**The worker protocol.**  Workers use the ``fork`` start method, so
they inherit the units and keys, and a task names a chunk by its
submission indices.  Each worker has a task pipe and a result pipe.  A
task is ``(indices, fault specs)``: the armed specs ride on every task,
so a destructive fault consumed in one worker is consumed in all.  The
reply is ``(outcomes, span roots, pid)``, or the exception the chunk
function raised, which becomes an ``internal-error`` outcome for each
unit of that chunk.  The parent waits on the result pipes with
:data:`_POLL_INTERVAL`, which also paces the heartbeat reads and the
watchdog.  One more (small) chunk may queue behind the one a worker
runs, so it does not idle between chunks; it queues behind the worker
with the least work left (unfinished source size), which keeps LPT
balanced, and the last chunks go to whichever worker frees first.
Closing a task pipe makes its worker exit.  The parent runs no thread
of its own.  Outcomes are reassembled in submission order;
worker spans are adopted into the parent's Chrome trace (a lane per
``pid``).  With ``keep_going=False`` nothing is dispatched past the
earliest hard failure, and the caller reports every later unit
``skipped``, as a serial sweep would.

In-process isolation cannot catch a **worker dying** (segfault, the OOM
killer, an injected ``kill``), a **unit hanging between budget
checkpoints**, or the **parent being killed**; the supervisor is the
external harness that analyzers such as 2LS and PredatorHP rely on.

**Recovery per worker.**  Workers heartbeat ``unit.start`` and append
completed ``unit.done`` payloads to a :class:`RunJournal` (O_APPEND
JSONL; one short write per record, so lines interleave cleanly).  A dead
worker shows as EOF on its result pipe, and reaping it gives the signal.
Only its own chunks are settled: units that completed but never shipped
are adopted from the journal; units that journaled ``unit.start`` there
are charged a crash and retried; units that never started are retried
with no charge.  Retries wait out a bounded exponential backoff, after
which the dead worker is replaced (``respawns``, within a respawn
budget).  A unit charged more than :data:`_CRASH_RETRIES` crashes is
**bisected**: it runs alone in a freshly forked worker.  If that one
dies too, the unit is quarantined with a ``crashed`` outcome (exit 3,
:class:`~repro.util.errors.WorkerCrash` carrying pid and signal);
otherwise it was an innocent casualty and its outcome is kept.

**Hung-unit watchdog.**  Against the heartbeats the parent enforces a
hard per-unit deadline: ``hard_timeout``, or the budget's wall clock
times a grace factor (:meth:`~repro.util.budget.ResourceBudget.
hard_deadline`).  A unit past it gets its worker SIGKILLed, which flows
through the same recovery without a crash charge.  A unit that blows the
deadline more than :data:`_TIMEOUT_RETRIES` times, or once in a
bisection worker, gets a ``timeout`` outcome (exit 4) carrying a
:class:`~repro.util.errors.HardTimeout`, a ``BudgetExceeded`` subclass.

**Fault accounting.**  A ``kill``/``hang`` fault consumes its ``times=``
count in a process that never reports back, so workers journal each
destructive firing before it executes
(:func:`repro.util.faults.set_fire_hook`) and the parent replays it
against its master specs; a ``times=1`` kill is transient sweep-wide and
the retried unit converges to its fault-free outcome.

**Resumable sweeps.**  ``unit.done`` records reuse the cache-payload
schema under the unit's content key
(:meth:`repro.tool.batch.SweepConfig.key`), so a new parent given
``resume=True`` replays completed outcomes -- even after ``kill -9`` of
the old one.  :func:`interruptible` turns SIGTERM into
``KeyboardInterrupt``; on either, the workers are terminated (killed
after 1 s) and reaped, journaled outcomes are kept, and the caller
writes partial batch JSON and exits 130.

A fault-free parallel sweep produces the serial sweep's batch JSON byte
for byte; transient kills and hangs converge to it modulo ``attempts``
and the ``supervision`` block.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import pickle
import signal
import tempfile
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from multiprocessing.connection import wait
from typing import Any, Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.obs.hub import (
    HubWiring, bus_event, current_hub, emit_event, install,
)
from repro.obs.trace import SpanRecord, Tracer, _peak_rss_kb
from repro.tool.batch import (
    _HARD_FAILURES,
    BatchUnit,
    SweepConfig,
    UnitOutcome,
    _analyze_unit,
    _cache_lookup,
    _cache_store,
    _failure,
    _first_hard_failure,
    _journal_record,
)
from repro.tool.cache import AnalysisCache
from repro.util import faults
from repro.util.errors import HardTimeout, WorkerCrash

__all__ = [
    "RunJournal", "BatchSupervisor", "interruptible", "JOURNAL_SCHEMA_VERSION",
]

#: Bump when the journal record shape changes; a resumed journal with a
#: different schema is ignored (every unit re-analyzes) rather than
#: misread.
JOURNAL_SCHEMA_VERSION = 1

#: How many crashes a unit may be charged before it is bisected solo to
#: find the poison pill.
_CRASH_RETRIES = 1
#: How many watchdog kills a unit may absorb before its outcome is
#: recorded as ``timeout`` instead of being retried.
_TIMEOUT_RETRIES = 1
#: Exponential backoff before replacing a dead worker:
#: ``min(_BACKOFF_CAP, _BACKOFF_BASE * 2**(respawn - 1))`` seconds.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0
#: How often the parent wakes to read heartbeats and check deadlines.
_POLL_INTERVAL = 0.05
#: How often the parent, while decoding cache hits, stops to serve the
#: workers (results, heartbeats, the watchdog, queued chunks).
_DECODE_SLICE = _POLL_INTERVAL / 5
#: The largest task (pickled) queued behind a busy worker; with two in
#: a pipe's buffer at most, the parent's write cannot block.
_QUEUED_TASK_BYTES = 4096

#: Workers are forked whatever the platform default: they inherit the
#: sweep's units instead of receiving them pickled.
_FORK = multiprocessing.get_context("fork")


# ---------------------------------------------------------------------------
# The run journal
# ---------------------------------------------------------------------------


def _parse_lines(data: bytes) -> List[Dict[str, Any]]:
    """Every parseable JSON line in ``data``; corrupt lines are skipped."""
    records = []
    for line in data.splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line.decode("utf-8")))
        except (ValueError, UnicodeDecodeError):
            continue
    return records


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
        end = data.rfind(b"\n")
        if end < 0:
            return []  # nothing new, or only a torn line so far
        self._read_pos += end + 1
        return _parse_lines(data[: end + 1])

    @staticmethod
    def load(path: str) -> List[Dict[str, Any]]:
        """Every complete, parseable record in ``path`` (tolerant)."""
        try:
            with open(path, "rb") as handle:
                return _parse_lines(handle.read())
        except OSError:
            return []

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
# The worker side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerConfig:
    """What a worker needs besides its units: the sweep's settings plus
    the process wiring.  Reaches each worker once, through the fork.
    """

    sweep: SweepConfig
    #: The fault specs armed for each chunk; every task brings the
    #: parent's current snapshot, which replaces this one.
    fault_specs: List[faults.FaultSpec]
    #: The supervisor's run journal: workers heartbeat ``unit.start``,
    #: append completed ``unit.done`` payloads, and record destructive
    #: fault firings into it.
    journal_path: str
    #: The parent hub's wiring; :func:`_worker_init` installs the worker
    #: hub it describes.
    hub: HubWiring


#: This worker's copy of the batch config, set by :func:`_worker_init`.
_WORKER_CONFIG: Optional[_WorkerConfig] = None

#: The worker's journal append handle, opened lazily per process (same
#: one-line-per-write discipline as the event log, so parent and worker
#: appends interleave at line granularity).
_WORKER_JOURNAL = None


def _worker_journal_append(payload: Dict[str, Any]) -> None:
    global _WORKER_JOURNAL
    assert _WORKER_CONFIG is not None and _WORKER_CONFIG.journal_path
    if _WORKER_JOURNAL is None or _WORKER_JOURNAL.closed:
        _WORKER_JOURNAL = open(
            _WORKER_CONFIG.journal_path, "a", buffering=1
        )
    _WORKER_JOURNAL.write(json.dumps(payload, sort_keys=True) + "\n")


def _worker_fault_hook(
    spec: faults.FaultSpec, unit: Optional[str]
) -> None:
    """Journal a destructive fault firing *before* it executes.

    A ``kill``/``hang`` takes the worker down with it, so this journal
    line is the only record the parent ever gets that the armed
    ``times=`` count was consumed; the supervisor replays it against its
    master snapshot (see :meth:`BatchSupervisor._consume_fault`).
    """
    if spec.action not in ("kill", "hang"):
        return
    _worker_journal_append({
        "kind": "fault.fired", "point": spec.point, "action": spec.action,
        "unit": unit, "pid": os.getpid(), "t": time.time(),
    })


def _worker_init(config: _WorkerConfig) -> None:
    """Receive the batch config once and warm the worker (after fork).

    Freezes the inherited heap out of the cyclic GC: it is the parent's
    (possibly whole prior batch reports), none of it is garbage the
    worker could free, and a full collection would walk it all,
    copy-on-write-faulting the shared pages at the first unit's expense.
    Installs the hub the parent's wiring describes in place of the one
    ``fork`` inherited: the parent's event log reopened for appending on
    its timeline, the ``--mem-profile`` switch, no tracer (each chunk
    installs its own) and no bus (telemetry rides the journal).
    """
    global _WORKER_CONFIG
    _WORKER_CONFIG = config
    gc.freeze()
    try:
        # The parent runs sweeps under interruptible() (SIGTERM ->
        # KeyboardInterrupt) and workers fork while it is installed; a
        # worker must just die on SIGTERM (the drain terminates
        # workers), not raise a phantom interrupt.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    install(config.hub.worker_hub())
    faults.set_fire_hook(_worker_fault_hook)


#: One chunk of ``(index, unit, key)`` triples; ``key`` is the unit's
#: content key (None when neither a cache nor a journal is configured).
_WorkerChunk = List[Tuple[int, BatchUnit, Optional[str]]]


def _worker_analyze_chunk(
    chunk: _WorkerChunk,
) -> Tuple[List[Tuple[int, UnitOutcome]], List[SpanRecord], int]:
    """Analyze one chunk of units inside a worker.

    Re-arms the config's fault specs (one dispatch = one chunk, the
    documented scope of bare ``times=`` specs) and, when the parent is
    tracing, records the chunk under a tracer on the parent's epoch.
    Returns the slimmed outcomes, the span roots, and this worker's pid.
    Under ``keep_going=False`` the rest of the chunk is abandoned after a
    hard failure, which a serial run would never pass.  Each unit is
    bracketed by journal records: ``unit.start`` (the watchdog's clock
    and the crash attribution) and ``unit.done`` with the outcome's
    payload (adopted if the worker dies before replying).
    """
    assert _WORKER_CONFIG is not None, "worker used before _worker_init"
    config = _WORKER_CONFIG
    faults.install(config.fault_specs)
    epoch = config.hub.trace_epoch
    tracer = Tracer(epoch=epoch) if epoch is not None else None
    previous = install(replace(current_hub(), tracer=tracer))
    results: List[Tuple[int, UnitOutcome]] = []
    try:
        for index, unit, key in chunk:
            _worker_journal_append(_journal_record(index, unit))
            outcome = _analyze_unit(unit, config.sweep)
            outcome.worker_pid = os.getpid()
            results.append((index, outcome))
            _worker_journal_append(_journal_record(index, unit, key, outcome))
            if config.hub.telemetry:
                # The live-telemetry piggyback: one extra journal line
                # per completed unit, riding the heartbeat channel the
                # supervisor already tails -- no second IPC path, no
                # cost when telemetry is off.
                _worker_journal_append(
                    {
                        "kind": "telemetry",
                        "index": index,
                        "unit": unit.name,
                        "pid": os.getpid(),
                        "t": time.time(),
                        "rss_kb": _peak_rss_kb(),
                        "cpu_s": round(time.process_time(), 6),
                        "run": config.sweep.run_id,
                    }
                )
            if (
                not config.sweep.keep_going
                and outcome.exit_code in _HARD_FAILURES
            ):
                break
    finally:
        install(previous)
        faults.clear()
    roots = tracer.roots if tracer is not None else []
    return results, roots, os.getpid()


def _worker_main(
    config: _WorkerConfig,
    units: List[BatchUnit],
    keys: List[Optional[str]],
    tasks,
    results,
    inherited: List[Any],
) -> None:
    """A forked worker's life: answer tasks until the task pipe closes.

    ``inherited`` (the parent's ends of every worker's pipes) is closed
    first: a copy held here would keep a task pipe from reading EOF.
    Ctrl-C is the parent's to handle (it terminates the workers), so a
    worker ignores SIGINT.
    """
    global _WORKER_CONFIG
    for conn in inherited:
        conn.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_init(config)
    while True:
        try:
            indices, specs = pickle.loads(tasks.recv_bytes())
        except EOFError:
            return
        _WORKER_CONFIG = replace(config, fault_specs=specs)
        chunk = [(index, units[index], keys[index]) for index in indices]
        try:
            reply: Any = _worker_analyze_chunk(chunk)
        except Exception as error:
            reply = error
        try:
            results.send(reply)
        except OSError:
            return  # the parent is gone
        except Exception as error:  # the reply does not pickle
            results.send(RuntimeError(f"{type(error).__name__}: {error}"))


def _chunked(
    indices: List[int], workers: int, chunk_size: Optional[int]
) -> List[List[int]]:
    """Runs of consecutive ``indices``, in order.  The default size
    targets ~4 chunks per worker: small units amortize the round trip,
    and the tail of the sweep still load-balances."""
    if chunk_size is None:
        chunk_size = max(1, min(8, math.ceil(len(indices) / (workers * 4))))
    return [
        indices[start:start + chunk_size]
        for start in range(0, len(indices), chunk_size)
    ]


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


class _Worker:
    """One forked worker: its process, its two pipes, its chunks."""

    def __init__(self, proc, tasks, results, solo: bool) -> None:
        self.proc = proc
        self.tasks, self.results = tasks, results  # the parent's ends
        #: Chunks sent and not yet answered, oldest (running) first.
        self.chunks: Deque[List[int]] = deque()
        #: Units that journaled ``unit.start`` in this worker.
        self.started: Set[int] = set()
        #: Units the watchdog killed this worker for.
        self.killed: Set[int] = set()
        #: A bisection worker: one suspect unit, then it exits.
        self.solo = solo


class BatchSupervisor:
    """Run one sweep's workers; recover, watch, and retry.

    :meth:`submit` queues units and forks workers; :meth:`service`
    collects replies, reads heartbeats, runs the watchdog and dispatches;
    :meth:`run` serves until every runnable unit has an outcome in
    ``slots`` (shared with the caller, who adds cache hits and resumed
    outcomes); :meth:`close` reaps every worker.  Heartbeats go to
    ``journal``, or to a throwaway one opened at the first fork.
    """

    def __init__(
        self,
        *,
        units: List[BatchUnit],
        slots: List[Optional[UnitOutcome]],
        config: SweepConfig,
        jobs: int,
        chunk_size: Optional[int],
        journal: Optional[RunJournal],
        keys: List[Optional[str]],
    ) -> None:
        self.units = units
        self.slots = slots
        #: Every unit handed to :meth:`submit`, in submission order.
        self.to_run: List[int] = []
        self.config = config
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.journal = journal
        self._ephemeral: Optional[str] = None
        self.keys = keys
        #: Hard per-unit wall-clock deadline; ``None`` disarms the
        #: watchdog.
        self.deadline = config.hard_timeout
        if self.deadline is None and config.budget is not None:
            self.deadline = config.budget.hard_deadline()
        hub = current_hub()
        self.tracer = hub.tracer
        self.wiring = hub.wiring()

        self.interrupted = False
        self.stats: Dict[str, int] = defaultdict(int)
        self.workers: List[_Worker] = []
        #: Every process forked and not yet known to be reaped.
        self._procs: List[Any] = []
        self._by_pid: Dict[int, _Worker] = {}
        #: Chunks waiting for a worker, in dispatch order.
        self._queue: Deque[List[int]] = deque()
        #: Chunks of lost workers, held until the backoff is over.
        self._retry: Deque[List[int]] = deque()
        #: Units to bisect, each in a worker of its own.
        self._suspects: Deque[int] = deque()
        #: Dead workers not yet replaced, and when the next may fork.
        self._vacancies = 0
        self._backoff = 0.0
        self._fork_at = 0.0
        self._fault_specs = faults.snapshot()
        self._crash_count: Dict[int, int] = defaultdict(int)
        self._timeout_count: Dict[int, int] = defaultdict(int)
        #: index -> (pid, started_at) for units currently heartbeating.
        self._running: Dict[int, Tuple[Optional[int], float]] = {}
        #: index -> last pid observed analyzing it (crash attribution).
        self._last_pid: Dict[int, Optional[int]] = {}
        #: index -> journaled ``unit.done`` record.
        self._journal_done: Dict[int, Dict[str, Any]] = {}

    # -- public entry ------------------------------------------------------

    def submit(self, indices: List[int]) -> None:
        """Queue units for analysis, longest first under ``keep_going``,
        and fork workers for them."""
        if not indices:
            return
        self.to_run.extend(indices)
        order = list(indices)
        if self.config.keep_going:
            # LPT dispatch: safe because every unit runs regardless of
            # order.
            order.sort(key=lambda i: -len(self.units[i].source))
        workers = min(self.jobs, len(order))
        self._queue.extend(_chunked(order, workers, self.chunk_size))
        self._dispatch()

    def run(self) -> None:
        """Serve the workers until every runnable unit has an outcome."""
        while self._runnable():
            # Wake for a pending fork, or poll.
            wake = self._fork_at - time.monotonic()
            self.service(wake if 0 < wake < _POLL_INTERVAL else _POLL_INTERVAL)

    def service(self, timeout: float) -> None:
        """One pass: wait up to ``timeout`` for replies, then collect
        them, read heartbeats, run the watchdog and dispatch."""
        conns = [worker.results for worker in self.workers]
        if conns:
            ready = wait(conns, timeout)
        else:
            ready = []
            time.sleep(timeout)
        self._consume_journal()
        for conn in ready:
            worker = next(w for w in self.workers if w.results is conn)
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                self._lost(worker)
                continue
            self._answered(worker, reply)
        bus_event("tick", stats=self.stats)
        self._watchdog()
        self._dispatch()

    def interrupt(self) -> None:
        """Ctrl-C/SIGTERM: terminate the workers rather than await them,
        and keep what finished, journaled outcomes included."""
        self.interrupted = True
        self.stats["interrupted"] = 1
        emit_event("supervisor.interrupted")
        self._shutdown(terminate=True)
        self._consume_journal()
        for index in list(self._journal_done):
            if self.slots[index] is None:
                self._adopt(index)

    def close(self) -> None:
        """Stop and reap every worker; remove a throwaway journal.  A
        worker still busy holds only units the report does not need (past
        an early stop, or settled), so it is terminated."""
        self._shutdown(terminate=False)
        if self._ephemeral is not None:
            self.journal.close()
            try:
                os.unlink(self._ephemeral)
            except OSError:
                pass

    # -- scheduling --------------------------------------------------------

    def _limit(self) -> Optional[int]:
        """The earliest hard failure under ``keep_going=False``: nothing
        at or past it is dispatched."""
        if self.config.keep_going:
            return None
        return _first_hard_failure(self.slots)

    def _runnable(self) -> List[int]:
        pending = [i for i in self.to_run if self.slots[i] is None]
        first = self._limit()
        if first is not None:
            # Serial semantics: everything after the earliest hard
            # failure stays unrun (reported skipped by the caller),
            # but units *before* it must still complete.
            pending = [i for i in pending if i < first]
        return pending

    def _next_chunk(self) -> Optional[List[int]]:
        first = self._limit()
        while self._queue:
            chunk = [
                i for i in self._queue.popleft()
                if self.slots[i] is None and (first is None or i < first)
            ]
            if chunk:
                return chunk
        return None

    def _dispatch(self) -> None:
        """Bisect suspects; once a backoff is over, release the retries
        and replace dead workers; feed idle workers, fork more up to
        ``jobs``, then queue chunks behind the least-loaded workers."""
        due = time.monotonic() >= self._fork_at
        if due and self._retry:
            self._queue.extendleft(reversed(self._retry))
            self._retry.clear()
        while self._suspects:
            index = self._suspects.popleft()
            if self.slots[index] is None:
                emit_event("supervisor.bisect", unit=self.units[index].name)
                self._post(self._fork(solo=True), [index])
        regular = [w for w in self.workers if not w.solo]
        while due and self._vacancies:
            if len(regular) >= self.jobs or not self._runnable():
                self._vacancies = 0
                break
            if not self._respawn():
                return
            regular.append(self._fork(solo=False))
        for worker in regular:
            if not worker.chunks:
                self._post_next(worker)
        while due and self._queue and len(regular) < self.jobs:
            chunk = self._next_chunk()
            if chunk is None:
                break
            regular.append(self._fork(solo=False))
            self._post(regular[-1], chunk)
        # Greedy LPT over the pipes: the next chunk queues behind the
        # worker with the least work left, one queued chunk at most.  The
        # last chunks wait for whichever worker frees first, since the
        # source-size estimate is too rough to commit them.
        while regular and len(self._queue) >= len(regular):
            worker = min(regular, key=self._work_left)
            if len(worker.chunks) != 1 or not self._post_next(
                worker, _QUEUED_TASK_BYTES
            ):
                break

    def _work_left(self, worker: _Worker) -> int:
        """Source bytes of the worker's units not yet journaled done."""
        return sum(
            len(self.units[i].source)
            for chunk in worker.chunks
            for i in chunk
            if i not in self._journal_done
        )

    def _respawn(self) -> bool:
        """Count one replacement; False once the budget is spent."""
        self._vacancies -= 1
        self.stats["respawns"] += 1
        respawns = self.stats["respawns"]
        if respawns > 2 * len(self.to_run) + 4:
            # Every unit may cost a crash retry and a bisection.
            self._give_up()
            return False
        emit_event(
            "supervisor.respawn", generation=respawns,
            units=len(self._runnable()), backoff_s=round(self._backoff, 3),
        )
        return True

    def _fork(self, solo: bool) -> _Worker:
        """Fork one worker (no task yet)."""
        if self.journal is None:
            fd, self._ephemeral = tempfile.mkstemp(
                prefix="regionwiz-journal-", suffix=".jsonl"
            )
            os.close(fd)
            self.journal = RunJournal(
                self._ephemeral, run_id=self.config.run_id
            )
        task_r, task_w = _FORK.Pipe(duplex=False)
        result_r, result_w = _FORK.Pipe(duplex=False)
        inherited = [task_w, result_r]
        for other in self.workers:
            inherited += (other.tasks, other.results)
        config = _WorkerConfig(
            sweep=self.config,
            fault_specs=self._fault_specs,
            journal_path=self.journal.path,
            hub=self.wiring,
        )
        proc = _FORK.Process(
            target=_worker_main,
            args=(config, self.units, self.keys, task_r, result_w, inherited),
            name="regionwiz-worker",
        )
        proc.start()
        self._procs.append(proc)
        task_r.close()
        result_w.close()
        worker = _Worker(proc, task_w, result_r, solo)
        self.workers.append(worker)
        self._by_pid[proc.pid] = worker
        return worker

    def _post_next(self, worker: _Worker, limit: Optional[int] = None) -> bool:
        """Send the next chunk; False when none is left or it is too big."""
        chunk = self._next_chunk()
        if chunk is None:
            return False
        if not self._post(worker, chunk, limit):
            self._queue.appendleft(chunk)
            return False
        return True

    def _post(
        self, worker: _Worker, chunk: List[int], limit: Optional[int] = None
    ) -> bool:
        """Send one task; False (nothing sent) when it exceeds ``limit``."""
        data = pickle.dumps((chunk, self._fault_specs))
        if limit is not None and len(data) > limit:
            return False
        worker.chunks.append(chunk)
        try:
            worker.tasks.send_bytes(data)
        except OSError:
            pass  # the worker is gone; its EOF requeues the chunk
        return True

    def _retire(self, worker: _Worker) -> None:
        """Drop a worker from the books and reap it."""
        self.workers.remove(worker)
        self._by_pid.pop(worker.proc.pid, None)
        worker.tasks.close()
        worker.proc.join()
        worker.results.close()

    def _shutdown(self, terminate: bool) -> None:
        """Close every task pipe, terminate the workers that must not
        finish, kill what is left after 1 s, and reap them all."""
        workers, self.workers = self.workers, []
        self._by_pid.clear()
        for worker in workers:
            worker.tasks.close()
            if terminate or worker.chunks:
                worker.proc.terminate()
        deadline = time.monotonic() + 1.0
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.exitcode is None:
                proc.kill()
                proc.join()
        self._procs = []
        for worker in workers:
            worker.results.close()

    # -- replies and losses ------------------------------------------------

    def _answered(self, worker: _Worker, reply: Any) -> None:
        indices = worker.chunks.popleft()
        if isinstance(reply, BaseException):
            # The chunk function itself failed, outside per-unit
            # isolation: deterministic, so retrying cannot help.
            message = f"worker process failed: {reply}"
            for index in indices:
                outcome = _failure(
                    self.units[index].name, "internal-error", reply,
                    message=message,
                )
                self._record(index, outcome, adjust=False)
        else:
            results, roots, pid = reply
            if self.tracer is not None and roots:
                self.tracer.adopt(roots, pid=pid)
            for index, outcome in results:
                self._record(index, outcome)
        if worker.solo:
            self._retire(worker)

    def _lost(self, worker: _Worker) -> None:
        """A worker died: settle the units of its own chunks."""
        self._consume_journal()
        self._retire(worker)
        pid = worker.proc.pid
        exitcode = worker.proc.exitcode
        signum = -exitcode if exitcode is not None and exitcode < 0 else None
        requeue = []
        for index in (i for chunk in worker.chunks for i in chunk):
            self._running.pop(index, None)
            if self.slots[index] is not None or self._adopt(index):
                continue
            if worker.solo:
                self.stats["quarantined"] += 1
                emit_event(
                    "supervisor.quarantine", unit=self.units[index].name,
                    pid=pid, signal=signum,
                )
                self._crashed(index, pid, signum)
                continue
            if index in worker.started and index not in worker.killed:
                self._crash_count[index] += 1
                emit_event(
                    "supervisor.worker-lost", unit=self.units[index].name,
                    pid=pid, signal=signum, crashes=self._crash_count[index],
                )
                if self._crash_count[index] > _CRASH_RETRIES:
                    self._suspects.append(index)
                    continue
            requeue.append(index)
        self._retry.extend(_chunked(requeue, self.jobs, self.chunk_size))
        if not worker.solo and self._runnable():
            self._vacancies += 1
            respawn = self.stats.get("respawns", 0) + self._vacancies
            self._backoff = min(
                _BACKOFF_CAP, _BACKOFF_BASE * (2 ** (respawn - 1))
            )
            self._fork_at = time.monotonic() + self._backoff

    # -- journal consumption ----------------------------------------------

    def _consume_journal(self) -> None:
        if self.journal is None:
            return
        for record in self.journal.tail():
            kind = record.get("kind")
            if kind == "unit.start":
                index = record.get("index")
                if not isinstance(index, int):
                    continue
                pid = record.get("pid")
                self._running[index] = (pid, record.get("t", time.time()))
                self._last_pid[index] = pid
                worker = self._by_pid.get(pid)
                if worker is not None:
                    worker.started.add(index)
                bus_event(
                    "unit.start", index=index, unit=record.get("unit"), pid=pid
                )
            elif kind == "telemetry":
                # Worker metric/RSS deltas piggybacked on the heartbeat
                # channel (see _worker_analyze_chunk); forwarded to the
                # live bus, never interpreted here.
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
        """Replay one destructive fault firing against the master specs
        (the worker's own decrement died with it), so every later task
        carries what actually fired."""
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

    def _record(
        self, index: int, outcome: UnitOutcome, adjust: bool = True
    ) -> None:
        if self.slots[index] is not None:
            return  # settled already (a timeout, or a racing cache hit)
        if adjust:
            retries = self._crash_count[index] + self._timeout_count[index]
            if retries:
                outcome.attempts += retries
        self.slots[index] = outcome
        self._running.pop(index, None)
        bus_event("unit.done", index=index, outcome=outcome)

    def _adopt(self, index: int) -> bool:
        """Record a unit that completed in a worker but never shipped."""
        record = self._journal_done.get(index)
        if record is None:
            return False
        try:
            outcome = UnitOutcome.from_payload(record["outcome"])
        except (KeyError, TypeError, ValueError):
            return False
        outcome.worker_pid = record.get("pid")
        self.stats["journal_recovered"] += 1
        emit_event("supervisor.journal-recovered", unit=outcome.unit)
        self._record(index, outcome)
        return True

    def _timed_out(self, index: int, used: float) -> None:
        """Record a unit's ``timeout`` outcome (maps to exit 4)."""
        assert self.deadline is not None
        self.stats["timeouts"] += 1
        attempts = self._crash_count[index] + self._timeout_count[index]
        error = HardTimeout(self.deadline, used)
        name = self.units[index].name
        outcome = _failure(name, "timeout", error, attempts=attempts)
        self._record(index, outcome, adjust=False)

    def _crashed(
        self, index: int, pid: Optional[int], signum: Optional[int]
    ) -> None:
        """Record a quarantined unit's ``crashed`` outcome (exit 3)."""
        name = self.units[index].name
        error = WorkerCrash(name, pid=pid, signum=signum)
        attempts = self._crash_count[index] + 1
        outcome = _failure(name, "crashed", error, attempts=attempts)
        self._record(index, outcome, adjust=False)

    def _give_up(self) -> None:
        """Respawn budget exhausted: fail what's left, structurally."""
        for index in self._runnable():
            emit_event("supervisor.gave-up", unit=self.units[index].name)
            self._crashed(index, self._last_pid.get(index), None)
        self._queue.clear()
        self._retry.clear()
        self._suspects.clear()

    # -- the watchdog ------------------------------------------------------

    def _watchdog(self) -> None:
        if self.deadline is None:
            return
        now = time.time()
        for index, (pid, started) in list(self._running.items()):
            if self.slots[index] is not None:
                continue
            used = now - started
            if used <= self.deadline:
                continue
            self._running.pop(index, None)
            worker = self._by_pid.get(pid)
            if worker is not None:
                worker.killed.add(index)
            self._timeout_count[index] += 1
            self.stats["watchdog_kills"] += 1
            emit_event(
                "supervisor.watchdog-kill", unit=self.units[index].name,
                pid=pid, used_s=round(used, 3), limit_s=self.deadline,
            )
            if (worker is not None and worker.solo) or (
                self._timeout_count[index] > _TIMEOUT_RETRIES
            ):
                self._timed_out(index, used)
            if pid:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass


# ---------------------------------------------------------------------------
# The parallel sweep
# ---------------------------------------------------------------------------


def _run_batch_parallel(
    units: List[BatchUnit],
    config: SweepConfig,
    jobs: int,
    cache: Optional[AnalysisCache],
    keys: List[Optional[str]],
    chunk_size: Optional[int],
    journal: Optional[RunJournal],
    resumed_slots: Dict[int, UnitOutcome],
) -> Tuple[List[Optional[UnitOutcome]], Dict[str, int], bool]:
    """Analyze the misses in supervised workers, in the module's probe
    order, while the parent decodes the cache hits.

    Returns ``(slots, supervision_stats, interrupted)``.  A ``None``
    slot means the unit never ran (not dispatched after an early stop,
    or in flight when the sweep was interrupted); the caller turns those
    -- and, without ``keep_going``, every slot after the earliest hard
    failure -- into ``skipped`` outcomes.

    Cache stores wait until the workers are reaped and, without
    ``keep_going``, cover only units *before* the earliest hard failure:
    a result delivered after the stop is relabelled ``skipped``, and
    persisting it would let a warm re-run resurrect it (diverging from
    the serial cache state).  An interrupted sweep likewise persists
    only what its partial report carries.
    """
    slots: List[Optional[UnitOutcome]] = [None] * len(units)
    lookups: List[int] = []
    misses: List[int] = []
    present: Set[int] = set()
    for index in range(len(units)):
        if index in resumed_slots:
            slots[index] = resumed_slots[index]
            bus_event("unit.done", index=index, outcome=slots[index])
            continue
        if cache is not None and keys[index] is not None:
            lookups.append(index)
            if cache.present(keys[index]):
                present.add(index)
                continue
        misses.append(index)

    supervisor = BatchSupervisor(
        units=units, slots=slots, config=config, jobs=jobs,
        chunk_size=chunk_size, journal=journal, keys=keys,
    )
    try:
        try:
            supervisor.submit(misses)
            late: List[int] = []
            next_service = time.monotonic() + _DECODE_SLICE
            for index in lookups:
                hit = _cache_lookup(cache, keys[index], units[index])
                if hit is not None:
                    if slots[index] is None:
                        slots[index] = hit
                        bus_event("unit.done", index=index, outcome=hit)
                elif index in present:
                    late.append(index)
                if supervisor.workers and time.monotonic() >= next_service:
                    supervisor.service(0)
                    next_service = time.monotonic() + _DECODE_SLICE
            supervisor.submit(late)
            supervisor.run()
        except KeyboardInterrupt:
            supervisor.interrupt()
    finally:
        supervisor.close()

    first_failure = (
        None if config.keep_going else _first_hard_failure(slots)
    )
    for index in supervisor.to_run:
        outcome = slots[index]
        if outcome is None:
            continue
        if first_failure is None or index < first_failure:
            _cache_store(cache, keys[index], outcome)
    return slots, dict(supervisor.stats), supervisor.interrupted
