"""Live fleet telemetry for batch sweeps (``--live``).

A paper-scale ``--batch --jobs N`` sweep used to be a black box until
the final JSON landed.  This module adds the operational layer on top of
the supervision machinery that already exists:

* :class:`TelemetryBus` -- the parent-side accumulator.  It is fed from
  three places, none of which add work to the analysis hot path:

  - **parent hooks** (:func:`~repro.obs.hub.bus_event`): the batch
    scheduler announces the sweep (``batch.start`` with every unit's
    source size -- the same byte proxy the LPT dispatch plan
    load-balances on), each completed outcome (``unit.done``), and
    the supervisor's poll loop (``tick`` with the live
    respawn/watchdog counters);
  - **worker deltas**: workers piggyback one small ``telemetry`` record
    per completed unit on the run-journal heartbeat channel (peak RSS,
    CPU seconds, pid); the supervisor's journal tail forwards them as
    ``worker.delta`` events.  Records are treated as *partial* -- a
    worker that died before its first flush simply contributes nothing;
  - **snapshots** (:meth:`TelemetryBus.snapshot`): a flat dotted-name
    dict in the :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`
    shape, served live by the ``--metrics-port`` endpoint and written by
    ``--metrics-out``.  The progress keys (``batch.units_done``,
    ``cache.hits``, ``supervision.respawns``, ...) are always present --
    a scraper sees ``0``, never a gap.

* :class:`LiveView` -- the rate-limited ``--live`` stderr renderer: a
  single rewritten status line on a TTY, plain periodic log lines
  otherwise (CI logs stay readable).  ETA is remaining corpus bytes over
  the observed completed-bytes throughput -- bytes, not unit counts,
  because LPT dispatch runs the big units first and a unit-count ETA
  would be wildly optimistic early and pessimistic late.

The batch scheduler calls :func:`repro.obs.hub.bus_event`
unconditionally; it feeds the bus of the installed
:class:`~repro.obs.hub.Hub` and is a no-op when that hub has none
(``benchmarks/smoke_live_telemetry.py`` holds that path under 3%).
"""

from __future__ import annotations

import secrets
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, TextIO

__all__ = ["new_run_id", "TelemetryBus", "LiveView"]


def new_run_id() -> str:
    """A short random hex run id (parent-generated, threaded everywhere).

    Eight hex chars: long enough that joining registry rows, journals,
    event streams, and Chrome traces by id is unambiguous within any
    real fleet's retention window, short enough to read aloud.
    """
    return secrets.token_hex(4)


class TelemetryBus:
    """Parent-side accumulator for one run's live telemetry.

    Thread-safe: the batch scheduler feeds it from the main thread while
    the ``--metrics-port`` HTTP server reads :meth:`snapshot` from its
    serving thread.  Every handler tolerates missing fields -- a worker
    that died before its first flush, a torn journal record, or an
    outcome without metrics must never take the view down.
    """

    def __init__(self, run_id: Optional[str] = None, jobs: int = 1) -> None:
        self.run_id = run_id or new_run_id()
        self.jobs = jobs
        self.started_at = time.perf_counter()
        self._lock = threading.Lock()
        self._view: Optional[Callable[[str], None]] = None
        # Progress.
        self._total_units = 0
        self._sizes: List[int] = []
        self._done = 0
        self._failed = 0
        self._cached = 0
        self._warnings = 0
        self._high = 0
        self._bytes_done = 0
        self._bytes_total = 0
        self._done_indices: set = set()
        self._in_flight: Dict[int, str] = {}
        self._finished = False
        # Supervision counters (mirrored from the supervisor's stats).
        self._supervision: Dict[str, int] = {}
        # Worker deltas: pid -> {"rss_kb": ..., "cpu_s": ...}.
        self._workers: Dict[int, Dict[str, float]] = {}

    # -- feeding -----------------------------------------------------------

    def attach(self, view: "LiveView") -> None:
        """Attach a renderer notified after every handled event."""
        self._view = view.notify

    def handle(self, kind: str, **fields: Any) -> None:
        """Dispatch one bus event (what ``bus_event`` calls)."""
        with self._lock:
            if kind == "batch.start":
                self._start(fields)
            elif kind == "unit.start":
                index = fields.get("index")
                if isinstance(index, int):
                    self._in_flight[index] = str(fields.get("unit", "?"))
            elif kind == "unit.done":
                self._unit_done(fields)
            elif kind == "worker.delta":
                self._worker_delta(fields.get("record") or {})
            elif kind == "tick":
                stats = fields.get("stats")
                if stats:
                    self._supervision.update(
                        {str(k): int(v) for k, v in dict(stats).items()}
                    )
            elif kind == "batch.end":
                self._finished = True
        view = self._view
        if view is not None:
            view(kind)

    def _start(self, fields: Mapping[str, Any]) -> None:
        self._total_units = int(fields.get("total", 0))
        sizes = fields.get("sizes") or []
        self._sizes = [int(size) for size in sizes]
        self._bytes_total = sum(self._sizes)
        self.jobs = int(fields.get("jobs", self.jobs))
        self.started_at = time.perf_counter()

    def _unit_done(self, fields: Mapping[str, Any]) -> None:
        index = fields.get("index")
        if isinstance(index, int):
            if index in self._done_indices:
                return  # a retried unit reports once
            self._done_indices.add(index)
            self._in_flight.pop(index, None)
            if 0 <= index < len(self._sizes):
                self._bytes_done += self._sizes[index]
        self._done += 1
        outcome = fields.get("outcome")
        if outcome is None:
            return
        if getattr(outcome, "cached", False):
            self._cached += 1
        if not getattr(outcome, "ok", False):
            self._failed += 1
        self._warnings += int(getattr(outcome, "warnings", 0) or 0)
        self._high += int(getattr(outcome, "high", 0) or 0)

    def _worker_delta(self, record: Mapping[str, Any]) -> None:
        """Fold one worker telemetry record (every field optional)."""
        pid = record.get("pid")
        if not isinstance(pid, int):
            return
        worker = self._workers.setdefault(pid, {})
        rss = record.get("rss_kb")
        if isinstance(rss, (int, float)):
            worker["rss_kb"] = max(worker.get("rss_kb", 0.0), float(rss))
        cpu = record.get("cpu_s")
        if isinstance(cpu, (int, float)):
            # process_time is monotone per process; keep the latest.
            worker["cpu_s"] = float(cpu)

    # -- reading -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    def elapsed(self) -> float:
        return time.perf_counter() - self.started_at

    def eta_seconds(self) -> Optional[float]:
        """Remaining bytes over observed byte throughput (None: unknown)."""
        with self._lock:
            bytes_done, bytes_total = self._bytes_done, self._bytes_total
        if bytes_done <= 0 or bytes_total <= 0:
            return None
        elapsed = self.elapsed()
        if elapsed <= 0:
            return None
        rate = bytes_done / elapsed
        if rate <= 0:
            return None
        return max(0.0, (bytes_total - bytes_done) / rate)

    def snapshot(self) -> Dict[str, Any]:
        """A flat metrics dict of the fleet's current state.

        The progress keys are always present (zeros included) so the
        ``/metrics`` exposition never has gaps mid-scrape.
        """
        eta = self.eta_seconds()
        with self._lock:
            elapsed = self.elapsed()
            payload: Dict[str, Any] = {
                "batch.units_total": self._total_units,
                "batch.units_done": self._done,
                "batch.units_failed": self._failed,
                "batch.units_in_flight": len(self._in_flight),
                "batch.warnings": self._warnings,
                "batch.high": self._high,
                "cache.hits": self._cached,
                "supervision.respawns": self._supervision.get(
                    "respawns", 0
                ),
                "supervision.watchdog_kills": self._supervision.get(
                    "watchdog_kills", 0
                ),
                "supervision.timeouts": self._supervision.get(
                    "timeouts", 0
                ),
                "supervision.quarantined": self._supervision.get(
                    "quarantined", 0
                ),
                "progress.bytes_total": self._bytes_total,
                "progress.bytes_done": self._bytes_done,
                "progress.elapsed_s": round(elapsed, 3),
                "run.jobs": self.jobs,
                "run.finished": 1 if self._finished else 0,
            }
            if elapsed > 0 and self._done:
                payload["throughput.units_per_s"] = round(
                    self._done / elapsed, 6
                )
            if eta is not None:
                payload["progress.eta_s"] = round(eta, 3)
            if self._workers:
                payload["workers.seen"] = len(self._workers)
                rss = [
                    w["rss_kb"] for w in self._workers.values()
                    if "rss_kb" in w
                ]
                if rss:
                    payload["workers.rss_kb_max"] = max(rss)
                cpu = [
                    w["cpu_s"] for w in self._workers.values()
                    if "cpu_s" in w
                ]
                if cpu:
                    payload["workers.cpu_s_total"] = round(sum(cpu), 6)
        return dict(sorted(payload.items()))

    def status_line(self) -> str:
        """One human line of the current state (the ``--live`` view)."""
        snap = self.snapshot()
        done = snap["batch.units_done"]
        total = snap["batch.units_total"]
        parts = [f"run {self.run_id}: {done}/{total} unit(s)"]
        rate = snap.get("throughput.units_per_s")
        if rate:
            parts.append(f"{rate:.2f}/s")
        if total and done:
            hits = snap["cache.hits"]
            parts.append(f"cache {100.0 * hits / done:.0f}%")
        eta = snap.get("progress.eta_s")
        if eta is not None and not self._finished:
            parts.append(f"eta {eta:.0f}s")
        if snap["batch.units_failed"]:
            parts.append(f"failed {snap['batch.units_failed']}")
        respawns = snap["supervision.respawns"]
        kills = snap["supervision.watchdog_kills"]
        if respawns or kills:
            parts.append(f"respawns {respawns} watchdog {kills}")
        rss = snap.get("workers.rss_kb_max")
        if rss:
            parts.append(f"rss {rss / 1024.0:.0f}MB")
        if self._finished:
            parts.append(f"done in {snap['progress.elapsed_s']:.1f}s")
        return "  ".join(parts)


class LiveView:
    """Rate-limited stderr rendering of a :class:`TelemetryBus`.

    On a TTY the status line is rewritten in place (``\\r``, erased on
    close so the final report starts on a clean line); on anything else
    (CI logs, pipes) a plain ``live: ...`` line is printed at a slower
    cadence so the log stays scannable.
    """

    #: Minimum seconds between repaints on a TTY.
    TTY_INTERVAL = 0.5
    #: Minimum seconds between plain log lines off-TTY.
    PLAIN_INTERVAL = 5.0

    def __init__(
        self,
        bus: TelemetryBus,
        stream: Optional[TextIO] = None,
        interval: Optional[float] = None,
    ) -> None:
        import sys

        self.bus = bus
        self.stream = stream if stream is not None else sys.stderr
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self._tty = False
        if interval is not None:
            self._interval = interval
        else:
            self._interval = (
                self.TTY_INTERVAL if self._tty else self.PLAIN_INTERVAL
            )
        self._last_render = 0.0
        self._last_width = 0
        self._closed = False

    def notify(self, kind: str) -> None:
        """Bus callback: repaint if the rate limit allows (or on end)."""
        if self._closed:
            return
        now = time.perf_counter()
        force = kind == "batch.end"
        if not force and now - self._last_render < self._interval:
            return
        self._last_render = now
        self.render()

    def render(self) -> None:
        line = self.bus.status_line()
        try:
            if self._tty:
                pad = max(0, self._last_width - len(line))
                self.stream.write("\r" + line + " " * pad)
                self._last_width = len(line)
            else:
                self.stream.write(f"live: {line}\n")
            self.stream.flush()
        except (OSError, ValueError):
            self._closed = True  # stream gone: stop rendering quietly

    def close(self) -> None:
        """Final render plus a newline so later output starts clean."""
        if self._closed:
            return
        self.render()
        self._closed = True
        try:
            if self._tty:
                self.stream.write("\n")
                self.stream.flush()
        except (OSError, ValueError):
            pass

