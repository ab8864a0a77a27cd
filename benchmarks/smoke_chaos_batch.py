"""CI chaos smoke: the batch supervisor under kill/hang faults.

Sweeps the six-package corpus through the supervised parallel executor
once fault-free (the reference) and then under faults, and asserts the
crash-proofing contract end to end:

1. **Chaos convergence** -- one unit's worker is SIGKILLed mid-unit and
   another unit hangs past the hard deadline (both transient,
   ``times=1``).  The supervisor must respawn the pool, watchdog-kill
   the hung worker, retry both units, and converge to exactly the
   fault-free report: zero lost units, identical warning sets, exit 0.
2. **Quarantine** -- one unit SIGKILLs its worker on *every* attempt (a
   poison pill).  Retry and solo bisection must fail, leaving one
   ``crashed`` outcome carrying pid/signal detail, every innocent unit
   completed, and the batch folded to exit 3.

After every sweep no worker process may be left: this process must
have no child, running or unreaped.

The fault-free cost of supervision is guarded elsewhere: every parallel
sweep is supervised, so ``bench_batch_parallel.py``'s speedup gate
measures it.

Headline numbers land in ``BENCH_batch_supervision.json`` (one
trajectory entry per run) for cross-PR trajectory plots.

Usage: ``PYTHONPATH=src python benchmarks/smoke_chaos_batch.py``
"""

from __future__ import annotations

import os
import signal
import sys
import time

from repro.tool.batch import BatchResult, run_batch
from repro.util import faults
from repro.workloads import PACKAGES, package_units

JOBS = 2


def warning_sets(result: BatchResult):
    return [(o.unit, o.status, o.warning_lines) for o in result.outcomes]


def check_no_lost_units(result: BatchResult, units, failures, label: str):
    if len(result.outcomes) != len(units):
        failures.append(
            f"{label}: {len(result.outcomes)} outcome(s) for"
            f" {len(units)} unit(s) -- units were lost"
        )


def check_reaped(failures, label: str):
    """Fail ``label`` if any child process of this one is left over."""
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all: every worker was reaped
    state = "still running" if pid == 0 else f"unreaped (pid {pid})"
    failures.append(f"{label}: a worker process was left behind, {state}")


def main() -> int:
    units = [unit for model in PACKAGES for unit in package_units(model)]
    names = [u.name for u in units]
    kill_victim, hang_victim, poison = names[0], names[1], names[2]
    print(
        f"chaos smoke: {len(units)} unit(s), jobs={JOBS};"
        f" kill={kill_victim} hang={hang_victim} poison={poison}"
    )
    failures: list = []

    # The fault-free reference every chaos sweep must converge to.
    t0 = time.perf_counter()
    reference = run_batch(units, keep_going=True, jobs=JOBS)
    t_sup = time.perf_counter() - t0
    check_no_lost_units(reference, units, failures, "fault-free")
    check_reaped(failures, "fault-free")
    print(f"fault-free: {t_sup:.2f}s, exit {reference.exit_code()}")

    # Size the hard deadline off the observed fault-free unit times so a
    # slow CI runner never trips the watchdog on an honest unit.
    # (10x the slowest honest unit, clamped: the hung unit costs one
    # full deadline of wall clock before the watchdog reaps it).
    slowest = max(o.elapsed for o in reference.outcomes)
    hard_timeout = max(2.0, min(10.0, 10.0 * slowest))

    # Phase 1: one transient worker-kill, one transient hang -- run as
    # separate sweeps so each recovery path is exercised deterministically
    # (a broken pool's teardown would kill a concurrently hanging worker
    # before the watchdog gets a look at it).
    t0 = time.perf_counter()
    with faults.injected(
        "batch-unit", unit=kill_victim, action="kill", times=1
    ):
        killed = run_batch(units, keep_going=True, jobs=JOBS)
    check_reaped(failures, "kill-chaos")
    with faults.injected(
        "batch-unit",
        unit=hang_victim,
        action="hang",
        delay_seconds=3600.0,
        times=1,
    ):
        hung = run_batch(
            units,
            keep_going=True,
            jobs=JOBS,
            hard_timeout=hard_timeout,
        )
    check_reaped(failures, "hang-chaos")
    t_chaos = time.perf_counter() - t0
    respawns = (killed.supervision or {}).get("respawns", 0)
    watchdog_kills = (hung.supervision or {}).get("watchdog_kills", 0)
    for label, chaos in (("kill-chaos", killed), ("hang-chaos", hung)):
        check_no_lost_units(chaos, units, failures, label)
        if warning_sets(chaos) != warning_sets(reference):
            failures.append(
                f"{label} sweep did not converge to fault-free report"
            )
        if chaos.exit_code() != reference.exit_code():
            failures.append(
                f"{label} exit {chaos.exit_code()} !="
                f" fault-free {reference.exit_code()}"
            )
    if respawns < 1:
        failures.append("kill-chaos sweep never respawned the pool")
    if watchdog_kills < 1:
        failures.append("watchdog never fired on the hung unit")
    print(
        f"chaos: converged in {t_chaos:.2f}s"
        f" (respawns={respawns}, watchdog kills={watchdog_kills})"
    )

    # Phase 2: a poison pill is quarantined, innocents complete.
    with faults.injected("batch-unit", unit=poison, action="kill"):
        pilled = run_batch(units, keep_going=True, jobs=JOBS)
    check_reaped(failures, "quarantine")
    check_no_lost_units(pilled, units, failures, "quarantine")
    crashed = pilled.outcome(poison)
    if crashed.status != "crashed":
        failures.append(
            f"poison pill reported {crashed.status!r}, expected 'crashed'"
        )
    elif (
        "SIGKILL" not in (crashed.error_detail or {}).get("signal_name", "")
        and (crashed.error_detail or {}).get("signal") != signal.SIGKILL
    ):
        failures.append("crashed outcome lacks its SIGKILL attribution")
    innocents = [o for o in pilled.outcomes if o.unit != poison]
    if not all(o.ok for o in innocents):
        bad = [o.unit for o in innocents if not o.ok]
        failures.append(f"innocent unit(s) lost to the poison pill: {bad}")
    if pilled.exit_code() != 3:
        failures.append(
            f"quarantine batch exit {pilled.exit_code()}, expected 3"
        )
    quarantined = (pilled.supervision or {}).get("quarantined", 0)
    print(
        f"quarantine: {poison} crashed"
        f" ({len(innocents)}/{len(units) - 1} innocents ok,"
        f" quarantined={quarantined})"
    )

    try:
        from conftest import record_bench

        record_bench(
            "batch_supervision",
            units=len(units),
            jobs=JOBS,
            supervised_s=round(t_sup, 3),
            chaos_s=round(t_chaos, 3),
            respawns=respawns,
            watchdog_kills=watchdog_kills,
            quarantined=quarantined,
        )
    except ImportError:
        pass  # direct invocation from another cwd

    if failures:
        for failure in failures:
            print(f"chaos smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
