"""Supervision-layer tests: the crash/hang/resume recovery matrix.

The contract under test (see :mod:`repro.tool.supervise`): worker
processes dying (injected ``kill`` faults), units hanging past the hard
deadline (injected ``hang`` faults), and the parent itself being killed
mid-sweep must never lose completed results or wedge the sweep --
transient faults converge to the fault-free serial report (modulo
``attempts`` and supervision telemetry), persistent ones are quarantined
with structured ``crashed``/``timeout`` outcomes.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

import pytest

import repro.tool.supervise as supervise
from repro.tool.batch import BatchUnit, run_batch
from repro.tool.supervise import JOURNAL_SCHEMA_VERSION, RunJournal
from repro.util import faults
from repro.util.budget import ResourceBudget
from repro.workloads import figure, figure_units

from tests.tool.test_batch_parallel import normalized

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False


_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


def clone_unit(name, of="fig1"):
    """A uniquely named copy of a known-clean figure unit."""
    program = figure(of)
    return BatchUnit(
        name=name,
        source=program.full_source,
        filename=f"<{name}>",
        interface=program.interface,
        entry=program.entry,
    )


def chaos_normalized(result):
    """The batch JSON modulo everything faults may legitimately change.

    A recovered sweep matches the fault-free serial report except for
    retry counts (``attempts``) and the supervision telemetry block.
    """
    payload = normalized(result)
    payload.pop("supervision", None)
    for entry in payload["results"]:
        entry.pop("attempts", None)
    return payload


def _journal_files():
    pattern = os.path.join(tempfile.gettempdir(), "regionwiz-journal-*")
    return set(glob.glob(pattern))


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# The run journal
# ---------------------------------------------------------------------------


class TestRunJournal:
    def test_fresh_journal_writes_schema_header(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal(path)
        journal.close()
        records = RunJournal.load(path)
        assert records[0]["kind"] == "journal.open"
        assert records[0]["schema"] == JOURNAL_SCHEMA_VERSION

    def test_non_resume_truncates_previous_run(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        first = RunJournal(path)
        first.append({"kind": "unit.done", "unit": "a", "key": "k",
                      "outcome": {"unit": "a"}})
        first.close()
        second = RunJournal(path)  # resume not requested
        assert second.completed == {}
        second.close()
        kinds = [r["kind"] for r in RunJournal.load(path)]
        assert kinds == ["journal.open"]

    def test_resume_indexes_completed_outcomes(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        first = RunJournal(path)
        payload = {"unit": "a", "status": "clean", "exit_code": 0}
        first.append({"kind": "unit.done", "index": 0, "unit": "a",
                      "key": "k1", "outcome": payload})
        first.close()
        resumed = RunJournal(path, resume=True)
        assert resumed.completed[("a", "k1")] == payload
        resumed.close()

    def test_resume_with_wrong_schema_starts_fresh(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"kind": "journal.open", "schema": 999}))
            handle.write("\n")
            handle.write(json.dumps({"kind": "unit.done", "unit": "a",
                                     "key": "k", "outcome": {}}))
            handle.write("\n")
        journal = RunJournal(path, resume=True)
        assert journal.completed == {}
        journal.close()

    def test_tail_returns_only_new_complete_lines(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal(path)
        assert journal.tail() == []  # header already consumed
        with open(path, "a") as writer:
            writer.write(json.dumps({"kind": "unit.start", "index": 1}) + "\n")
            writer.write('{"torn": 1')  # no newline: a mid-write death
            writer.flush()
            records = journal.tail()
            assert [r["kind"] for r in records] == ["unit.start"]
            writer.write(', "index": 2}\n')
            writer.flush()
        assert [r["index"] for r in journal.tail()] == [2]
        journal.close()

    def test_load_skips_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind": "journal.open"}\n')
            handle.write("not json at all\n")
            handle.write('{"kind": "unit.start"}\n')
        kinds = [r["kind"] for r in RunJournal.load(path)]
        assert kinds == ["journal.open", "unit.start"]


class TestHardDeadline:
    def _hung_sweep(self, **settings):
        """fig1 plus a fig2c that hangs on every attempt."""
        faults.inject(
            "batch-unit", action="hang", unit="fig2c", delay_seconds=30.0
        )
        return run_batch(
            figure_units(["fig1", "fig2c"]),
            keep_going=True,
            jobs=2,
            **settings,
        )

    def test_explicit_hard_timeout_wins(self):
        result = self._hung_sweep(
            budget=ResourceBudget(wall_clock_seconds=100.0), hard_timeout=0.8
        )
        outcome = result.outcome("fig2c")
        assert outcome.status == "timeout"
        assert outcome.error_detail["limit"] == 0.8

    def test_deadline_derived_from_budget(self):
        assert ResourceBudget(wall_clock_seconds=2.0).hard_deadline() == 8.0
        # No hard_timeout: the budget's wall clock arms the watchdog.
        result = self._hung_sweep(
            budget=ResourceBudget(wall_clock_seconds=0.25)
        )
        outcome = result.outcome("fig2c")
        assert outcome.status == "timeout"
        assert outcome.error_detail["limit"] == 1.0

    def test_no_budget_no_timeout_means_no_watchdog(self):
        assert ResourceBudget().hard_deadline() is None
        assert ResourceBudget(max_contexts=10).hard_deadline() is None


# ---------------------------------------------------------------------------
# Worker-loss recovery
# ---------------------------------------------------------------------------


class TestWorkerLossRecovery:
    def test_transient_kill_converges_to_serial_report(self):
        units = figure_units(["fig1", "fig2a", "fig2c"])
        serial = run_batch(units, keep_going=True)
        faults.inject("batch-unit", action="kill", unit="fig2a", times=1)
        parallel = run_batch(units, keep_going=True, jobs=2)
        assert chaos_normalized(serial) == chaos_normalized(parallel)
        assert parallel.supervision["respawns"] >= 1
        assert parallel.outcome("fig2a").attempts >= 2

    def test_no_unit_is_lost_when_a_worker_dies(self):
        units = figure_units(["fig1", "fig2a", "fig2c", "fig3", "fig5"])
        faults.inject("batch-unit", action="kill", unit="fig3", times=1)
        result = run_batch(
            units, keep_going=True, jobs=2, chunk_size=2
        )
        assert len(result.outcomes) == len(units)
        assert all(o.ok for o in result.outcomes)
        assert [o.unit for o in result.outcomes] == [u.name for u in units]

    def test_poison_pill_is_bisected_and_quarantined(self):
        units = figure_units(["fig1", "fig2a", "fig2c"])
        faults.inject("batch-unit", action="kill", unit="fig2a")
        result = run_batch(units, keep_going=True, jobs=2)
        outcome = result.outcome("fig2a")
        assert outcome.status == "crashed"
        assert outcome.exit_code == 3
        assert outcome.error_type == "WorkerCrash"
        assert outcome.error_detail["signal"] == signal.SIGKILL
        assert outcome.error_detail["signal_name"] == "SIGKILL"
        assert outcome.error_detail["pid"]
        assert result.supervision["quarantined"] == 1
        # Innocent pool-mates of the poison pill still complete.
        assert result.outcome("fig1").ok
        assert result.outcome("fig2c").ok
        assert result.exit_code() == 3

    def test_quarantine_respects_early_stop_semantics(self):
        units = figure_units(["fig1", "fig2a", "fig2c"])
        faults.inject("batch-unit", action="kill", unit="fig2a")
        result = run_batch(units, keep_going=False, jobs=2)
        assert result.outcome("fig2a").status == "crashed"
        # Everything after the quarantined unit reads skipped, exactly
        # as if a serial run had crashed there.
        assert result.outcome("fig2c").status == "skipped"
        assert result.outcome("fig1").ok

    def test_completed_results_adopted_from_journal_not_rerun(self):
        # fig1 and the killer ride in the same chunk: fig1 completes,
        # then the worker dies.  fig1's outcome must be adopted from the
        # journal, not re-analyzed on the respawned pool.
        units = [
            *figure_units(["fig1"]),
            clone_unit("killer"),
            *figure_units(["fig2c"]),
        ]
        faults.inject("batch-unit", action="kill", unit="killer", times=1)
        result = run_batch(
            units, keep_going=True, jobs=2, chunk_size=2
        )
        assert all(o.ok for o in result.outcomes)
        assert result.supervision.get("journal_recovered", 0) >= 1

    def test_a_crash_is_charged_only_to_its_own_worker(self):
        # chunk_size=1 over two equal units: "killer" dies in one worker
        # while "slow" runs in the other.  Only the killer is retried;
        # the slow unit's worker is untouched.
        units = [clone_unit("slow"), clone_unit("killer")]
        faults.inject(
            "batch-unit", action="delay", unit="slow", delay_seconds=1.0
        )
        serial = run_batch(units, keep_going=True)
        faults.inject("batch-unit", action="kill", unit="killer", times=1)
        parallel = run_batch(units, keep_going=True, jobs=2, chunk_size=1)
        assert chaos_normalized(serial) == chaos_normalized(parallel)
        assert parallel.outcome("slow").attempts == 1
        assert parallel.outcome("killer").attempts == 2
        assert parallel.supervision["respawns"] >= 1
        assert (
            parallel.outcome("slow").worker_pid
            != parallel.outcome("killer").worker_pid
        )

    def test_chunk_function_failure_fails_its_chunk(self, monkeypatch):
        # The chunk function itself raises, outside per-unit isolation:
        # every unit of that chunk gets a structured internal-error
        # outcome, and the other chunk and the sweep still finish.
        analyze = supervise._analyze_unit

        def broken_on_c(unit, config):
            if unit.name == "c":
                raise RuntimeError("chunk plumbing broke")
            return analyze(unit, config)

        monkeypatch.setattr(supervise, "_analyze_unit", broken_on_c)
        units = [clone_unit(name) for name in "abcd"]
        result = run_batch(units, keep_going=True, jobs=2, chunk_size=2)
        assert [o.status for o in result.outcomes] == [
            "clean", "clean", "internal-error", "internal-error"
        ]
        for name in "cd":
            outcome = result.outcome(name)
            assert outcome.exit_code == 3
            assert outcome.error_type == "RuntimeError"
            assert outcome.error.startswith("worker process failed:")
        assert result.exit_code() == 3


# ---------------------------------------------------------------------------
# The hung-unit watchdog
# ---------------------------------------------------------------------------


class TestWatchdog:
    def test_transient_hang_is_killed_and_retried(self):
        units = figure_units(["fig1", "fig2a", "fig2c"])
        serial = run_batch(units, keep_going=True)
        faults.inject(
            "batch-unit", action="hang", unit="fig2c", times=1,
            delay_seconds=30.0,
        )
        parallel = run_batch(
            units,
            keep_going=True,
            jobs=2,
            hard_timeout=1.0,
        )
        assert chaos_normalized(serial) == chaos_normalized(parallel)
        assert parallel.supervision["watchdog_kills"] >= 1
        assert parallel.outcome("fig2c").attempts >= 2

    def test_persistent_hang_records_timeout_outcome(self):
        units = figure_units(["fig1", "fig2c"])
        faults.inject(
            "batch-unit", action="hang", unit="fig2c", delay_seconds=30.0
        )
        result = run_batch(
            units,
            keep_going=True,
            jobs=2,
            hard_timeout=0.8,
        )
        outcome = result.outcome("fig2c")
        assert outcome.status == "timeout"
        assert outcome.exit_code == 4
        assert outcome.error_type == "HardTimeout"
        assert outcome.error_detail["resource"] == "hard_wall_clock"
        assert result.outcome("fig1").ok
        assert result.exit_code() == 4
        assert result.supervision["timeouts"] == 1

    def test_no_deadline_means_no_watchdog_kills(self):
        units = figure_units(["fig1", "fig2a"])
        result = run_batch(units, keep_going=True, jobs=2)
        assert result.supervision is None
        assert all(o.ok for o in result.outcomes)


# ---------------------------------------------------------------------------
# Resumable sweeps
# ---------------------------------------------------------------------------


class TestResume:
    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="journal"):
            run_batch(figure_units(["fig1"]), resume=True)

    def test_resume_after_parent_killed_mid_sweep(self, tmp_path):
        # The acceptance scenario: a *serial* sweep's parent process is
        # SIGKILLed (via a kill fault) after two units complete.  A new
        # parent with --resume must replay those two from the journal
        # and re-analyze only the rest.
        journal = str(tmp_path / "run.jsonl")
        child = textwrap.dedent(
            """
            import sys
            from repro.tool.batch import run_batch
            from repro.util import faults
            from repro.workloads import figure_units

            units = figure_units(["fig1", "fig2a", "fig2c", "fig3"])
            faults.inject("batch-unit", action="kill", unit="fig2c")
            run_batch(units, keep_going=True, journal=sys.argv[1])
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-c", child, journal],
            env=env,
            cwd=_REPO_ROOT,
            capture_output=True,
        )
        assert proc.returncode == -signal.SIGKILL
        units = figure_units(["fig1", "fig2a", "fig2c", "fig3"])
        result = run_batch(
            units, keep_going=True, journal=journal, resume=True
        )
        assert [o.resumed for o in result.outcomes] == [
            True, True, False, False
        ]
        assert all(o.ok for o in result.outcomes)
        assert result.supervision["resumed"] == 2

    def test_resume_skips_only_matching_content(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        units = figure_units(["fig1", "fig2a"])
        first = run_batch(units, keep_going=True, journal=journal)
        assert all(not o.resumed for o in first.outcomes)
        # Unchanged corpus: everything replays.
        again = run_batch(
            units, keep_going=True, journal=journal, resume=True
        )
        assert all(o.resumed for o in again.outcomes)
        # Change one unit's source: only it re-analyzes.
        changed = [
            units[0],
            BatchUnit(
                name=units[1].name,
                source=units[1].source + "\n/* touched */\n",
                filename=units[1].filename,
                interface=units[1].interface,
                entry=units[1].entry,
            ),
        ]
        result = run_batch(
            changed, keep_going=True, journal=journal, resume=True
        )
        assert result.outcomes[0].resumed
        assert not result.outcomes[1].resumed
        assert all(o.ok for o in result.outcomes)

    def test_resumed_outcomes_marked_in_json(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        units = figure_units(["fig1"])
        run_batch(units, journal=journal)
        result = run_batch(units, journal=journal, resume=True)
        payload = json.loads(result.to_json())
        assert payload["results"][0]["resumed"] is True
        assert payload["supervision"] == {"resumed": 1}

    def test_parallel_resume_replays_journal(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        units = figure_units(["fig1", "fig2a", "fig2c"])
        run_batch(units, keep_going=True, jobs=2, journal=journal)
        result = run_batch(
            units, keep_going=True, jobs=2, journal=journal, resume=True
        )
        assert all(o.resumed for o in result.outcomes)


# ---------------------------------------------------------------------------
# Interrupt drain (SIGINT/SIGTERM)
# ---------------------------------------------------------------------------


class TestInterruptDrain:
    def _interrupt_sweep(self, jobs, tmp_path):
        """SIGTERM a sweep stuck on a hanging unit; return its output."""
        out = str(tmp_path / f"out-{jobs}.json")
        child = textwrap.dedent(
            """
            import json, os, sys
            from repro.tool.batch import run_batch
            from repro.util import faults
            from repro.workloads import figure_units

            jobs, out = int(sys.argv[1]), sys.argv[2]
            units = figure_units(["fig1", "fig2a", "fig2c"])
            faults.inject(
                "batch-unit", action="hang", unit="fig2c",
                delay_seconds=60.0,
            )
            result = run_batch(units, keep_going=True, jobs=jobs)
            with open(out, "w") as handle:
                handle.write(result.to_json())
            try:
                os.waitpid(-1, os.WNOHANG)
                leftover = "a child process is left"
            except ChildProcessError:
                leftover = ""
            with open(out + ".leftover", "w") as handle:
                handle.write(leftover)
            sys.exit(130 if result.interrupted else 0)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-c", child, str(jobs), out],
            env=env,
            cwd=_REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # Give the sweep time to start, analyze the quick units, and
        # wedge on the hanging one (figure units analyze in ~10ms; the
        # slack is interpreter + pool startup on a loaded machine).
        time.sleep(4.0)
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
        return proc.returncode, out

    def test_parallel_interrupt_writes_partial_results_and_exits_130(
        self, tmp_path
    ):
        journals = _journal_files()
        returncode, out = self._interrupt_sweep(2, tmp_path)
        assert returncode == 130
        # The drain reaped every worker and removed its throwaway journal.
        assert open(out + ".leftover").read() == ""
        assert _journal_files() <= journals
        payload = json.loads(open(out).read())
        assert payload["interrupted"] is True
        # The hanging unit never finished; completed units are present,
        # the rest are skipped -- nothing is silently dropped.
        assert len(payload["results"]) == 3
        by_unit = {entry["unit"]: entry for entry in payload["results"]}
        assert by_unit["fig2c"]["status"] == "skipped"

    def test_serial_interrupt_writes_partial_results_and_exits_130(
        self, tmp_path
    ):
        returncode, out = self._interrupt_sweep(1, tmp_path)
        assert returncode == 130
        payload = json.loads(open(out).read())
        assert payload["interrupted"] is True
        by_unit = {entry["unit"]: entry for entry in payload["results"]}
        # Serial order: fig1 and fig2a completed before the hang.
        assert by_unit["fig1"]["status"] == "clean"
        assert by_unit["fig2a"]["status"] == "clean"
        assert by_unit["fig2c"]["status"] == "skipped"


# ---------------------------------------------------------------------------
# No process or journal is left behind
# ---------------------------------------------------------------------------


class TestNoLeftovers:
    """After a parallel sweep the caller has no child process and no
    throwaway journal left (the interrupt drain is checked in
    :class:`TestInterruptDrain`)."""

    @pytest.mark.parametrize(
        "fault, settings",
        [
            (None, {}),
            ({"action": "kill", "unit": "fig2a", "times": 1}, {}),
            ({"action": "kill", "unit": "fig2a"}, {}),
            (
                {"action": "hang", "unit": "fig2c", "delay_seconds": 30.0},
                {"hard_timeout": 0.8},
            ),
        ],
        ids=["clean", "transient-kill", "poison-pill", "watchdog-kill"],
    )
    def test_every_worker_is_reaped(self, fault, settings):
        assert_no_children()
        before = _journal_files()
        if fault is not None:
            faults.inject("batch-unit", **fault)
        result = run_batch(
            figure_units(["fig1", "fig2a", "fig2c"]),
            keep_going=True,
            jobs=2,
            **settings,
        )
        assert len(result.outcomes) == 3
        assert_no_children()
        assert _journal_files() <= before


# ---------------------------------------------------------------------------
# The chaos property: injected kills/hangs converge to the serial report
# ---------------------------------------------------------------------------


if HAVE_HYPOTHESIS:

    _POOL = ("fig1", "fig2a", "fig2c", "kill", "hang")

    @st.composite
    def chaos_corpora(draw):
        picks = draw(
            st.lists(st.sampled_from(_POOL), min_size=1, max_size=4)
        )
        jobs = draw(st.integers(min_value=2, max_value=3))
        units, specs = [], []
        for number, pick in enumerate(picks):
            if pick in ("kill", "hang"):
                name = f"{pick}-{number}"
                units.append(clone_unit(name))
                specs.append((pick, name))
            else:
                unit = figure_units([pick])[0]
                units.append(
                    BatchUnit(
                        name=f"{unit.name}-{number}",
                        source=unit.source,
                        filename=unit.filename,
                        interface=unit.interface,
                        entry=unit.entry,
                    )
                )
        return units, specs, jobs

    class TestChaosProperty:
        @settings(
            max_examples=5,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(chaos_corpora())
        def test_transient_faults_converge_to_fault_free_serial(
            self, corpus
        ):
            units, specs, jobs = corpus
            faults.clear()
            serial = run_batch(units, keep_going=True)
            for action, name in specs:
                faults.inject(
                    "batch-unit",
                    action=action,
                    unit=name,
                    times=1,
                    delay_seconds=30.0,
                )
            try:
                parallel = run_batch(
                    units,
                    keep_going=True,
                    jobs=jobs,
                    hard_timeout=1.0,
                )
            finally:
                faults.clear()
            assert chaos_normalized(serial) == chaos_normalized(parallel)
            assert all(o.ok for o in parallel.outcomes)
