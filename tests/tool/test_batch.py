"""Tests for the fault-isolated batch driver."""

import json

import pytest

from repro.tool.batch import BatchUnit, run_batch
from repro.util import faults
from repro.workloads import figure, figure_units, package, package_units


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


def poison_unit(name):
    """A unit whose source cannot parse."""
    return BatchUnit(name=name, source="int main( {", filename=f"<{name}>")


class TestBatchUnits:
    def test_figure_units_cover_the_corpus(self):
        units = figure_units()
        assert [u.name for u in units][:2] == ["fig1", "fig2a"]
        assert all(u.source for u in units)

    def test_interface_auto_detected_from_rc_filename(self):
        unit = BatchUnit(name="x", source="", filename="prog.rc")
        assert unit.effective_interface == "rc"
        assert unit.region_interface().name == "rc"

    def test_interface_defaults_to_apr(self):
        unit = BatchUnit(name="x", source="", filename="prog.c")
        assert unit.effective_interface == "apr"
        assert BatchUnit(name="y", source="").effective_interface == "apr"

    def test_explicit_interface_wins_over_filename(self):
        unit = BatchUnit(
            name="x", source="", filename="prog.rc", interface="apr"
        )
        assert unit.effective_interface == "apr"

    def test_figure_units_by_name(self):
        units = figure_units(["fig2c", "fig1"])
        assert [u.name for u in units] == ["fig2c", "fig1"]

    def test_package_units_are_namespaced(self):
        model = package("subversion")
        units = package_units(model)
        assert len(units) == len(model.executables)
        assert all(u.name.startswith("subversion/") for u in units)


class TestRunBatch:
    def test_all_clean_figures(self):
        result = run_batch(figure_units(["fig1", "fig2a"]))
        assert result.exit_code() == 0
        assert [o.status for o in result.outcomes] == ["clean", "clean"]

    def test_warnings_yield_exit_one(self):
        result = run_batch(figure_units(["fig1", "fig2c"]))
        assert result.exit_code() == 1
        assert result.outcome("fig2c").status == "warnings"
        assert result.outcome("fig2c").high >= 1

    def test_input_error_is_isolated(self):
        units = [poison_unit("bad"), *figure_units(["fig1"])]
        result = run_batch(units, keep_going=True)
        assert result.outcome("bad").status == "input-error"
        assert result.outcome("bad").exit_code == 2
        assert result.outcome("fig1").status == "clean"
        assert result.exit_code() == 2

    def test_stop_on_failure_without_keep_going(self):
        units = [poison_unit("bad"), *figure_units(["fig1", "fig2a"])]
        result = run_batch(units, keep_going=False)
        assert result.outcome("bad").status == "input-error"
        assert result.outcome("fig1").status == "skipped"
        assert result.outcome("fig2a").status == "skipped"
        # Skipped units do not dilute the exit code.
        assert result.exit_code() == 2

    def test_skipped_units_get_no_exit_code(self):
        # A stopped sweep must not look mostly clean to a consumer that
        # keys on per-unit exit codes instead of status.
        units = [poison_unit("bad"), *figure_units(["fig1", "fig2a"])]
        result = run_batch(units, keep_going=False)
        assert [o.exit_code for o in result.outcomes] == [2, None, None]
        payload = json.loads(result.to_json())
        codes = [entry["exit_code"] for entry in payload["results"]]
        assert codes == [2, None, None]
        assert not any(code == 0 for code in codes)
        assert payload["skipped"] == 2

    def test_injected_fault_becomes_internal_error(self):
        units = figure_units(["fig1", "fig2a"])
        with faults.injected("batch-unit", unit="fig1", message="kaboom"):
            result = run_batch(units, keep_going=True)
        outcome = result.outcome("fig1")
        assert outcome.status == "internal-error"
        assert outcome.exit_code == 3
        assert outcome.error_type == "InjectedFault"
        assert "kaboom" in outcome.error
        assert "InjectedFault" in outcome.traceback
        assert result.outcome("fig2a").status == "clean"
        assert result.exit_code() == 3

    def test_package_sweep_with_one_poisoned_executable(self):
        # The acceptance scenario: one subversion executable crashes; the
        # sweep still returns results for every other executable plus a
        # structured failure record.
        model = package("subversion")
        units = package_units(model)
        victim = units[3].name
        with faults.injected("correlation", unit=victim):
            result = run_batch(units, keep_going=True)
        assert len(result.outcomes) == len(units)
        failed = result.outcome(victim)
        assert failed.status == "internal-error"
        assert failed.traceback is not None
        others = [o for o in result.outcomes if o.unit != victim]
        assert all(o.ok for o in others)
        assert result.exit_code() == 3

    def test_bounded_retry_recovers_transient_fault(self):
        units = figure_units(["fig1"])
        with faults.injected("batch-unit", unit="fig1", times=1):
            result = run_batch(units, keep_going=True, max_retries=1)
        outcome = result.outcome("fig1")
        assert outcome.status == "clean"
        assert outcome.attempts == 2

    def test_retry_exhaustion_reports_internal_error(self):
        units = figure_units(["fig1"])
        with faults.injected("batch-unit", unit="fig1"):  # always fires
            result = run_batch(units, keep_going=True, max_retries=2)
        outcome = result.outcome("fig1")
        assert outcome.status == "internal-error"
        assert outcome.attempts == 3

    def test_input_errors_are_not_retried(self):
        result = run_batch([poison_unit("bad")], max_retries=5)
        assert result.outcome("bad").attempts == 1

    def test_retries_back_off_exponentially(self, monkeypatch):
        import repro.tool.batch as batch_module

        sleeps = []
        monkeypatch.setattr(
            batch_module.time, "sleep", lambda s: sleeps.append(s)
        )
        units = figure_units(["fig1"])
        with faults.injected("batch-unit", unit="fig1"):  # always fires
            run_batch(units, keep_going=True, max_retries=3)
        assert sleeps == [0.02, 0.04, 0.08]

    def test_batch_metrics_surface_attempts_and_retries(self):
        units = figure_units(["fig1", "fig2a"])
        with faults.injected("batch-unit", unit="fig1", times=1):
            result = run_batch(units, keep_going=True, max_retries=1)
        metrics = result.batch_metrics().to_dict()
        assert metrics["batch.attempts"] == 3  # fig1 twice, fig2a once
        assert metrics["batch.retried"] == 1
        assert metrics["batch.resumed"] == 0

    def test_severity_order(self):
        units = [
            poison_unit("bad"),
            *figure_units(["fig2c"]),  # warnings
        ]
        with faults.injected("batch-unit", unit="crash"):
            units.append(
                BatchUnit(name="crash", source=figure("fig1").full_source)
            )
            result = run_batch(units, keep_going=True)
        # internal (3) outranks input (2) outranks warnings (1).
        assert result.exit_code() == 3

    def test_json_summary_schema(self):
        units = [poison_unit("bad"), *figure_units(["fig1", "fig2c"])]
        result = run_batch(units, keep_going=True)
        payload = json.loads(result.to_json())
        assert payload["units"] == 3
        assert payload["succeeded"] == 2
        assert payload["failed"] == 1
        assert payload["skipped"] == 0
        by_unit = {entry["unit"]: entry for entry in payload["results"]}
        assert by_unit["bad"]["status"] == "input-error"
        assert by_unit["bad"]["error_type"] == "ParseError"
        assert by_unit["fig2c"]["warnings"] >= 1
        assert by_unit["fig1"]["precision"] == "full"

    def test_summary_text(self):
        result = run_batch(figure_units(["fig1"]))
        text = result.summary()
        assert "1/1 unit(s) analyzed" in text
        assert "fig1: clean" in text


class TestPoolSettings:
    """Out-of-range pool settings are rejected before any unit runs.

    A negative chunk size used to mark every unit skipped and exit 0
    (a CI gate passing while analyzing nothing); zero crashed in
    ``range()``; a non-positive hard timeout SIGKILLs every unit at the
    watchdog's first poll.
    """

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_chunk_size_below_one_rejected(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size"):
            run_batch(
                figure_units(["fig1"]), jobs=2, chunk_size=chunk_size
            )

    @pytest.mark.parametrize("hard_timeout", [0.0, -1.0])
    def test_non_positive_hard_timeout_rejected(self, hard_timeout):
        with pytest.raises(ValueError, match="hard_timeout"):
            run_batch(
                figure_units(["fig1"]), jobs=2, hard_timeout=hard_timeout
            )

    def test_unknown_setting_rejected(self):
        with pytest.raises(TypeError):
            run_batch(figure_units(["fig1"]), hard_timout=5.0)
