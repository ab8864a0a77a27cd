"""Tests for the CLI exit-code contract, budgets, and batch mode."""

import json

import pytest

from repro.tool.cli import main
from repro.tool.regionwiz import run_regionwiz
from repro.util import faults
from repro.util.budget import ResourceBudget
from repro.workloads import WorkloadSpec, figure, generate_workload


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


def write_source(tmp_path, program):
    path = tmp_path / f"{program.name}.c"
    path.write_text(program.full_source)
    return str(path)


def heavy_workload():
    """A workload whose full-precision run derives many more tuples than
    its degraded runs, so a mid-range budget forces the ladder."""
    return generate_workload(
        WorkloadSpec(
            name="heavy",
            interface="apr",
            stages=3,
            fanout=2,
            helpers_per_stage=2,
            objects_per_stage=2,
            utility_functions=2,
            utility_call_sites=2,
        )
    )


def full_precision_tuples(source):
    """How many tuples the unrestricted full-precision run derives."""
    report = run_regionwiz(
        source, budget=ResourceBudget(max_derived_tuples=10**9)
    )
    return report.budget_usage["derived_tuples"]


class TestExitCodes:
    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.c")]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err

    def test_parse_error_in_second_file(self, tmp_path, capsys):
        good = tmp_path / "good.c"
        good.write_text(figure("fig1").full_source)
        bad = tmp_path / "bad.c"
        bad.write_text("int broken(void) {\n    return 0 +;\n}\n")
        assert main([str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        # The #line markers must attribute the diagnostic to the second
        # file with its own line numbering, not the concatenation offset.
        assert "bad.c:2" in err
        assert "good.c" not in err

    def test_invalid_octal_literal_is_a_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int x = 09;\n")
        assert main([str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.c:1:9: invalid octal literal '09'" in err
        assert "internal error" not in err
        assert "Traceback" not in err

    def test_internal_error_exit_three_with_traceback(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig1"))
        with faults.injected("correlation", message="injected crash"):
            assert main([path]) == 3
        err = capsys.readouterr().err
        assert "regionwiz: internal error" in err
        assert "InjectedFault" in err  # the traceback is not swallowed

    def test_budget_exhaustion_exit_four(self, tmp_path, capsys):
        workload = heavy_workload()
        path = tmp_path / "heavy.c"
        path.write_text(workload.source)
        limit = full_precision_tuples(workload.source) - 1
        assert main([str(path), "--max-derived", str(limit)]) == 4
        err = capsys.readouterr().err
        assert "derived_tuples budget exceeded" in err
        assert "Traceback" not in err


class TestDegradation:
    def test_degrade_flag_recovers_and_reports_rung(self, tmp_path, capsys):
        workload = heavy_workload()
        path = tmp_path / "heavy.c"
        path.write_text(workload.source)
        limit = full_precision_tuples(workload.source) - 1
        code = main([str(path), "--max-derived", str(limit), "--degrade"])
        assert code in (0, 1)  # completed: clean or warnings, not 4
        out = capsys.readouterr().out
        assert "degraded(precision=" in out

    def test_degraded_json_report(self, tmp_path, capsys):
        workload = heavy_workload()
        path = tmp_path / "heavy.c"
        path.write_text(workload.source)
        limit = full_precision_tuples(workload.source) - 1
        code = main(
            [str(path), "--max-derived", str(limit), "--degrade", "--json"]
        )
        assert code in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        assert payload["degraded"] is True
        assert payload["precision"] != "full"
        assert payload["degradation_path"][0] == "full"
        assert payload["budget"]["max_derived_tuples"] == limit
        assert payload["budget_usage"]["derived_tuples"] <= limit

    def test_ladder_api_records_failed_rungs(self):
        workload = heavy_workload()
        limit = full_precision_tuples(workload.source) - 1
        report = run_regionwiz(
            workload.source,
            budget=ResourceBudget(max_derived_tuples=limit),
            degrade=True,
        )
        assert report.degraded
        assert report.precision in (
            "no-heap-cloning",
            "context-insensitive",
            "field-insensitive",
        )
        assert report.degradation_path[0] == "full"
        assert report.budget_usage["derived_tuples"] <= limit

    def test_generous_budget_stays_full_precision(self):
        workload = heavy_workload()
        report = run_regionwiz(
            workload.source,
            budget=ResourceBudget(max_derived_tuples=10**9),
            degrade=True,
        )
        assert not report.degraded
        assert report.precision == "full"
        assert report.degradation_path == ()


def without_timing(report_text):
    """A text report minus its phase-timing line."""
    return [line for line in report_text.splitlines() if "phases:" not in line]


class TestStatsIsDisplayOnly:
    """``--stats`` prints numbers about the run; it never re-solves, so it
    cannot change the exit code or the warnings under any budget."""

    #: fig2c's full-precision run fits a 30-tuple budget.
    LIMIT = "30"

    def test_stats_keeps_exit_code_under_budget(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig2c"))
        assert main([path, "--max-derived", self.LIMIT]) == 1
        plain = capsys.readouterr().out
        assert main([path, "--max-derived", self.LIMIT, "--stats"]) == 1
        captured = capsys.readouterr()
        assert "[HIGH]" in captured.out
        assert "budget exceeded" not in captured.err
        assert without_timing(captured.out) == without_timing(plain)

    def test_stats_does_not_walk_the_ladder(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig2c"))
        argv = [path, "--max-derived", self.LIMIT, "--degrade", "--stats"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "[HIGH]" in out
        assert "degraded(" not in out

    def test_budgeted_ladder_stays_full(self):
        report = run_regionwiz(
            figure("fig2c").full_source,
            budget=ResourceBudget(max_derived_tuples=int(self.LIMIT)),
            degrade=True,
        )
        assert report.precision == "full"
        assert len(report.high_warnings) == 1

    def test_batch_stats_exits_two(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig2c"))
        assert main(["--batch", "--stats", path]) == 2
        assert (
            "regionwiz: --stats applies to single-file runs;"
            " use --metrics with --batch"
        ) in capsys.readouterr().err


class TestJsonOnFailure:
    def test_json_flag_on_failing_unit_still_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        assert main([str(bad), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no partial JSON on stdout
        assert "regionwiz:" in captured.err


class TestBatchMode:
    def test_batch_keep_going_with_poisoned_unit(self, tmp_path, capsys):
        good1 = tmp_path / "fig1.c"
        good1.write_text(figure("fig1").full_source)
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        good2 = tmp_path / "fig2a.c"
        good2.write_text(figure("fig2a").full_source)
        code = main(
            ["--batch", "--keep-going", str(good1), str(bad), str(good2)]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "2/3 unit(s) analyzed" in out
        assert "input-error" in out

    def test_batch_stops_without_keep_going(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        good = tmp_path / "fig1.c"
        good.write_text(figure("fig1").full_source)
        assert main(["--batch", str(bad), str(good)]) == 2
        out = capsys.readouterr().out
        assert "skipped" in out

    def test_batch_json_summary(self, tmp_path, capsys):
        good = tmp_path / "fig1.c"
        good.write_text(figure("fig1").full_source)
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        code = main(["--batch", "--keep-going", "--json", str(good), str(bad)])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2
        assert payload["succeeded"] == 1
        assert payload["failed"] == 1
        statuses = {r["unit"]: r["status"] for r in payload["results"]}
        assert statuses[str(good)] == "clean"
        assert statuses[str(bad)] == "input-error"

    def test_batch_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["--batch", str(tmp_path / "nope.c")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--chunk", "-1"], "--chunk must be >= 1"),
            (["--chunk", "0"], "--chunk must be >= 1"),
            (["--hard-timeout", "0"], "--hard-timeout must be > 0"),
            (["--hard-timeout", "-5"], "--hard-timeout must be > 0"),
        ],
    )
    def test_out_of_range_pool_setting_exit_two(
        self, tmp_path, capsys, flags, message
    ):
        # --chunk -1 used to skip every unit and exit 0; --chunk 0
        # crashed with a traceback (exit 3).
        good = tmp_path / "fig1.c"
        good.write_text(figure("fig1").full_source)
        argv = ["--batch", "--keep-going", "--jobs", "2", *flags, str(good)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"regionwiz: {message}\n"

    @pytest.mark.parametrize(
        "flags",
        [["--batch", "--journal"], ["--batch", "--cache"],
         ["--batch", "--html-report"], ["--html-report"]],
    )
    def test_unwritable_path_is_an_input_error(self, tmp_path, capsys, flags):
        # These used to escape as an internal error (exit 3) or as an
        # uncaught traceback.
        good = tmp_path / "fig1.c"
        good.write_text(figure("fig1").full_source)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([*flags, str(blocker / "x"), str(good)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("regionwiz: ")
        assert "Traceback" not in err

    def test_resume_requires_a_journal(self, tmp_path, capsys):
        good = tmp_path / "fig1.c"
        good.write_text(figure("fig1").full_source)
        assert main(["--batch", "--resume", str(good)]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_journal_resume_round_trip(self, tmp_path, capsys):
        good1 = tmp_path / "fig1.c"
        good1.write_text(figure("fig1").full_source)
        good2 = tmp_path / "fig2a.c"
        good2.write_text(figure("fig2a").full_source)
        journal = tmp_path / "sweep.jsonl"
        argv = [
            "--batch", "--keep-going", "--json",
            "--journal", str(journal),
            str(good1), str(good2),
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert all(not r.get("resumed") for r in first["results"])
        # A resumed run replays both outcomes from the journal.
        assert main(argv[:2] + ["--resume"] + argv[2:]) == 0
        second = json.loads(capsys.readouterr().out)
        assert all(r.get("resumed") for r in second["results"])
        assert second["supervision"]["resumed"] == 2
