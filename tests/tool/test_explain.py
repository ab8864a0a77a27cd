"""CLI tests for --explain, --trace/--profile/--metrics, and stderr routing."""

import json
from pathlib import Path

import pytest

from repro.tool.cli import main
from repro.workloads import figure

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
RC_EXAMPLES = sorted(EXAMPLES.glob("*.rc"))
RC_BROKEN = [p for p in RC_EXAMPLES if "broken" in p.name or "unrelated" in p.name]


def write_source(tmp_path, program):
    path = tmp_path / f"{program.name}.c"
    path.write_text(program.full_source)
    return str(path)


class TestExplainExamples:
    def test_rc_examples_exist(self):
        assert RC_BROKEN, "expected Figure-1-style .rc examples with bugs"

    @pytest.mark.parametrize(
        "path", RC_BROKEN, ids=lambda p: p.name
    )
    def test_explain_every_broken_rc_example(self, path, capsys):
        assert main([str(path), "--explain", "1"]) == 1
        out = capsys.readouterr().out
        assert "explanation for warning 1" in out
        assert "by rule:" in out
        assert "objectPair(" in out
        assert "holds by absence" in out
        # Leaf facts carry the original source file and line.
        fact_lines = [line for line in out.splitlines() if "[fact]" in line]
        assert fact_lines
        assert any(f"{path.name}:" in line for line in fact_lines)

    @pytest.mark.parametrize(
        "path",
        [p for p in RC_EXAMPLES if p not in RC_BROKEN],
        ids=lambda p: p.name,
    )
    def test_consistent_rc_examples_have_nothing_to_explain(
        self, path, capsys
    ):
        assert main([str(path), "--explain", "1"]) == 2
        assert "no warnings" in capsys.readouterr().err

    def test_rc_interface_autodetected_from_suffix(self, capsys):
        # No --interface flag: the .rc suffix alone must select rc mode
        # (apr mode would report the program consistent -- no region ops).
        assert main([str(RC_BROKEN[0])]) == 1
        assert "HIGH" in capsys.readouterr().out

    def test_explicit_interface_still_wins(self, capsys):
        assert main([str(RC_BROKEN[0]), "--interface", "apr"]) == 0

    def test_explain_figure_corpus(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig2c"))
        assert main([path, "--explain", "1"]) == 1
        out = capsys.readouterr().out
        assert "regionPair(" in out
        assert "pointer stored at" in out

    def test_explain_out_of_range(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig2c"))
        assert main([path, "--explain", "7"]) == 2
        err = capsys.readouterr().err
        assert "out of range" in err
        # One clean line naming the valid range, not a traceback.
        assert "valid range: 1.." in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("number", ["0", "-1", "-99"])
    def test_explain_nonpositive_index(self, tmp_path, capsys, number):
        path = write_source(tmp_path, figure("fig2c"))
        assert main([path, "--explain", number]) == 2
        err = capsys.readouterr().err
        assert "out of range" in err
        assert "Traceback" not in err


class TestTraceFlag:
    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        code = main([str(RC_BROKEN[0]), "--trace", str(out_path)])
        assert code == 1
        data = json.loads(out_path.read_text())
        names = {
            event["name"]
            for event in data["traceEvents"]
            if event["ph"] == "B"
        }
        for phase in (
            "phase.frontend",
            "phase.call-graph",
            "phase.context-cloning",
            "phase.correlation",
            "phase.post-processing",
        ):
            assert phase in names

    def test_trace_written_even_on_input_error(self, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        assert main(
            [str(tmp_path / "nope.c"), "--trace", str(out_path)]
        ) == 2
        assert json.loads(out_path.read_text())["traceEvents"] == []


class TestStderrRouting:
    def test_stats_leave_stdout_clean(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig2c"))
        assert main([path, "--stats"]) == 1
        captured = capsys.readouterr()
        assert "consistency statistics:" not in captured.out
        assert "consistency statistics:" in captured.err
        assert "warnings.object_pairs" in captured.err

    def test_profile_tree_on_stderr(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig2c"))
        assert main([path, "--profile"]) == 1
        captured = capsys.readouterr()
        assert "phase.correlation" not in captured.out
        assert "phase.correlation" in captured.err

    def test_metrics_on_stderr(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig2c"))
        assert main([path, "--metrics"]) == 1
        captured = capsys.readouterr()
        assert "pointer.regions" not in captured.out
        assert "pointer.regions" in captured.err

    def test_json_report_embeds_metrics(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig2c"))
        assert main([path, "--json", "--stats"]) == 1
        captured = capsys.readouterr()
        assert "consistency statistics:" in captured.err
        payload = json.loads(captured.out)
        assert payload["metrics"]["warnings.high"] == 1
        assert payload["metrics"]["effects.heap"] == 1

    def test_batch_metrics_summary_on_stderr(self, tmp_path, capsys):
        paths = [
            write_source(tmp_path, figure(name))
            for name in ("fig1", "fig2c")
        ]
        assert main(["--batch", "--metrics", *paths]) == 1
        captured = capsys.readouterr()
        assert "fleet metrics" in captured.err
        assert "fleet metrics" not in captured.out

    def test_batch_json_embeds_fleet_metrics(self, tmp_path, capsys):
        paths = [
            write_source(tmp_path, figure(name))
            for name in ("fig1", "fig2c")
        ]
        assert main(["--batch", "--json", *paths]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet_metrics"]["warnings.high"]["count"] == 2
        for result in payload["results"]:
            assert "metrics" in result
