"""CLI tests for dynamic validation: --validate, --validate-steps,
--trace-out, and the batch validation summary."""

import json
from pathlib import Path

from repro.obs.replay import replay_trace
from repro.runtime import load_trace
from repro.tool.cli import main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
CLEAN = str(EXAMPLES / "fig1_connection.rc")
BROKEN = str(EXAMPLES / "fig1_connection_broken.rc")
UNRELATED = str(EXAMPLES / "fig2_unrelated.rc")


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


class TestSingleRunValidation:
    def test_broken_fig1_confirms_exactly_one_warning(self, capsys):
        code, payload = run_json(capsys, [BROKEN, "--validate", "--json"])
        assert code == 1
        validation = payload["validation"]
        assert validation["status"] == "ok"
        assert validation["labels"] == ["confirmed"]
        assert validation["replay_consistent"] is True
        assert validation["buckets"]["high"]["precision"] == 1.0
        # The labels are fingerprint-addressed: they line up with the
        # warnings the report actually printed.
        [warning] = payload["warnings"]
        assert warning["validation"] == "confirmed"
        assert validation["fingerprints"] == [warning["fingerprint"]]

    def test_clean_fig1_confirms_nothing(self, capsys):
        code, payload = run_json(capsys, [CLEAN, "--validate", "--json"])
        assert code == 0
        validation = payload["validation"]
        assert validation["status"] == "ok"
        assert validation["confirmed"] == 0

    def test_text_report_carries_dynamic_labels(self, capsys):
        assert main([BROKEN, "--validate"]) == 1
        out = capsys.readouterr().out
        assert "[confirmed]" in out
        assert "dynamic validation: ok" in out

    def test_without_validate_no_validation_payload(self, capsys):
        _, payload = run_json(capsys, [BROKEN, "--json"])
        assert "validation" not in payload

    def test_validation_metrics_land_in_metrics_block(self, capsys):
        _, payload = run_json(
            capsys, [BROKEN, "--validate", "--json", "--metrics"]
        )
        metrics = payload["metrics"]
        assert metrics["validation.confirmed"] == 1
        assert metrics["validation.replay_mismatch"] == 0

    def test_html_report_renders_validation(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        main([BROKEN, "--validate", "--html-report", str(out)])
        html = out.read_text()
        assert "v-confirmed" in html
        assert "Dynamic validation" in html


    def test_validation_gauges_reach_metrics_out_and_registry(
        self, tmp_path, capsys
    ):
        # The run summary used to snapshot the metrics before
        # validation folded its gauges in, so both views missed them.
        from repro.obs.registry import RunRegistry

        out = tmp_path / "metrics.txt"
        registry = tmp_path / "runs.sqlite"
        argv = [BROKEN, "--validate", "--metrics-out", str(out),
                "--registry", str(registry)]
        assert main(argv) == 1
        capsys.readouterr()
        assert "repro_validation_confirmed 1" in out.read_text()
        with RunRegistry(str(registry)) as store:
            [run] = store.runs()
        assert run.metrics["validation.confirmed"] == 1


class TestTraceOut:
    def test_trace_out_requires_validate(self, tmp_path, capsys):
        assert main([BROKEN, "--trace-out", str(tmp_path)]) == 2
        assert "--trace-out requires --validate" in capsys.readouterr().err

    def test_artifact_replays_consistently(self, tmp_path, capsys):
        code, payload = run_json(
            capsys,
            [BROKEN, "--validate", "--trace-out", str(tmp_path), "--json"],
        )
        assert code == 1
        [trace] = list(tmp_path.iterdir())
        assert trace.name.endswith(".trace.jsonl")
        events = load_trace(str(trace))
        assert len(events) == payload["validation"]["events"]
        replay = replay_trace(events)
        assert replay.consistent
        assert "dangling-created" in {f["kind"] for f in replay.faults}


class TestBatchValidation:
    def test_batch_json_carries_per_unit_payloads_and_summary(
        self, capsys
    ):
        code, payload = run_json(
            capsys,
            [BROKEN, CLEAN, UNRELATED, "--batch", "--keep-going",
             "--validate", "--json"],
        )
        assert code == 1
        units = {u["unit"]: u for u in payload["results"]}
        assert units[BROKEN]["validation"]["labels"] == ["confirmed"]
        assert units[CLEAN]["validation"]["confirmed"] == 0
        summary = payload["validation"]
        assert summary["units"] == 3
        assert summary["statuses"] == {"ok": 3}
        # The fleet counts are the fold of the per-unit payloads.
        assert summary["confirmed"] == sum(
            u["validation"]["confirmed"] for u in units.values()
        )
        assert summary["confirmed"] >= 1
        assert summary["replay_mismatches"] == 0
        assert summary["buckets"]["high"]["precision"] == 1.0

    def test_batch_parallel_matches_serial(self, capsys):
        argv = [BROKEN, CLEAN, "--batch", "--keep-going", "--validate",
                "--json"]
        _, serial = run_json(capsys, argv)
        _, parallel = run_json(capsys, argv + ["--jobs", "2"])
        serial_payloads = [u.get("validation") for u in serial["results"]]
        parallel_payloads = [u.get("validation") for u in parallel["results"]]
        assert serial_payloads == parallel_payloads
        assert serial["validation"] == parallel["validation"]

    def test_batch_summary_mentions_confirmations(self, capsys):
        assert main([BROKEN, "--batch", "--validate"]) == 1
        assert "validated(1 confirmed)" in capsys.readouterr().out

    def test_batch_trace_out_writes_one_artifact_per_unit(
        self, tmp_path, capsys
    ):
        main([BROKEN, CLEAN, "--batch", "--keep-going", "--validate",
              "--trace-out", str(tmp_path)])
        capsys.readouterr()
        traces = sorted(p.name for p in tmp_path.iterdir())
        assert len(traces) == 2
        assert all(name.endswith(".trace.jsonl") for name in traces)
        for trace in tmp_path.iterdir():
            assert replay_trace(load_trace(str(trace))).consistent
