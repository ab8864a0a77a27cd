"""Tests for the OpenMetrics exposition and /metrics server."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.export import (
    OPENMETRICS_CONTENT_TYPE,
    MetricsServer,
    metric_name,
    to_openmetrics,
    write_metrics_file,
)
from repro.util.errors import InputError


class TestMetricName:
    def test_dots_become_underscores(self):
        assert metric_name("datalog.fixpoint_ms") == "repro_datalog_fixpoint_ms"

    def test_runs_collapse_and_edges_strip(self):
        assert metric_name(".weird..name.") == "repro_weird_name"

    def test_leading_digit_guarded(self):
        assert metric_name("95th.pct", prefix="") == "_95th_pct"


class TestExposition:
    def test_gauges_declared_and_sorted(self):
        text = to_openmetrics({"b.two": 2, "a.one": 1})
        assert text.index("repro_a_one") < text.index("repro_b_two")
        assert "# TYPE repro_a_one gauge" in text
        assert "repro_a_one 1" in text

    def test_ends_with_eof(self):
        assert to_openmetrics({}).endswith("# EOF\n")

    def test_histogram_subdicts_expand(self):
        text = to_openmetrics(
            {"solve_ms": {"count": 3, "p50": 1.5, "max": 4.0}}
        )
        assert "repro_solve_ms_count 3" in text
        assert "repro_solve_ms_p50 1.5" in text
        assert "repro_solve_ms_max 4" in text

    def test_string_gauges_skipped(self):
        text = to_openmetrics({"run.mode": "batch", "n": 1})
        assert "run_mode" not in text
        assert "repro_n 1" in text

    def test_bools_skipped(self):
        assert "flag" not in to_openmetrics({"flag": True})

    def test_integral_floats_render_as_ints(self):
        assert "repro_x 7\n" in to_openmetrics({"x": 7.0})

    def test_write_metrics_file(self, tmp_path):
        path = tmp_path / "metrics.txt"
        write_metrics_file(str(path), {"a": 1})
        text = path.read_text()
        assert "repro_a 1" in text
        assert text.endswith("# EOF\n")


class TestServer:
    def test_serves_metrics_and_healthz(self):
        state = {"batch.units_done": 2}
        with MetricsServer(0, lambda: state, run_id="feedc0de") as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as rsp:
                assert rsp.headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
                body = rsp.read().decode()
            assert "repro_batch_units_done 2" in body
            assert body.endswith("# EOF\n")
            with urllib.request.urlopen(f"{base}/healthz", timeout=5) as rsp:
                health = json.loads(rsp.read())
            assert health["status"] == "ok"
            assert health["run_id"] == "feedc0de"
            assert health["uptime_s"] >= 0

    def test_live_snapshot_reflects_updates(self):
        state = {"n": 0}
        with MetricsServer(0, lambda: dict(state)) as server:
            url = f"http://127.0.0.1:{server.port}/metrics"
            state["n"] = 41
            body = urllib.request.urlopen(url, timeout=5).read().decode()
            assert "repro_n 41" in body

    def test_unknown_path_is_404(self):
        with MetricsServer(0, dict) as server:
            url = f"http://127.0.0.1:{server.port}/nope"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 404

    def test_bound_port_raises_input_error(self):
        with MetricsServer(0, dict) as server:
            with pytest.raises(InputError) as excinfo:
                MetricsServer(server.port, dict)
            assert "--metrics-port" in str(excinfo.value)

    def test_ephemeral_port_is_real(self):
        server = MetricsServer(0, dict)
        try:
            assert server.port > 0
        finally:
            server.close()
