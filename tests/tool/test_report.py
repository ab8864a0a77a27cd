"""Tests for report formatting (text, table, JSON)."""

import json

from repro.tool import format_fig11_table, run_regionwiz
from repro.tool.report import report_to_json
from repro.workloads import figure


def report_for(name):
    program = figure(name)
    from repro.interfaces import apr_pools_interface, rc_regions_interface

    interface = (
        rc_regions_interface()
        if program.interface == "rc"
        else apr_pools_interface()
    )
    return run_regionwiz(
        program.full_source, interface=interface, name=name
    )


class TestTextReport:
    def test_consistent_report(self):
        from repro.tool import format_report

        text = format_report(report_for("fig1"))
        assert "consistent" in text
        assert "3 region(s)" in text

    def test_warning_report_orders_high_first(self):
        from repro.tool import format_report

        report = report_for("fig2c")
        text = format_report(report)
        assert "[HIGH]" in text

    def test_verbose_includes_stores(self):
        from repro.tool import format_report

        text = format_report(report_for("fig2c"), verbose=True)
        assert "pointer stored at" in text


class TestFig11Table:
    def test_table_has_header_and_rows(self):
        rows = [report_for("fig1").fig11_row(), report_for("fig2c").fig11_row()]
        table = format_fig11_table(rows)
        lines = table.splitlines()
        assert "R-pair" in lines[0]
        assert len(lines) == 4  # header + rule + 2 rows

    def test_columns_align(self):
        rows = [report_for("fig1").fig11_row()]
        table = format_fig11_table(rows)
        header, rule, row = table.splitlines()
        assert len(header) == len(rule)


class TestJsonReport:
    def test_schema_fields(self):
        payload = json.loads(report_to_json(report_for("fig2c")))
        assert payload["name"] == "fig2c"
        assert payload["consistent"] is False
        assert payload["statistics"]["high_ranked"] == 1
        assert payload["statistics"]["regions"] == 3
        (warning,) = payload["warnings"]
        assert warning["rank"] == "high"
        assert "fig2c.c" in warning["source"] or ":" in warning["source"]
        assert warning["stores"]

    def test_consistent_program_has_empty_warnings(self):
        payload = json.loads(report_to_json(report_for("fig1")))
        assert payload["consistent"] is True
        assert payload["warnings"] == []

    def test_phases_present(self):
        payload = json.loads(report_to_json(report_for("fig1")))
        assert set(payload["phases_ms"]) == {
            "frontend", "call_graph", "context_cloning", "correlation",
            "post_processing",
        }

    def test_time_includes_the_frontend(self):
        report = report_for("fig2c")
        times = report.times
        assert times.frontend > 0
        assert times.total == (
            times.frontend
            + times.call_graph
            + times.context_cloning
            + times.correlation
            + times.post_processing
        )
        assert report.fig11_row().time_seconds == times.total

    def test_roundtrips_through_json(self):
        text = report_to_json(report_for("fig9"))
        payload = json.loads(text)
        assert json.loads(json.dumps(payload)) == payload


class TestDescribe:
    def test_empty_object_pairs_does_not_crash(self):
        # Refinement can strip every contributing object pair from an
        # I-pair; the description must degrade, not raise IndexError.
        from repro.core.ranking import IPair
        from repro.tool.regionwiz import _describe

        report = report_for("fig2c")
        original = report.ranked.ipairs[0]
        stripped = IPair(
            source_site=original.source_site,
            target_site=original.target_site,
            object_pairs=[],
        )
        text = _describe(report.module, stripped)
        assert "dangling pointer" in text
        assert "0 context(s)" in text
        assert "owners" not in text

    def test_populated_object_pairs_include_owners(self):
        report = report_for("fig2c")
        described = _must_describe_with_owners(report)
        assert "owners:" in described


def _must_describe_with_owners(report):
    from repro.tool.regionwiz import _describe

    return _describe(report.module, report.ranked.ipairs[0])
