"""Tests for the unified metrics registry and batch aggregation."""

from repro.obs.metrics import MetricsRegistry, aggregate_metrics, format_metrics
from repro.tool.regionwiz import run_regionwiz
from repro.util.budget import ResourceBudget
from repro.workloads import figure


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 4)
        assert registry.value("a.b") == 5

    def test_gauges_keep_last_reading(self):
        registry = MetricsRegistry()
        registry.gauge("g", 1)
        registry.gauge("g", 7)
        assert registry.value("g") == 7
        assert registry.value("missing") is None

    def test_histograms_summarize(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 10.0):
            registry.observe("h", value)
        summary = registry.to_dict()["h"]
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0
        assert summary["p50"] == 2.0

    def test_to_dict_is_sorted_and_flat(self):
        registry = MetricsRegistry()
        registry.gauge("z.last", 1)
        registry.inc("a.first")
        assert list(registry.to_dict()) == ["a.first", "z.last"]


class TestAbsorption:
    def test_solver_stats_land_under_datalog(self):
        # --query answers with a Datalog solve; line 28 is fig2c's store.
        report = run_regionwiz(
            figure("fig2c").full_source,
            filename="fig2c.c",
            name="fig2c",
            query=("fig2c.c", 28),
        )
        assert len(report.warnings) == 1
        metrics = report.metrics.to_dict()
        assert metrics["datalog.facts_loaded"] > 0
        assert metrics["datalog.tuples_derived"] > 0
        assert metrics["datalog.rounds"] > 0
        assert "datalog.index_hit_rate" in metrics
        assert metrics["datalog.stratum_ms"]["count"] == metrics[
            "datalog.strata"
        ]

    def test_budget_usage_renames_derived_tuples(self):
        meter = ResourceBudget(max_derived_tuples=1000).start()
        meter.charge_tuples(42, "test")
        registry = MetricsRegistry()
        registry.absorb_budget_usage(meter.usage())
        metrics = registry.to_dict()
        assert metrics["budget.derived_facts"] == 42
        assert "budget.derived_tuples" not in metrics

    def test_pipeline_metrics_attached_to_report(self):
        report = run_regionwiz(figure("fig2c").full_source, name="fig2c")
        metrics = report.metrics.to_dict()
        assert metrics["pointer.regions"] >= 2
        assert metrics["warnings.high"] == 1
        assert metrics["pipeline.total_ms"] > 0
        assert metrics["callgraph.reachable"] >= 1
        assert metrics["pointer.visits"] == report.analysis.visits > 0


class TestAggregation:
    def test_fleet_percentiles(self):
        units = [{"m": value} for value in (1, 2, 3, 4, 10)]
        fleet = aggregate_metrics(units)
        assert fleet["m"]["count"] == 5
        assert fleet["m"]["min"] == 1.0
        assert fleet["m"]["max"] == 10.0
        assert fleet["m"]["p50"] == 3.0
        assert fleet["m"]["sum"] == 20.0

    def test_histogram_subdicts_and_bools_skipped(self):
        fleet = aggregate_metrics(
            [{"h": {"count": 3}, "flag": True, "n": 1}]
        )
        assert list(fleet) == ["n"]

    def test_units_missing_a_metric_do_not_contribute(self):
        fleet = aggregate_metrics([{"a": 1}, {"b": 2}])
        assert fleet["a"]["count"] == 1
        assert fleet["b"]["count"] == 1

    def test_zero_units_aggregate_to_empty(self):
        """A zero-unit (or all-skipped) sweep must not KeyError."""
        assert aggregate_metrics([]) == {}
        assert aggregate_metrics([{}, {}]) == {}

    def test_keys_emitted_sorted(self):
        fleet = aggregate_metrics([{"z": 1, "a": 2, "m": 3}])
        assert list(fleet) == sorted(fleet)
        registry = MetricsRegistry()
        registry.inc("z.last")
        registry.gauge("a.first", 1)
        registry.observe("m.mid", 2)
        assert list(registry.to_dict()) == ["a.first", "m.mid", "z.last"]

    def test_empty_registries_aggregate_to_empty(self):
        """Fresh registries contribute nothing, not zero-filled stats."""
        registries = [MetricsRegistry().to_dict() for _ in range(3)]
        assert aggregate_metrics(registries) == {}

    def test_single_sample_histogram_is_degenerate(self):
        """One sample: every percentile collapses onto the value."""
        fleet = aggregate_metrics([{"m": 7.5}])
        stats = fleet["m"]
        assert stats["count"] == 1
        for stat in ("min", "mean", "p50", "p90", "max", "sum"):
            assert stats[stat] == 7.5

    def test_worker_died_before_first_flush(self):
        """A worker lost mid-sweep leaves partial unit metrics behind;
        present keys aggregate normally, absent ones don't poison the
        fleet view with phantom zeros."""
        survivors = [{"pipeline.total_ms": 4.0, "pointer.objects": 9}]
        partial = [{"pipeline.total_ms": 6.0}]  # died before final gauges
        fleet = aggregate_metrics(survivors + partial)
        assert fleet["pipeline.total_ms"]["count"] == 2
        assert fleet["pipeline.total_ms"]["mean"] == 5.0
        assert fleet["pointer.objects"]["count"] == 1
        assert fleet["pointer.objects"]["min"] == 9.0

    def test_empty_batch_metrics_are_stable(self):
        """Batch JSON on a zero-unit sweep stays byte-stable: no
        missing-counter KeyError, sorted keys, empty fleet section."""
        import json

        from repro.tool.batch import BatchResult

        result = BatchResult(outcomes=[], cache_counters={})
        payload = json.loads(result.to_json())
        assert payload["units"] == 0
        assert "fleet_metrics" not in payload
        batch = result.batch_metrics().to_dict()
        assert batch["cache.hits"] == 0 and batch["cache.misses"] == 0
        assert result.to_json() == BatchResult(
            outcomes=[], cache_counters={}
        ).to_json()


class TestFormatting:
    def test_format_metrics_aligns_and_renders_summaries(self):
        registry = MetricsRegistry()
        registry.inc("counter", 3)
        registry.observe("hist", 1.5)
        rendered = format_metrics(registry.to_dict())
        assert "counter" in rendered
        assert "count=1" in rendered

    def test_format_metrics_empty(self):
        assert "no metrics" in format_metrics({})
