"""The instrumentation hub: installation, worker wiring, the phase clock."""

import gc
import json
import signal

import pytest

from repro.obs.events import EventLog
from repro.obs.hub import (
    Hub,
    bus_event,
    current_hub,
    emit_event,
    install,
    installed,
    trace_span,
)
from repro.obs.live import TelemetryBus
from repro.obs.trace import Tracer
from repro.tool import batch, supervise
from repro.tool.batch import run_batch
from repro.util import faults
from repro.workloads import FIGURES, figure_units

PHASES = (
    "frontend", "call-graph", "context-cloning", "correlation",
    "post-processing",
)


def _records(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _kinds(path):
    return [record["kind"] for record in _records(path)]


class TestInstalled:
    def test_nested_install_restores_the_outer_hub_after_a_raise(
        self, tmp_path
    ):
        outer = Hub(
            run_id="outer",
            tracer=Tracer(),
            events=EventLog(str(tmp_path / "outer.jsonl")),
            bus=TelemetryBus(),
            mem_profile=True,
        )
        inner = Hub(run_id="inner", tracer=Tracer())
        off = current_hub()
        with installed(outer):
            with pytest.raises(RuntimeError):
                with installed(inner):
                    assert current_hub() is inner
                    assert not current_hub().mem_profile
                    raise RuntimeError("boom")
            assert current_hub() is outer
            assert current_hub().mem_profile
        assert current_hub() is off
        assert off == Hub()
        outer.events.close()

    def test_install_returns_the_previous_hub(self):
        hub = Hub(run_id="x")
        previous = install(hub)
        try:
            assert current_hub() is hub
        finally:
            assert install(previous) is hub
        assert current_hub() is previous

    def test_event_log_install_restores_previous(self, tmp_path):
        outer = EventLog(str(tmp_path / "outer.jsonl"))
        inner = EventLog(str(tmp_path / "inner.jsonl"))
        with installed(Hub(events=outer)):
            with installed(Hub(events=inner)):
                assert current_hub().events is inner
                emit_event("to-inner")
            assert current_hub().events is outer
            emit_event("to-outer")
        assert current_hub().events is None
        emit_event("dropped")
        outer.close()
        inner.close()
        assert _kinds(tmp_path / "outer.jsonl") == ["log.open", "to-outer"]
        assert _kinds(tmp_path / "inner.jsonl") == ["log.open", "to-inner"]

    def test_bus_install_roundtrip(self):
        bus = TelemetryBus()
        with installed(Hub(bus=bus)):
            assert current_hub().bus is bus
            bus_event("batch.start", total=1, sizes=[10], jobs=1)
            assert bus.snapshot()["batch.units_total"] == 1
        assert current_hub().bus is None

    def test_tracer_install_records_and_restores(self):
        tracer = Tracer()
        with installed(Hub(tracer=tracer)):
            assert current_hub().tracer is tracer
            with trace_span("recorded"):
                pass
        assert current_hub().tracer is None
        assert [root.name for root in tracer.roots] == ["recorded"]


class TestWorkerWiring:
    def test_worker_init_installs_exactly_the_described_hub(self, tmp_path):
        parent = Hub(
            run_id="run1",
            tracer=Tracer(),
            events=EventLog(str(tmp_path / "events.jsonl"), run_id="run1"),
            bus=TelemetryBus(run_id="run1"),
            mem_profile=True,
        )
        config = supervise._WorkerConfig(
            sweep=batch.SweepConfig(),
            fault_specs=[],
            journal_path=str(tmp_path / "journal.jsonl"),
            hub=parent.wiring(),
        )
        sigterm = signal.getsignal(signal.SIGTERM)
        previous = install(parent)
        try:
            supervise._worker_init(config)
            worker = current_hub()
            worker.events.close()
            assert worker.bus is None
            assert worker.tracer is None
            assert worker.mem_profile
            # The parent's log file, reopened for appending on its epoch.
            assert worker.events is not parent.events
            assert worker.events.path == parent.events.path
            assert worker.events.epoch == parent.events.epoch
        finally:
            install(parent)
            assert current_hub() is parent
            install(previous)
            supervise._WORKER_CONFIG = None
            faults.set_fire_hook(None)
            signal.signal(signal.SIGTERM, sigterm)
            gc.unfreeze()
            parent.events.close()

    def test_wiring_of_the_off_hub_turns_everything_off(self):
        wiring = Hub().wiring()
        assert wiring.trace_epoch is None
        assert wiring.events_path is None
        assert not wiring.telemetry
        assert not wiring.mem_profile


class TestPhase:
    def test_a_raising_phase_still_ends_its_span_and_event(self, tmp_path):
        tracer = Tracer()
        log = EventLog(str(tmp_path / "events.jsonl"))
        hub = Hub(tracer=tracer, events=log)
        with pytest.raises(ValueError):
            with hub.phase("frontend", "u") as phase:
                phase.set(functions=2)
                raise ValueError("boom")
        log.close()
        (span,) = tracer.find("phase.frontend")
        assert span.attrs == {"functions": 2, "error": "ValueError"}
        end = [r for r in _records(log.path) if r["kind"] == "phase.end"]
        assert end[0]["duration_ms"] == round(phase.seconds * 1000.0, 3)
        assert phase.mem_peak is None

    def test_mem_profile_reads_the_tracemalloc_peak(self):
        with Hub(mem_profile=True).phase("frontend", "u") as phase:
            blob = bytearray(1 << 16)
        del blob
        assert phase.mem_peak >= 1 << 16


class TestOnePhaseClock:
    """The span, the ``phase.end`` event and the ``pipeline.<phase>_ms``
    metric of one phase come from a single ``perf_counter`` pair."""

    def test_event_span_and_metric_agree_for_every_phase(self, tmp_path):
        tracer = Tracer()
        log = EventLog(str(tmp_path / "events.jsonl"))
        units = figure_units()
        assert len(units) == len(FIGURES) == 13
        with installed(Hub(tracer=tracer, events=log)):
            result = run_batch(units, keep_going=True)
        log.close()
        ends = {
            (r["unit"], r["phase"]): r["duration_ms"]
            for r in _records(log.path)
            if r["kind"] == "phase.end"
        }
        spans = {
            unit_span.attrs["unit"]: unit_span
            for unit_span in tracer.find("batch.unit")
        }
        checked = 0
        for outcome in result.outcomes:
            assert outcome.ok, outcome.unit
            for phase in PHASES:
                metric = outcome.metrics[
                    f"pipeline.{phase.replace('-', '_')}_ms"
                ]
                (span,) = spans[outcome.unit].find(f"phase.{phase}")
                event = ends[(outcome.unit, phase)]
                # The metric is the reading rounded to 6 places, the
                # event the same reading rounded to 3.
                assert span.duration_ms == pytest.approx(metric, abs=1e-6)
                assert event == round(span.duration_ms, 3)
                checked += 1
        assert checked == 13 * len(PHASES)
