"""The cyclic collector is paused around each unit; these hold that safe.

``run_regionwiz`` runs every unit with the collector paused
(:func:`repro.util.gcpause.gc_paused`).  That is only free if a unit
leaves next to no cyclic garbage behind: everything else is freed by
reference counting as it goes.  The one cycle a unit may leave is its
recursive struct types (``StructType -> StructField -> PointerType ->
StructType``).  A cycle anywhere else -- an AST node, an IR instruction,
a pointer-analysis or report object, e.g. a bound method cached on the
object that owns it -- would pile up for the whole unit and shows here.
"""

import gc
import itertools
from pathlib import Path

import pytest

from repro.lang.types import CType, StructField
from repro.tool.batch import BatchUnit
from repro.tool.regionwiz import run_regionwiz
from repro.util import faults
from repro.util.budget import ResourceBudget
from repro.util.errors import BudgetExceeded
from repro.util.faults import InjectedFault
from repro.util.gcpause import gc_paused
from repro.workloads import (
    WorkloadSpec,
    figure,
    figure_units,
    generate_workload,
    paper_scale_units,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Modules whose objects may make up a struct-type cycle.
TYPE_GRAPH_MODULES = {"builtins", "repro.lang.types", "repro.lang.errors"}


def _deep_contexts_cycle():
    """One cycle of the deep-contexts shape grid: depth 4-5, fanout 2-3,
    2-3 utilities, 1-2 helpers, 1-2 call sites (60-1,800 contexts)."""
    grid = itertools.product((4, 5), (2, 3), (2, 3), (1, 2), (1, 2))
    units = []
    for index, (stages, fanout, utilities, helpers, sites) in enumerate(grid):
        spec = WorkloadSpec(
            name=f"deep{index:02d}",
            interface=("apr", "rc")[index % 2],
            stages=stages,
            fanout=fanout,
            helpers_per_stage=helpers,
            utility_functions=utilities,
            utility_call_sites=sites,
            bugs={"cross_sibling": 1} if index % 3 == 0 else {},
        )
        units.append(
            BatchUnit(spec.name, generate_workload(spec).source,
                      interface=spec.interface)
        )
    return units


def _corpus():
    units = list(figure_units())
    units += [
        BatchUnit(path.name, path.read_text(), filename=path.name)
        for path in sorted(EXAMPLES.glob("*.rc"))
    ]
    units += paper_scale_units(scale=0.05)
    units += _deep_contexts_cycle()
    return units


def _garbage_after(run):
    """The objects the collector finds unreachable after ``run()``."""
    gc.collect()
    debug = gc.get_debug()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        garbage = list(gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(debug)
    return garbage


def _garbage_of(unit):
    """The objects the collector finds unreachable after ``unit`` ran."""
    return _garbage_after(lambda: run_regionwiz(
        unit.source,
        filename=unit.filename,
        interface=unit.region_interface(),
        entry=unit.entry,
        name=unit.name,
    ))


def _outside_type_graph(garbage):
    """Garbage that is not a type-graph object, or is not reachable
    within the garbage from one."""
    in_garbage = {id(obj) for obj in garbage}
    reached = set()
    stack = [obj for obj in garbage if isinstance(obj, (CType, StructField))]
    while stack:
        obj = stack.pop()
        if id(obj) in reached:
            continue
        reached.add(id(obj))
        stack.extend(
            ref for ref in gc.get_referents(obj) if id(ref) in in_garbage
        )
    return [
        obj
        for obj in garbage
        if id(obj) not in reached
        or type(obj).__module__ not in TYPE_GRAPH_MODULES
    ]


def test_units_leave_only_struct_type_cycles():
    units = _corpus()
    assert len(units) == 13 + 3 + 22 + 32
    leaks = {}
    for unit in units:
        stray = _outside_type_graph(_garbage_of(unit))
        if stray:
            leaks[unit.name] = sorted({type(obj).__qualname__ for obj in stray})
    assert leaks == {}


# Figure 10 derives 74 tuples at full precision: a limit of 50 trips the
# solve mid-round, and the ladder fails two rungs before one fits
# (tests/pointer/test_singleton_cells.py pins both).
FIG10 = figure("fig10")
FIG10_BUDGET = ResourceBudget(max_derived_tuples=50)


def _tripped_solve():
    # Not pytest.raises: an ExceptionInfo kept in this frame, which the
    # error's traceback holds, would itself be a cycle.
    try:
        run_regionwiz(FIG10.full_source, entry=FIG10.entry, budget=FIG10_BUDGET)
    except BudgetExceeded as error:
        assert (error.resource, error.phase) == ("derived_tuples", "correlation")
    else:
        pytest.fail("the budget did not trip")


def _ladder_with_two_failed_rungs():
    report = run_regionwiz(
        FIG10.full_source, entry=FIG10.entry, budget=FIG10_BUDGET, degrade=True
    )
    assert tuple(report.degradation_path) == ("full", "no-heap-cloning")


@pytest.mark.parametrize(
    "run",
    [_tripped_solve, _ladder_with_two_failed_rungs],
    ids=["budget-exceeded", "degrade-ladder"],
)
def test_failure_paths_leave_only_struct_type_cycles(run):
    stray = _outside_type_graph(_garbage_after(run))
    assert sorted({type(obj).__qualname__ for obj in stray}) == []


def test_a_leaked_cycle_is_caught():
    class Node:
        pass

    node = Node()
    node.self = node
    garbage = [node, node.__dict__]
    assert _outside_type_graph(garbage) == garbage


# ---------------------------------------------------------------------------
# The caller's collector state comes back
# ---------------------------------------------------------------------------

SOURCE = figure("fig1").full_source


@pytest.fixture
def collector_on():
    faults.clear()
    enabled = gc.isenabled()
    gc.enable()
    yield
    faults.clear()
    if not enabled:
        gc.disable()


def test_paused_during_the_unit_and_restored_after(collector_on, monkeypatch):
    import repro.tool.regionwiz as regionwiz

    seen = []
    real_lower = regionwiz.lower

    def lower(sema):
        seen.append(gc.isenabled())
        return real_lower(sema)

    monkeypatch.setattr(regionwiz, "lower", lower)
    run_regionwiz(SOURCE, name="fig1")
    assert seen == [False]
    assert gc.isenabled()


def test_restored_after_budget_exceeded(collector_on):
    with pytest.raises(BudgetExceeded):
        run_regionwiz(SOURCE, budget=ResourceBudget(max_derived_tuples=1))
    assert gc.isenabled()


def test_restored_after_an_injected_fault(collector_on):
    with faults.injected("correlation", message="injected crash"):
        with pytest.raises(InjectedFault):
            run_regionwiz(SOURCE)
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled(collector_on):
    gc.disable()
    run_regionwiz(SOURCE)
    assert not gc.isenabled()
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


# ---------------------------------------------------------------------------
# A sweep, serial or in a pool worker, drops each report before the
# collector comes back
# ---------------------------------------------------------------------------


class _DropProbe:
    """Rides on a unit's report; records the collector's state at the
    moment the report is dropped."""

    def __init__(self, seen):
        self.seen = seen

    def __del__(self):
        self.seen.append(gc.isenabled())


@pytest.fixture
def dropped(monkeypatch, collector_on):
    """The collector states at which the sweep's reports were dropped:
    every report batch analysis makes carries a _DropProbe."""
    import repro.tool.batch as batch

    seen = []
    real_run = batch.run_regionwiz

    def run_regionwiz(*args, **kwargs):
        report = real_run(*args, **kwargs)
        report.probe = _DropProbe(seen)
        return report

    monkeypatch.setattr(batch, "run_regionwiz", run_regionwiz)
    return seen


@pytest.fixture
def worker(tmp_path, monkeypatch, dropped):
    """Run ``_worker_analyze_chunk`` in this process, as a pool worker
    would after its initializer."""
    import repro.tool.supervise as supervise
    from repro.obs.hub import HubWiring
    from repro.tool.batch import SweepConfig

    config = supervise._WorkerConfig(
        sweep=SweepConfig(keep_going=False),
        fault_specs=[],
        journal_path=str(tmp_path / "journal.jsonl"),
        hub=HubWiring(),
    )
    monkeypatch.setattr(supervise, "_WORKER_CONFIG", config)

    def run(units):
        chunk = [(index, unit, None) for index, unit in enumerate(units)]
        results, _, _ = supervise._worker_analyze_chunk(chunk)
        return [outcome for _, outcome in results]

    yield run, dropped
    if supervise._WORKER_JOURNAL is not None:
        supervise._WORKER_JOURNAL.close()


def test_a_serial_sweep_drops_each_report_with_the_collector_paused(dropped):
    from repro.tool.batch import run_batch

    units = [BatchUnit("fig1", SOURCE), BatchUnit("fig1b", SOURCE)]
    result = run_batch(units, jobs=1)
    assert [outcome.status for outcome in result.outcomes] == ["clean"] * 2
    assert dropped == [False, False]
    assert gc.isenabled()


def test_a_worker_drops_each_report_with_the_collector_paused(worker):
    run, dropped = worker
    units = [BatchUnit("fig1", SOURCE), BatchUnit("fig1b", SOURCE)]
    outcomes = run(units)
    assert not any(hasattr(outcome, "report") for outcome in outcomes)
    assert dropped == [False, False]
    assert gc.isenabled()


def test_a_worker_restores_the_collector_after_a_hard_failure(worker):
    run, dropped = worker
    units = [
        BatchUnit("broken", "int main( {"),
        BatchUnit("fig1", SOURCE),
    ]
    outcomes = run(units)
    # keep_going=False abandons the chunk at the hard failure.
    assert [outcome.status for outcome in outcomes] == ["input-error"]
    assert dropped == []  # the broken unit made no report
    assert gc.isenabled()


def test_a_worker_keeps_a_disabled_collector_disabled(worker):
    run, dropped = worker
    gc.disable()
    run([BatchUnit("fig1", SOURCE)])
    assert dropped == [False]
    assert not gc.isenabled()
