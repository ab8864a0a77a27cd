"""Cross-check: the Datalog formulation of eq. 4.12 vs the checker.

Runs every figure-corpus program (and, for the main oracle, every
paper-scale unit at 5% size) through the pointer analysis, then computes
objectPair twice -- with the production checker and with the four-rule
Datalog program -- and requires identical results.
"""

import pytest

from repro.callgraph import build_call_graph
from repro.core import build_hierarchy, check_consistency, region_hierarchy
from repro.core.consistency import consistency_from_pairs
from repro.core.datalog_check import (
    accesses_at_location,
    build_consistency_program,
    datalog_object_pairs,
    solve_demand_pairs,
    solve_object_pairs,
)
from repro.interfaces import apr_pools_interface, rc_regions_interface
from repro.pointer import analyze_pointers
from repro.tool.batch import BatchUnit
from repro.workloads import FIGURES, paper_scale_units
from tests.conftest import compile_graph, compile_module
from tests.pointer.test_golden_results import OPTION_SETS, corpus

#: No full run solves eq. 4.12 on Datalog, so the oracle also covers the
#: paper-scale shapes: its 22 units at 5% size (~5 KLOC).
PAPER_UNITS = paper_scale_units(scale=0.05)


def analysis_for(program):
    if isinstance(program, BatchUnit):
        graph = compile_graph(program.source, entry=program.entry)
        return analyze_pointers(graph, program.region_interface())
    interface = (
        rc_regions_interface()
        if program.interface == "rc"
        else apr_pools_interface()
    )
    graph = compile_graph(program.full_source, entry=program.entry)
    return analyze_pointers(graph, interface)


@pytest.mark.parametrize(
    "program", [*FIGURES, *PAPER_UNITS], ids=lambda p: p.name
)
def test_datalog_matches_checker(program):
    analysis = analysis_for(program)
    hierarchy = region_hierarchy(analysis)
    checker = check_consistency(analysis, hierarchy)
    expected = {
        (pair.source, pair.offset, pair.target)
        for pair in checker.object_pairs
    }
    computed = datalog_object_pairs(analysis, hierarchy, backend="set")
    assert computed == expected, program.name


@pytest.mark.parametrize("program", FIGURES, ids=lambda p: p.name)
def test_demand_transformation_matches_full(program):
    """Demand-solving every access individually reproduces the full
    objectPair relation — the magic-sets restriction loses nothing."""
    analysis = analysis_for(program)
    hierarchy = region_hierarchy(analysis)
    full = datalog_object_pairs(analysis, hierarchy)
    demanded = set()
    for triple in analysis.accesses:
        pairs, _ = solve_demand_pairs(
            analysis, hierarchy, queries=[triple]
        )
        demanded |= pairs
    assert demanded == full, program.name


def test_demand_solve_is_narrower_than_full():
    """The demand program derives strictly fewer tuples than the full
    closure on a program with more than one access (the point of the
    transformation)."""
    from repro.workloads import figure

    program = figure("fig2c")
    analysis = analysis_for(program)
    hierarchy = region_hierarchy(analysis)
    _, full_stats = solve_object_pairs(analysis, hierarchy)
    one = next(iter(sorted(analysis.accesses, key=str)))
    _, demand_stats = solve_demand_pairs(
        analysis, hierarchy, queries=[one]
    )
    assert demand_stats.tuples_derived < full_stats.tuples_derived


@pytest.mark.parametrize("program", FIGURES, ids=lambda p: p.name)
def test_consistency_from_pairs_rebuilds_checker_output(program):
    """Decoding a violating set reproduces check_consistency exactly —
    warnings, owners, store sites, never-safe ranks, and order."""
    analysis = analysis_for(program)
    hierarchy = region_hierarchy(analysis)
    direct = check_consistency(analysis, hierarchy)
    pairs = {
        (pair.source, pair.offset, pair.target)
        for pair in direct.object_pairs
    }
    rebuilt = consistency_from_pairs(analysis, hierarchy, pairs)
    assert rebuilt.object_pairs == direct.object_pairs
    assert [w.never_safe for w in rebuilt.object_pairs] == [
        w.never_safe for w in direct.object_pairs
    ]
    assert rebuilt.region_pair_count == direct.region_pair_count


@pytest.mark.parametrize("name", ["fig1", "fig2c", "fig3", "fig9"])
def test_bdd_backend_agrees(name):
    from repro.workloads import figure

    program = figure(name)
    analysis = analysis_for(program)
    hierarchy = region_hierarchy(analysis)
    set_pairs = datalog_object_pairs(analysis, hierarchy, backend="set")
    bdd_pairs = datalog_object_pairs(analysis, hierarchy, backend="bdd")
    assert set_pairs == bdd_pairs


# ---------------------------------------------------------------------------
# The native check on engine numbers vs the Datalog check on decoded
# relations, over the golden pointer corpus under every option set
# ---------------------------------------------------------------------------


def _golden_analyses(options):
    for name, source, interface_name, entry, registry in corpus():
        interface = (
            rc_regions_interface()
            if interface_name == "rc"
            else apr_pools_interface()
        )
        module = compile_module(source, filename=name)
        graph = build_call_graph(module, entry=entry, registry=registry)
        yield name, module, analyze_pointers(graph, interface, options)


@pytest.mark.parametrize("option_set", sorted(OPTION_SETS))
def test_native_check_matches_datalog_on_the_golden_corpus(option_set):
    checked = 0
    for name, module, analysis in _golden_analyses(OPTION_SETS[option_set]):
        hierarchy = region_hierarchy(analysis)
        native = check_consistency(analysis, hierarchy)
        built = build_consistency_program(analysis, hierarchy)
        solution = built.program.solve()
        pairs = built.decode_pairs(solution.tuples("objectPair"))
        assert {
            (pair.source, pair.offset, pair.target)
            for pair in native.object_pairs
        } == pairs, name
        # The Datalog program's regionPair relation is the R-pair count.
        assert len(solution.tuples("regionPair")) == (
            native.region_pair_count
        ), name

        # The rebuild from the Datalog's pairs is the native result:
        # owners, store sites, never-safe ranks and order.
        rebuilt = consistency_from_pairs(analysis, hierarchy, pairs)
        assert rebuilt.object_pairs == native.object_pairs, name
        assert [w.never_safe for w in rebuilt.object_pairs] == [
            w.never_safe for w in native.object_pairs
        ], name
        # never_safe against a hierarchy built over the decoded regions.
        labelled = build_hierarchy(analysis.regions, analysis.subregion)
        for warning in native.object_pairs:
            assert warning.never_safe == all(
                not labelled.may_leq(x, y)
                for x in warning.source_owners
                for y in warning.target_owners
            ), name

        # The --query path: seeded with the accesses at one warning's
        # store line, the demand solve and rebuild give the native
        # warnings of that seed.
        for warning in native.object_pairs[:2]:
            (uid, *_) = sorted(warning.store_uids)
            loc = module.instr(uid).loc
            seed = accesses_at_location(analysis, module, loc.filename, loc.line)
            found, _ = solve_demand_pairs(analysis, hierarchy, queries=seed)
            queried = consistency_from_pairs(
                analysis, hierarchy, found, accesses=seed
            )
            seeded = set(seed)
            assert queried.object_pairs == [
                pair
                for pair in native.object_pairs
                if (pair.source, pair.offset, pair.target) in seeded
            ], name
            assert warning in queried.object_pairs, name
        checked += bool(native.object_pairs)
    assert checked >= 10
