"""Cross-check: the Datalog points-to formulation vs the native engine.

Both are run context-insensitively on the figure corpus and on small
generated units (both interfaces, every seeded bug kind); the subregion,
ownership, and access effects must agree (compared by object labels,
which are context-free in this configuration).
"""

import pytest

from repro.interfaces import apr_pools_interface, rc_regions_interface
from repro.pointer import AnalysisOptions, analyze_pointers
from repro.pointer.datalog_pta import run_datalog_pta
from repro.workloads import (
    BUG_KINDS,
    FIGURES,
    WorkloadSpec,
    figure,
    generate_workload,
)
from tests.conftest import compile_graph


def native_effects(graph, interface):
    result = analyze_pointers(
        graph,
        interface,
        AnalysisOptions(context_sensitive=False, heap_cloning=False),
    )
    subregion = {
        (str(a), str(b)) for a, b in result.subregion if a != b
    }
    ownership = {(str(a), str(b)) for a, b in result.ownership}
    access = {
        (str(a), offset, str(b)) for a, offset, b in result.accesses
        if offset is not None
    }
    return subregion, ownership, access


# Generated units with stages 2-3 and fanout 2-3; between them they use
# both interfaces and seed every bug kind.
GENERATED = [
    WorkloadSpec(
        name=f"oracle_{interface}_{stages}x{fanout}",
        interface=interface,
        stages=stages,
        fanout=fanout,
        bugs=bugs,
    )
    for interface, stages, fanout, bugs in [
        ("apr", 2, 2, {"cross_sibling": 1, "into_subregion": 1}),
        ("rc", 2, 3, {"ambiguous_parent": 1, "intra_fp": 1}),
        ("apr", 3, 2, {"conditional_pool": 1, "string_bug": 1}),
        ("rc", 3, 3, {"cross_sibling": 1, "string_bug": 1}),
        ("apr", 2, 3, {kind: 1 for kind in BUG_KINDS}),
        ("rc", 3, 2, {kind: 1 for kind in BUG_KINDS}),
    ]
]

UNITS = [
    (program.name, program.full_source, program.interface, program.entry)
    for program in FIGURES
] + [
    (spec.name, generate_workload(spec).source, spec.interface, "main")
    for spec in GENERATED
]


def test_generated_units_cover_both_interfaces_and_every_bug_kind():
    assert {spec.interface for spec in GENERATED} == {"apr", "rc"}
    assert set().union(*(spec.bugs for spec in GENERATED)) == set(BUG_KINDS)


@pytest.mark.parametrize("unit", UNITS, ids=lambda unit: unit[0])
def test_datalog_pta_matches_native(unit):
    name, source, interface_name, entry = unit
    interface = (
        rc_regions_interface()
        if interface_name == "rc"
        else apr_pools_interface()
    )
    graph = compile_graph(source, entry=entry)
    subregion, ownership, access = native_effects(graph, interface)

    pta = run_datalog_pta(graph, interface)
    assert pta.subregion_labels() == subregion, name
    assert pta.ownership_labels() == ownership, name
    assert pta.access_labels() == access, name


@pytest.mark.parametrize("name", ["fig1", "fig2c", "fig9"])
def test_bdd_backend_matches_set(name):
    program = figure(name)
    interface = apr_pools_interface()
    graph = compile_graph(program.full_source)
    set_pta = run_datalog_pta(graph, interface, backend="set")
    bdd_pta = run_datalog_pta(graph, interface, backend="bdd")
    assert set_pta.subregion_labels() == bdd_pta.subregion_labels()
    assert set_pta.ownership_labels() == bdd_pta.ownership_labels()
    assert set_pta.access_labels() == bdd_pta.access_labels()
