"""Golden digest of every pointer-analysis result the solver produces.

The digest covers the points-to maps, the effect relations, the access
sites, the cleanup registrations and the round count, over the 13
figure programs, the example ``.rc`` files, a fixed set of small
generated units and the read-edge programs of ``test_dirty_edges``,
under the default options and each ablation option set.  It was recorded with the round-robin solver that visited every
(function, context) pair in every round, so any change to the solver's
schedule that alters a fact -- or the number of rounds -- changes it.

Everything is hashed through sorted ``repr`` strings, so the digest does
not depend on the string-hash seed.
"""

import hashlib
from pathlib import Path

import pytest

from repro.callgraph import build_call_graph
from repro.interfaces import (
    APR_HEADER,
    apr_pools_interface,
    rc_regions_interface,
)
from repro.pointer import AnalysisOptions, analyze_pointers
from repro.workloads import (
    BUG_KINDS,
    FIGURES,
    WorkloadSpec,
    generate_workload,
)
from tests.conftest import compile_module
from tests.pointer.test_dirty_edges import PROGRAMS, spawn_registry

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

# Small generated units: both interfaces, every bug kind, two context
# shapes (a fanout-2 tree and a deeper fanout-3 one).
UNIT_SPECS = [
    WorkloadSpec(
        name="golden_apr",
        interface="apr",
        stages=2,
        fanout=2,
        bugs={"cross_sibling": 1, "into_subregion": 1, "ambiguous_parent": 1},
    ),
    WorkloadSpec(
        name="golden_rc",
        interface="rc",
        stages=2,
        fanout=2,
        bugs={"intra_fp": 1, "conditional_pool": 1, "string_bug": 1},
    ),
    WorkloadSpec(
        name="golden_apr_all",
        interface="apr",
        stages=3,
        fanout=3,
        helpers_per_stage=1,
        utility_functions=1,
        utility_call_sites=1,
        bugs={kind: 1 for kind in BUG_KINDS},
    ),
    WorkloadSpec(
        name="golden_rc_all",
        interface="rc",
        stages=3,
        fanout=2,
        bugs={kind: 2 for kind in BUG_KINDS},
    ),
]

OPTION_SETS = {
    "default": AnalysisOptions(),
    "context_insensitive": AnalysisOptions(context_sensitive=False),
    "no_heap_cloning": AnalysisOptions(heap_cloning=False),
    "field_insensitive": AnalysisOptions(field_sensitive=False),
    "unknown_offsets": AnalysisOptions(track_unknown_offsets=True),
}

# Recorded with the full round-robin solver (every pair, every round).
GOLDEN = {
    "default": (
        "ccba85ea6f317bd9ade6a42e261e97fb4f711ff3f6ae82e10d81b9c9d110717a"
    ),
    "context_insensitive": (
        "e6aebb4be01699d1ba2e6be53895e451c4773f898cdc51c07e4e21947fac62e0"
    ),
    "no_heap_cloning": (
        "a788240f1e907d8f7ec18ccc091eef00563e2b528df62298458a09422dd063e5"
    ),
    "field_insensitive": (
        "13f286732a4994c488a6db7e9cdcc8e5d5a4eefb589401355d488ebe2fa3d094"
    ),
    "unknown_offsets": (
        "3a17004fdcf48c419387c5e4ea00eaac7f9f6988ba1acefbc46c331c1b922245"
    ),
}


def corpus():
    """``(name, source, interface, entry, registry)`` for every golden
    unit; ``registry`` None is the default implicit-call registry."""
    for program in FIGURES:
        yield (
            program.name,
            program.full_source,
            program.interface,
            program.entry,
            None,
        )
    for path in sorted(EXAMPLES.glob("*.rc")):
        yield path.name, path.read_text(), "rc", "main", None
    for spec in UNIT_SPECS:
        source = generate_workload(spec).source
        yield spec.name, source, spec.interface, "main", None
    # The solver's read-edge programs: loops, recursion, globals, dynamic
    # offsets and a custom spawn function.
    for name, source in sorted(PROGRAMS.items()):
        registry = spawn_registry() if name == "spawn" else None
        yield f"edge_{name}", APR_HEADER + source, "apr", "main", registry


def _mapping(mapping):
    return sorted(
        (repr(key), sorted(repr(item) for item in values))
        for key, values in mapping.items()
    )


def _relation(relation):
    return sorted(repr(item) for item in relation)


def result_lines(result):
    """The result as deterministic text lines, one per part."""
    yield f"var_pts {_mapping(result.var_pts)}"
    yield f"heap_pts {_mapping(result.heap_pts)}"
    yield f"access_sites {_mapping(result.access_sites)}"
    for part in (
        "regions",
        "objects",
        "subregion",
        "ownership",
        "accesses",
        "cleanups",
    ):
        yield f"{part} {_relation(getattr(result, part))}"
    yield f"iterations {result.iterations}"


def test_units_cover_both_interfaces_and_every_bug_kind():
    assert {spec.interface for spec in UNIT_SPECS} == {"apr", "rc"}
    assert set().union(*(spec.bugs for spec in UNIT_SPECS)) == set(BUG_KINDS)


@pytest.mark.parametrize("option_set", sorted(OPTION_SETS))
def test_pointer_results_match_the_golden_digest(option_set):
    options = OPTION_SETS[option_set]
    digest = hashlib.sha256()
    units = 0
    for name, source, interface_name, entry, registry in corpus():
        interface = (
            rc_regions_interface()
            if interface_name == "rc"
            else apr_pools_interface()
        )
        module = compile_module(source, filename=name)
        graph = build_call_graph(module, entry=entry, registry=registry)
        result = analyze_pointers(graph, interface, options)
        digest.update(f"unit {name}\n".encode())
        for line in result_lines(result):
            digest.update(line.encode())
            digest.update(b"\n")
        units += 1
    assert units == len(FIGURES) + 3 + len(UNIT_SPECS) + len(PROGRAMS)
    assert digest.hexdigest() == GOLDEN[option_set]
