"""Singleton-first points-to cells in the pointer engine.

A cell (a variable slot, a heap slot, an access's store uids, a reader
list) holds a 1-tuple until a second distinct element arrives, and only
then a set of its own.  Tuples are shared by reference (``b = a``), so
these tests grow one side of every kind of sharing and check that the
other side keeps its points-to set.  They also pin the representation
itself and the derived-tuple count the budget meter is charged with.
"""

import pytest

from repro.interfaces import APR_HEADER, apr_pools_interface
from repro.pointer import AnalysisOptions
from repro.pointer.analysis import _Engine
from repro.tool import run_regionwiz
from repro.util.budget import ResourceBudget
from repro.util.errors import BudgetExceeded
from repro.workloads import FIGURES, paper_scale_units
from tests.conftest import compile_graph

# Each ``/* NAME */`` marks the line of an allocation site; the object
# allocated there is named ``apr_palloc@<line>``.
SHARED_VARIABLE = """
int main(void) {
    void *a = apr_palloc(NULL, 8); /* A */
    void *b = a;
    b = apr_palloc(NULL, 8); /* B */
    void *x = apr_palloc(NULL, 8); /* X */
    x = x;
    void *c = apr_palloc(NULL, 8); /* C */
    c = apr_palloc(NULL, 8); /* D */
    void *d = c;
    d = apr_palloc(NULL, 8); /* E */
    return 0;
}
"""

SHARED_HEAP_CELL = """
struct box { void *item; };
int main(void) {
    struct box *p = apr_palloc(NULL, sizeof(struct box)); /* P */
    struct box *q = apr_palloc(NULL, sizeof(struct box)); /* Q */
    void *x = apr_palloc(NULL, 8); /* X */
    p->item = x;
    q->item = x;
    q->item = apr_palloc(NULL, 8); /* Y */
    void *from_p = p->item;
    void *from_q = q->item;
    void *r = p->item;
    r = apr_palloc(NULL, 8); /* R */
    return 0;
}
"""

SHARED_PARAMETER = """
void *keep(void *arg) {
    void *held = arg;
    return held;
}
int main(void) {
    void *a = apr_palloc(NULL, 8); /* A */
    void *b = apr_palloc(NULL, 8); /* B */
    void *ra = keep(a);
    void *rb = keep(b);
    return 0;
}
"""

LOAD_INTO_BASE = """
int main(void) {
    void **y = apr_palloc(NULL, 8); /* Y */
    *y = apr_palloc(NULL, 8); /* Z */
    y = *y;
    return 0;
}
"""

SELF_RECURSION = """
void *walk(void *node, void *other, int depth) {
    void *fresh = apr_palloc(NULL, 8); /* F */
    if (depth) walk(fresh, node, depth - 1);
    return node;
}
int main(void) {
    void *top = apr_palloc(NULL, 8); /* T */
    void *got = walk(top, NULL, 3);
    return 0;
}
"""


def solve(program, options=None):
    """``(engine, result, sites)``: the solved engine, its result, and
    the object name of each marked allocation site."""
    source = APR_HEADER + program
    sites = {}
    for line, text in enumerate(source.splitlines(), start=1):
        if "/* " in text and text.rstrip().endswith("*/"):
            marker = text.rsplit("/* ", 1)[1][:-2].strip()
            sites[marker] = f"apr_palloc@{line}"
    options = options or AnalysisOptions()
    engine = _Engine(compile_graph(source), apr_pools_interface(), options)
    return engine, engine.run(), sites


def points_to(result, function, prefix, ctx=None):
    """Object names ``function``'s variable ``prefix`` may point to (IR
    names are ``<prefix>.<n>``), in context ``ctx`` or in any."""
    names = set()
    for (fn, c, variable), locations in result.var_pts.items():
        if fn == function and variable.split(".")[0] == prefix:
            if ctx is None or c == ctx:
                names |= {obj.name for obj, _ in locations}
    return names


def heap_cell(result, name):
    """Object names offset 0 of the object named ``name`` may point to."""
    return {
        obj.name
        for (holder, offset), locations in result.heap_pts.items()
        if holder.name == name and offset == 0
        for obj, _ in locations
    }


def cells(engine):
    """Every cell the engine holds, by store."""
    yield from (("var", cell) for cell in engine._pts if cell is not None)
    stores = {
        "global": engine._global_pts,
        "extra": engine._extra,
        "heap": engine._heap,
        "access": engine._access_sites,
        "return reader": engine._return_readers,
        "heap reader": engine._heap_readers,
    }
    for store, held in stores.items():
        yield from ((store, cell) for cell in held.values())


def assert_well_formed(engine):
    """A tuple holds at most one element, a set at least two, and no set
    sits in two cells."""
    sets = {}
    for store, cell in cells(engine):
        if cell.__class__ is tuple:
            assert len(cell) <= 1, (store, cell)
        else:
            assert cell.__class__ is set and len(cell) >= 2, (store, cell)
            assert id(cell) not in sets, (store, sets.get(id(cell)), cell)
            sets[id(cell)] = store
    return sets


def test_growing_a_copied_variable_leaves_its_source_alone():
    engine, result, site = solve(SHARED_VARIABLE)
    assert points_to(result, "main", "a") == {site["A"]}
    assert points_to(result, "main", "b") == {site["A"], site["B"]}
    assert points_to(result, "main", "x") == {site["X"]}
    # A set is copied, never shared: growing the copy leaves the source.
    assert points_to(result, "main", "c") == {site["C"], site["D"]}
    assert points_to(result, "main", "d") == {site["C"], site["D"], site["E"]}
    assert list(assert_well_formed(engine).values()).count("var") == 3


def test_growing_one_of_two_heap_cells_stored_from_one_variable():
    engine, result, site = solve(SHARED_HEAP_CELL)
    assert points_to(result, "main", "x") == {site["X"]}
    assert heap_cell(result, site["P"]) == {site["X"]}
    assert heap_cell(result, site["Q"]) == {site["X"], site["Y"]}
    assert points_to(result, "main", "from_p") == {site["X"]}
    assert points_to(result, "main", "from_q") == {site["X"], site["Y"]}
    # A load shares P's cell; growing the loaded variable leaves it.
    assert points_to(result, "main", "r") == {site["X"], site["R"]}
    assert_well_formed(engine)


@pytest.mark.parametrize("context_sensitive", [True, False])
def test_a_parameter_fed_from_two_call_sites(context_sensitive):
    options = AnalysisOptions(context_sensitive=context_sensitive)
    engine, result, site = solve(SHARED_PARAMETER, options)
    both = {site["A"], site["B"]}
    assert points_to(result, "main", "a") == {site["A"]}
    assert points_to(result, "main", "b") == {site["B"]}
    if context_sensitive:
        assert points_to(result, "main", "ra") == {site["A"]}
        assert points_to(result, "main", "rb") == {site["B"]}
        assert {
            frozenset(points_to(result, "keep", "arg", ctx)) for ctx in (0, 1)
        } == {frozenset({site["A"]}), frozenset({site["B"]})}
    else:
        assert points_to(result, "keep", "arg") == both
        assert points_to(result, "main", "ra") == both
        assert points_to(result, "main", "rb") == both
    assert_well_formed(engine)


def test_a_load_into_its_own_base_leaves_the_heap_cell_alone():
    engine, result, site = solve(LOAD_INTO_BASE)
    assert points_to(result, "main", "y") == {site["Y"], site["Z"]}
    # Flow-insensitively, the store reaches Z's own cell as well.
    assert heap_cell(result, site["Y"]) == {site["Z"]}
    assert heap_cell(result, site["Z"]) == {site["Z"]}
    assert_well_formed(engine)


def test_a_self_recursive_call_grows_its_own_parameters():
    engine, result, site = solve(SELF_RECURSION)
    assert points_to(result, "main", "top") == {site["T"]}
    assert points_to(result, "walk", "fresh") == {site["F"]}
    assert points_to(result, "walk", "node") == {site["T"], site["F"]}
    assert points_to(result, "walk", "other") == {
        "<null>", site["T"], site["F"]
    }
    assert points_to(result, "main", "got") == {site["T"], site["F"]}
    assert_well_formed(engine)


def _httpd():
    (unit,) = [
        unit
        for unit in paper_scale_units(names=["apache"], scale=0.05)
        if unit.name == "apache/httpd"
    ]
    return unit


def test_a_paper_unit_keeps_singletons_inline_over_a_dense_slot_list():
    unit = _httpd()
    engine = _Engine(
        compile_graph(unit.source), apr_pools_interface(), AnalysisOptions()
    )
    result = engine.run()
    assert_well_formed(engine)
    singletons = sum(1 for _, cell in cells(engine) if len(cell) == 1)
    assert singletons > 1000
    layout = engine._functions.values()
    span = sum(meta.contexts * meta.size for meta in layout)
    assert len(engine._pts) == len(result.packed.var) == span


# Derived-tuple counts and budget trips, recorded with the solver that
# kept one set per key: the representation must not move them.
BUDGET_CASES = {
    # name: (total derived, limit, BudgetExceeded.used, rung, failed rungs)
    "fig10": (74, 50, 58, "context-insensitive", ("full", "no-heap-cloning")),
    "apache/httpd": (2061, 1700, 1935, "no-heap-cloning", ("full",)),
}


def _budget_unit(name):
    if name == "apache/httpd":
        return _httpd().source, "main"
    program = next(program for program in FIGURES if program.name == name)
    return program.full_source, program.entry


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_the_budget_meter_sees_the_same_derived_tuples(name):
    total, limit, used, rung, failed = BUDGET_CASES[name]
    source, entry = _budget_unit(name)
    graph = compile_graph(source, entry=entry)
    meter = ResourceBudget().start()
    _Engine(graph, apr_pools_interface(), AnalysisOptions(), meter=meter).run()
    assert meter.tuples_used == total
    budget = ResourceBudget(max_derived_tuples=limit)
    with pytest.raises(BudgetExceeded) as tripped:
        run_regionwiz(source, entry=entry, budget=budget)
    assert tripped.value.resource == "derived_tuples"
    assert tripped.value.used == used
    report = run_regionwiz(source, entry=entry, budget=budget, degrade=True)
    assert report.precision == rung
    assert tuple(report.degradation_path) == failed
