"""One program per read edge of the semi-naive pointer solve.

After its first round the solver re-visits a (function, context) pair
only when something the pair reads has grown (DESIGN.md §16 numbers the
four read edges).  Each program below makes a fact reach its reader only
through one such edge, in an order the round-robin schedule meets the
reader before the writer; functions are visited in sorted name order,
so the names (``a_*`` before ``main`` before ``z_*``) fix that order.  Each test asserts the fact in the final
result, so a solver that stops marking the edge loses it.
"""

import pytest

from repro.callgraph import ImplicitCallRegistry, build_call_graph
from repro.callgraph.implicit import ImplicitCallSpec
from repro.interfaces import APR_HEADER, apr_pools_interface
from repro.pointer import AnalysisOptions, analyze_pointers
from repro.workloads import WorkloadSpec, generate_workload
from tests.conftest import compile_graph, compile_module

# Edge 1, a loop back-edge: each local is read one statement before it
# is defined, so ``a`` gets the allocation only on the third visit of main.
LOOP = """
int cond;
int main(void) {
    void *a = NULL;
    void *b = NULL;
    void *c = NULL;
    while (cond) {
        a = b;
        b = c;
        c = apr_palloc(NULL, 8);
    }
    return 0;
}
"""

# Edge 2: a callee's return value flows into a caller that sorts earlier.
RETURN = """
void *z_make(void) {
    void *made = apr_palloc(NULL, 8);
    return made;
}
void *a_get(void) {
    void *got = z_make();
    return got;
}
int main(void) {
    void *top = a_get();
    return 0;
}
"""

# Edge 3: a store in a later-sorted function, read by a load in an
# earlier one; the load uses a dynamic index, which reads every field of the
# object when unknown offsets are tracked.
HEAP = """
struct box { void *first; void *second; };
void z_fill(struct box *box) {
    box->first = apr_palloc(NULL, 8);
}
void *a_take(int index) {
    struct box *box = apr_palloc(NULL, sizeof(struct box));
    void **slots = apr_palloc(NULL, 64);
    void *known = box->first;
    void *unknown = slots[index];
    z_fill(box);
    z_fill(slots);
    return known;
}
int main(int argc) {
    void *top = a_take(argc);
    return 0;
}
"""

# Edge 4: a non-address-taken global written by a later-sorted function
# and read by an earlier one.
GLOBAL = """
void *shared;
void *a_use(void) {
    void *seen = shared;
    return seen;
}
void z_set(void) {
    shared = apr_palloc(NULL, 8);
}
int main(void) {
    void *top = a_use();
    z_set();
    return 0;
}
"""

# Edge 4 again: a callee returns that global straight to its caller.
GLOBAL_RETURN = """
void *shared;
void *b_ret(void) {
    return shared;
}
void *a_call(void) {
    void *got = b_ret();
    return got;
}
void z_set(void) {
    shared = apr_palloc(NULL, 8);
}
int main(void) {
    void *top = a_call();
    z_set();
    return 0;
}
"""

# Edge 1, parameters: self-recursion grows the function's own parameter,
# in the same context, after the parameter was read.
RECURSION = """
void *walk(void *node, int depth) {
    void *seen = node;
    void *next = apr_palloc(NULL, 8);
    if (depth) walk(next, depth - 1);
    return seen;
}
int main(void) {
    void *top = walk(NULL, 3);
    return 0;
}
"""

# Edge 1, another pair's write: a spawn function from a custom
# implicit-call registry hands its data argument to an entry that sorts
# before the spawning function.
SPAWN = """
void my_spawn(void (*fn)(void *), void *data);
void a_worker(void *arg) {
    void *seen = arg;
}
int main(void) {
    void *data = apr_palloc(NULL, 8);
    my_spawn(a_worker, data);
    return 0;
}
"""

PROGRAMS = {
    "loop": LOOP,
    "return": RETURN,
    "heap": HEAP,
    "global": GLOBAL,
    "global_return": GLOBAL_RETURN,
    "recursion": RECURSION,
    "spawn": SPAWN,
}


def spawn_registry():
    registry = ImplicitCallRegistry()
    # my_spawn(fn, data): calls fn(data).
    registry.register("my_spawn", ImplicitCallSpec(0, ((1, 0),)))
    return registry


def analyze(name, options=None, registry=None):
    module = compile_module(APR_HEADER + PROGRAMS[name])
    graph = build_call_graph(module, registry=registry)
    return analyze_pointers(graph, apr_pools_interface(), options)


def points_to_heap(result, function, prefix):
    """The heap objects ``function``'s local declared as ``prefix`` may
    point to, over all contexts (IR names are ``<prefix>.<n>``)."""
    objects = set()
    for (fn, _, variable), locations in result.var_pts.items():
        if fn == function and variable.split(".")[0] == prefix:
            objects |= {obj for obj, _ in locations if obj.kind == "heap"}
    return objects


def test_loop_back_edge_reaches_the_local_read_before_its_definition():
    result = analyze("loop")
    assert points_to_heap(result, "main", "a")


def test_callee_return_reaches_a_caller_that_sorts_earlier():
    result = analyze("return")
    assert points_to_heap(result, "a_get", "got")
    assert points_to_heap(result, "main", "top")


def test_later_store_reaches_an_earlier_load():
    result = analyze("heap")
    assert points_to_heap(result, "a_take", "known")
    assert points_to_heap(result, "main", "top")


def test_later_store_reaches_an_earlier_unknown_offset_load():
    result = analyze("heap", AnalysisOptions(track_unknown_offsets=True))
    assert points_to_heap(result, "a_take", "unknown")


def test_later_global_write_reaches_an_earlier_read():
    result = analyze("global")
    assert points_to_heap(result, "a_use", "seen")
    assert points_to_heap(result, "main", "top")


def test_later_global_write_reaches_the_caller_of_a_function_returning_it():
    result = analyze("global_return")
    assert points_to_heap(result, "a_call", "got")
    assert points_to_heap(result, "main", "top")


@pytest.mark.parametrize(
    "options",
    [AnalysisOptions(), AnalysisOptions(context_sensitive=False)],
    ids=["context_sensitive", "context_insensitive"],
)
def test_self_recursion_grows_its_own_parameter(options):
    result = analyze("recursion", options)
    assert points_to_heap(result, "walk", "seen")
    assert points_to_heap(result, "main", "top")


def test_spawned_entry_parameter_reaches_the_entry():
    result = analyze("spawn", registry=spawn_registry())
    assert points_to_heap(result, "a_worker", "seen")


def test_later_rounds_visit_only_the_pairs_whose_reads_grew():
    # A context-heavy generated unit: the first round visits every
    # (function, context) pair, later rounds a fraction of them.
    spec = WorkloadSpec(
        name="deep",
        stages=4,
        fanout=2,
        utility_functions=2,
        utility_call_sites=2,
        bugs={"cross_sibling": 1, "into_subregion": 1},
    )
    graph = compile_graph(generate_workload(spec).source)
    result = analyze_pointers(graph, apr_pools_interface())
    pairs = result.numbering.total_contexts
    assert result.iterations >= 3
    assert pairs <= result.visits < result.iterations * pairs
