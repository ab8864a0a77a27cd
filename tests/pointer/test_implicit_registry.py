"""A caller's implicit-call registry reaches the pointer analysis.

The registry's data-flow specs (which caller argument becomes which
parameter of the implicitly-called function) are read by the pointer
analysis from the call graph it analyzes, so a custom spawn function
must hand its data argument to the spawned entry exactly like the
built-in thread-creation functions do.
"""

from repro.callgraph import ImplicitCallRegistry, build_call_graph
from repro.callgraph.datalog_build import build_call_graph_datalog
from repro.callgraph.implicit import ImplicitCallSpec
from repro.interfaces import APR_HEADER, apr_pools_interface
from repro.ir import lower
from repro.lang import analyze, parse
from repro.pointer import analyze_pointers
from repro.tool import run_regionwiz

SOURCE = APR_HEADER + """
struct job { int id; };
void my_spawn(void (*fn)(void *), void *data);
void worker(void *arg) { }
int main(void) {
    apr_pool_t *pool;
    apr_pool_create(&pool, NULL);
    struct job *data = apr_palloc(pool, sizeof(struct job));
    my_spawn(worker, data);
    return 0;
}
"""


def spawn_registry():
    registry = ImplicitCallRegistry()
    # my_spawn(fn, data): calls fn(data).
    registry.register("my_spawn", ImplicitCallSpec(0, ((1, 0),)))
    return registry


def data_reaches_worker(analysis, module):
    """Whether the object ``data`` points to is in ``worker``'s ``arg``."""
    (data_object,) = [obj for obj in analysis.objects if obj.kind == "heap"]
    (param,) = module.functions["worker"].params
    return data_object in analysis.points_to_anywhere("worker", param)


def test_both_builders_carry_the_registry_they_were_given():
    module = lower(analyze(parse(SOURCE)))
    registry = spawn_registry()
    assert build_call_graph(module, registry=registry).registry is registry
    assert build_call_graph_datalog(module, registry=registry).registry is registry


def test_pointer_analysis_reads_the_call_graphs_registry():
    module = lower(analyze(parse(SOURCE)))
    graph = build_call_graph(module, registry=spawn_registry())
    analysis = analyze_pointers(graph, apr_pools_interface())
    assert data_reaches_worker(analysis, module)


def test_run_regionwiz_passes_the_registry_through():
    report = run_regionwiz(
        SOURCE, interface=apr_pools_interface(), registry=spawn_registry()
    )
    assert "worker" in report.graph.reachable
    assert data_reaches_worker(report.analysis, report.module)
