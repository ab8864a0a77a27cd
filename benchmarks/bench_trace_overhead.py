"""Guard: disabled tracing must stay under 3% of the Datalog join bench.

The span instrumentation is always compiled in -- every rule evaluation,
stratum, phase, and batch unit calls :func:`repro.obs.hub.trace_span`
unconditionally -- so the no-op path (the installed hub has no tracer:
one global read, one attribute read, one ``None`` check, a shared
stateless span) is on the solver's hot path.  This bench bounds its
cost on the non-linear transitive closure from ``bench_datalog_joins``:

* ``t_off``  -- the benchmark's wall time with tracing disabled;
* ``spans`` -- how many ``trace_span``/``set`` pairs one run executes
  (counted by actually tracing a run);
* ``c``     -- the per-call cost of the disabled path, microbenchmarked
  over many iterations.

The guard asserts ``spans * c / t_off < 3%``: the instrumentation the
run executes, priced at the disabled-path rate, is noise relative to the
work it annotates.  Also runnable directly (CI smoke):
``python bench_trace_overhead.py --smoke``.
"""

from __future__ import annotations

import time

from repro.datalog import Program
from repro.obs.hub import Hub, installed, trace_span
from repro.obs.trace import SpanRecord, Tracer

NONLINEAR_RULES = """
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), path(y, z).
"""

MAX_OVERHEAD = 0.03


def _closure(n: int):
    program = Program(backend="set")
    program.domain("V", n)
    program.relation("edge", ["V", "V"])
    program.relation("path", ["V", "V"])
    program.rules(NONLINEAR_RULES)
    for node in range(n):
        program.fact("edge", node, (node + 1) % n)
    return program.solve()


def _baseline_seconds(n: int, runs: int) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        _closure(n)
        best = min(best, time.perf_counter() - start)
    return best


def _count_spans(n: int) -> int:
    """How many spans one benchmark run opens (instants excluded)."""

    def count(record: SpanRecord) -> int:
        return (record.kind == "span") + sum(
            count(child) for child in record.children
        )

    tracer = Tracer()
    with installed(Hub(tracer=tracer)):
        _closure(n)
    return sum(count(root) for root in tracer.roots)


def _noop_cost_seconds(iterations: int = 200_000) -> float:
    """Per-call cost of a disabled ``trace_span`` + one ``set`` call."""
    start = time.perf_counter()
    for _ in range(iterations):
        with trace_span("datalog.rule") as span:
            span.set(tuples=0)
    return (time.perf_counter() - start) / iterations


def _measure(n: int, runs: int):
    t_off = _baseline_seconds(n, runs)
    spans = _count_spans(n)
    per_call = _noop_cost_seconds()
    overhead = (spans * per_call) / t_off
    lines = [
        "disabled-tracing overhead on the Datalog join benchmark",
        f"  non-linear transitive closure, n={n}:",
        f"    baseline (tracing off):  {t_off * 1000:8.2f}ms",
        f"    spans per run:           {spans:8d}",
        f"    no-op span cost:         {per_call * 1e9:8.1f}ns/call",
        f"    instrumentation share:   {overhead:8.3%}"
        f" (required: < {MAX_OVERHEAD:.0%})",
    ]
    print("\n".join(lines))
    assert overhead < MAX_OVERHEAD, (
        f"disabled tracing costs {overhead:.2%} of the join benchmark"
    )
    stats = {
        "baseline_ms": round(t_off * 1000, 2),
        "spans": spans,
        "noop_ns": round(per_call * 1e9, 1),
        "overhead": round(overhead, 5),
    }
    return lines, stats


def test_overhead_guard():
    lines, stats = _measure(64, runs=3)
    try:
        from conftest import record_bench, write_result

        write_result("trace_overhead.txt", "\n".join(lines))
        record_bench("trace_overhead", **stats)
    except ImportError:
        pass  # direct invocation from another cwd


def test_smoke():
    """Tiny instance (CI smoke): same bound, plus enabled-path sanity."""
    _measure(16, runs=1)
    # While we are here: tracing *on* actually records the solver spans.
    tracer = Tracer()
    with installed(Hub(tracer=tracer)):
        _closure(8)
    assert tracer.find("datalog.solve")
    assert tracer.find("datalog.stratum")
    assert tracer.find("datalog.rule")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small instance plus enabled-path sanity checks",
    )
    args = parser.parse_args()
    if args.smoke:
        test_smoke()
    else:
        test_overhead_guard()
    print("bench_trace_overhead: OK")
