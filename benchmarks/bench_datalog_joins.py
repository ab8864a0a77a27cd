"""The set backend's indexed join engine on fixpoint workloads.

The set backend maintains relation indexes incrementally, joins deltas
through indexed relations, and plans join order by selectivity.  This
bench runs it on transitive closure -- the kernel every RegionWiz phase
bottoms out in -- over an n-cycle, whose closure is all n*n pairs.

The gate is deterministic: on the non-linear variant at n=64 (its
``path`` self-join probes the same indexes every round) the engine must
build at most :data:`MAX_INDEX_BUILDS` indexes and keep its index hit
rate at or above :data:`MIN_INDEX_HIT_RATE`.  Both are the counters the
engine reported when this gate replaced the earlier >= 2x speedup
against the pre-planner evaluator (recorded in
``BENCH_datalog_joins.json``); a regression that rebuilds indexes per
round shows up here on any machine.  Wall time is recorded, not gated.

Also runnable directly (CI smoke): ``python bench_datalog_joins.py --smoke``.
"""

from __future__ import annotations

import time

from repro.datalog import Program

LINEAR_RULES = """
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""

NONLINEAR_RULES = """
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), path(y, z).
"""

#: Index counters of the n=64 non-linear closure (9 builds, 8259 hits).
MAX_INDEX_BUILDS = 9
MIN_INDEX_HIT_RATE = 8259 / (9 + 8259)


def _closure(n: int, rules: str):
    program = Program(backend="set")
    program.domain("V", n)
    program.relation("edge", ["V", "V"])
    program.relation("path", ["V", "V"])
    program.rules(rules)
    for node in range(n):
        program.fact("edge", node, (node + 1) % n)
    return program.solve()


def _best_of(n: int, rules: str, runs: int = 2):
    best = float("inf")
    solution = None
    for _ in range(runs):
        start = time.perf_counter()
        solution = _closure(n, rules)
        best = min(best, time.perf_counter() - start)
    assert solution.count("path") == n * n  # cycle: full closure
    return solution, best


def test_nonlinear_closure_indexes():
    """The acceptance bar: no extra index builds at n=64."""
    solution, indexed_s = _best_of(64, NONLINEAR_RULES)
    stats = solution.stats
    assert stats.rounds > 0
    assert stats.strata and all(s.seconds >= 0.0 for s in stats.strata)
    lines = [
        "indexed set-backend evaluator",
        "  non-linear transitive closure (path ⋈ path), n=64:",
        f"    indexed: {indexed_s * 1000:8.1f}ms",
        f"    rounds={stats.rounds} derived={stats.tuples_derived}"
        f" index_builds={stats.index_builds} index_hits={stats.index_hits}"
        f" hit_rate={stats.index_hit_rate:.1%}"
        f" (required: builds <= {MAX_INDEX_BUILDS},"
        f" hit_rate >= {MIN_INDEX_HIT_RATE:.1%})",
    ]
    _linear, linear_s = _best_of(128, LINEAR_RULES)
    lines += [
        "  linear transitive closure (path ⋈ edge), n=128:",
        f"    indexed: {linear_s * 1000:8.1f}ms",
    ]
    try:
        from conftest import record_bench, write_result

        write_result("datalog_joins.txt", "\n".join(lines))
        record_bench(
            "datalog_joins",
            indexed_ms=round(indexed_s * 1000, 2),
            derived=stats.tuples_derived,
            index_builds=stats.index_builds,
            index_hit_rate=round(stats.index_hit_rate, 6),
        )
    except ImportError:
        pass  # direct invocation from another cwd
    print("\n".join(lines))
    assert stats.index_builds <= MAX_INDEX_BUILDS, stats.index_builds
    assert stats.index_hit_rate >= MIN_INDEX_HIT_RATE, stats.index_hit_rate


def test_smoke():
    """Tiny instance: the closure is complete and stats populate (CI smoke)."""
    solution, indexed_s = _best_of(12, NONLINEAR_RULES, runs=1)
    stats = solution.stats
    assert stats.engine == "indexed"
    assert stats.facts_loaded == 12
    assert stats.facts_loaded + stats.tuples_derived == 12 + solution.count(
        "path"
    )
    assert stats.rounds > 0 and stats.rule_evals > 0
    assert stats.index_hits > 0
    print(
        f"smoke ok: n=12 |path|={solution.count('path')}"
        f" indexed={indexed_s * 1000:.1f}ms"
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small instance, correctness + stats only (no index gate)",
    )
    args = parser.parse_args()
    if args.smoke:
        test_smoke()
    else:
        test_nonlinear_closure_indexes()
    print("bench_datalog_joins: OK")
