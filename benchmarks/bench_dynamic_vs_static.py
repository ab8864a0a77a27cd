"""Dynamic (C@/RC-style) detection vs static analysis.

The paper's motivation for a static tool: dynamic approaches "cannot find
inconsistencies that are on less-executed code paths and that are
sensitive to runtime environments" and cannot address the leak flavour at
all.  This bench runs Figure 3's program (whose bug manifests only when
P && !Q) under every condition assignment on the region runtime, counting
which runs the dynamic RC baseline catches, and compares with the static
verdict that needs no execution at all.

``test_validation_precision_over_figures`` turns the comparison into a
real precision benchmark: every figure program is analyzed statically,
then validated dynamically (``validate_report``: trace one execution,
replay it, correlate), and the per-ranking-bucket confirmation rates
over the whole corpus land in ``BENCH_validation_precision.json``.
"""

import itertools

from conftest import bench_seconds, interface_for, record_bench, write_result

from repro.interfaces import apr_pools_interface
from repro.lang import analyze, parse
from repro.runtime import run_program
from repro.tool import run_regionwiz
from repro.tool.validate import validate_report
from repro.workloads import figure
from repro.workloads.figures import FIGURES


def _dynamic_sweep():
    program = figure("fig3")
    sema = analyze(parse(program.full_source))
    outcomes = {}
    for p_value, q_value in itertools.product((0, 1), repeat=2):
        result = run_program(
            sema,
            apr_pools_interface(),
            globals_init={"P": p_value, "Q": q_value},
        )
        kinds = result.fault_kinds()
        outcomes[(p_value, q_value)] = (
            "dangling-created" in kinds or "dangling-deref" in kinds,
            "rc-violation" in kinds,
        )
    return outcomes


def _static():
    program = figure("fig3")
    return run_regionwiz(program.full_source, name="fig3")


def test_dynamic_coverage(benchmark):
    outcomes = benchmark(_dynamic_sweep)
    report = _static()

    lines = ["Figure 3 under all condition assignments:"]
    caught = 0
    for (p_value, q_value), (dangling, rc) in sorted(outcomes.items()):
        verdict = "FAULT" if (dangling or rc) else "silent"
        lines.append(
            f"  P={p_value} Q={q_value}: dynamic {verdict}"
            f" (dangling={dangling}, rc={rc})"
        )
        caught += dangling or rc
    lines.append(f"dynamic detection: {caught}/4 runs observe the bug")
    lines.append(
        f"static detection: {len(report.warnings)} warning(s),"
        " independent of execution"
    )
    write_result("dynamic_vs_static.txt", "\n".join(lines))
    record_bench(
        "dynamic_vs_static",
        dynamic_caught=int(caught),
        dynamic_runs=4,
        static_warnings=len(report.warnings),
        mean_s=bench_seconds(benchmark),
    )

    # The pointer is safe only when r2 ends up under r1 (Q=1); when the
    # parent resolution lands on r0 (P=1, Q=0) or the root (P=Q=0) the
    # run faults -- and only those runs are visible to dynamic tools.
    assert outcomes[(1, 0)][0] or outcomes[(1, 0)][1]
    assert outcomes[(0, 0)][0] or outcomes[(0, 0)][1]
    assert not outcomes[(1, 1)][0]
    assert not outcomes[(0, 1)][0]
    assert 0 < caught < 4
    # The static tool flags the program unconditionally.
    assert not report.is_consistent


def _validate_corpus():
    """Analyze + dynamically validate every figure program."""
    results = []
    for program in FIGURES:
        report = run_regionwiz(
            program.full_source,
            interface=interface_for(program.interface),
            entry=program.entry,
            name=program.name,
        )
        validation = validate_report(report)
        results.append((program, report, validation))
    return results


def test_validation_precision_over_figures(benchmark):
    """Per-bucket confirmation rates for the whole figure corpus."""
    results = benchmark(_validate_corpus)

    buckets = {
        "high": {"confirmed": 0, "unobserved": 0, "uncovered": 0},
        "low": {"confirmed": 0, "unobserved": 0, "uncovered": 0},
    }
    lines = ["dynamic validation over the figure corpus:"]
    validated = 0
    for program, report, validation in results:
        if validation.status == "ok":
            validated += 1
        for rank, label in zip(validation.ranks, validation.labels):
            buckets[rank][label] += 1
        lines.append(
            f"  {program.name:10s} [{validation.status}]"
            f" {len(report.warnings)} warning(s):"
            f" {validation.confirmed} confirmed,"
            f" {validation.unobserved} unobserved,"
            f" {validation.uncovered} uncovered"
        )
        # Where the corpus records dangling faults as ground truth
        # (runtime_faults=True), the traced execution must observe at
        # least one fault.  The converse doesn't hold: figures marked
        # False can still trip rc-violations (fig12b), and fig3's
        # faults depend on P/Q (runtime_faults=None).
        if program.runtime_faults and validation.status == "ok":
            assert validation.faults > 0, (
                f"{program.name}: corpus expects runtime faults,"
                " traced run observed none"
            )

    headline = {"figures": len(results), "validated_ok": validated}
    for bucket, counts in buckets.items():
        observed = counts["confirmed"] + counts["unobserved"]
        rate = counts["confirmed"] / observed if observed else None
        lines.append(
            f"{bucket}-ranked: {counts['confirmed']} confirmed"
            f" / {counts['unobserved']} unobserved"
            f" / {counts['uncovered']} uncovered"
            + (f" (confirmation rate {rate:.2f})" if rate is not None else "")
        )
        headline[f"{bucket}_confirmed"] = counts["confirmed"]
        headline[f"{bucket}_unobserved"] = counts["unobserved"]
        headline[f"{bucket}_uncovered"] = counts["uncovered"]
        headline[f"{bucket}_confirmation_rate"] = (
            round(rate, 4) if rate is not None else None
        )
    write_result("validation_precision.txt", "\n".join(lines))
    record_bench(
        "validation_precision",
        mean_s=bench_seconds(benchmark),
        **headline,
    )

    # Every figure whose dynamic ground truth is a dangling fault and
    # that warns statically must have at least one warning confirmed by
    # the traced run -- that is the whole point of the correlator.
    for program, report, validation in results:
        if program.runtime_faults and report.warnings:
            assert "confirmed" in validation.labels, (
                f"{program.name}: faulting figure with no confirmed warning"
            )
    # At least one high-ranked warning across the corpus is confirmed,
    # and every validated run's replay agrees with the runtime.
    assert buckets["high"]["confirmed"] >= 1
    for _, _, validation in results:
        assert validation.replay_consistent in (True, None)


def test_bench_interpreter_throughput(benchmark):
    """Raw interpreter speed on the staged-server workload (the dynamic
    baseline's cost per request)."""
    from repro.interfaces import APR_HEADER

    source = APR_HEADER + """
    struct request { char *path; int status; };
    int serve(apr_pool_t *parent, int n) {
        int total = 0;
        for (int i = 0; i < n; i++) {
            apr_pool_t *req_pool;
            apr_pool_create(&req_pool, parent);
            struct request *req = apr_palloc(req_pool, sizeof(struct request));
            req->status = 200;
            total += req->status;
            apr_pool_destroy(req_pool);
        }
        return total;
    }
    int main(void) {
        apr_pool_t *pool;
        apr_pool_create(&pool, NULL);
        int got = serve(pool, 100);
        apr_pool_destroy(pool);
        return got;
    }
    """
    sema = analyze(parse(source))

    def run():
        return run_program(sema, apr_pools_interface(), max_steps=2_000_000)

    result = benchmark(run)
    assert result.return_value == 100 * 200
    assert result.fault_kinds() == set()
