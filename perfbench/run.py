"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run and reports the per-layer metrics instead (see
``perfbench/README.md``).  Human-readable lines, with the sample count
behind every timing, come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Runs leave
their spans in ``.perfbench/`` and nothing else behind.  The exit code is
0 on success, 1 when a check fails hard (set-up, determinism), and 2 when
the analyzer's sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-sweep", "deep-contexts", "edit-rerun")


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, interpolated within the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Max resident set of this process and of its reaped pool workers."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def end_to_end(samples) -> Dict[str, Tuple[float, str]]:
    """name -> (value, sample note) for every end-to-end metric."""
    ops = f"{len(samples.op_s)} {samples.op_name}"
    kloc_per_s = [k / s for k, s in zip(samples.op_kloc, samples.op_s)]
    return {
        "setup_s": (
            statistics.median(samples.setup_s),
            f"median of {len(samples.setup_s)} set-ups",
        ),
        "kloc_per_s": (statistics.median(kloc_per_s), f"median of {ops}"),
        "op_p50_s": (statistics.median(samples.op_s), f"p50 of {ops}"),
        "op_p90_s": (percentile(samples.op_s, 90), f"p90 of {ops}"),
        "peak_rss_mb": (peak_rss_mb(), "parent and pool workers"),
    }


def declared_metrics(kind: str) -> Dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares; a run reports exactly these."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no analyzer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scenarios
    from tracing import write_spans

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out)
    # run_batch's throwaway supervision journal goes to the temp dir; keep
    # it inside the checkout too.
    tempfile.tempdir = workdir
    try:
        if args.trace:
            layers = scenarios.TRACED[args.workload](args.seed, args.seconds, workdir)
            spans = out / f"spans-{args.workload}-seed{args.seed}.json"
            write_spans(str(spans), layers.tracers)
            print(f"{args.workload} seed {args.seed}: traced run, spans in {spans.relative_to(ROOT)}")
            if layers.nondeterministic:
                for line in layers.nondeterministic[:10]:
                    print(f"perfbench: count differs between passes: {line}", file=sys.stderr)
                raise scenarios.BenchmarkError(
                    "deterministic counts differ between two passes over the same seed"
                )
            tally = layers.tally
            kind = "per_layer"
            measured = {name: (value, "per op") for name, value in layers.metrics.items()}
        else:
            samples = scenarios.UNTRACED[args.workload](args.seed, args.seconds, workdir)
            print(f"{args.workload} seed {args.seed}: untraced run")
            tally = samples.tally
            kind = "end_to_end"
            measured = end_to_end(samples)
    except scenarios.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for name, unit in declared_metrics(kind).items():
        value, note = measured[name]
        print(f"  {name:<24} {value:>14.6g} {unit:<7} {note}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"  {'error_rate':<24} {tally.failed:>7} / {tally.attempted:<6} verdicts")
    for problem in tally.problems:
        print(f"perfbench: oracle disagrees: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
