"""CI smoke test: cold-then-warm persistent-cache sweep.

Runs the package corpus through :func:`repro.tool.batch.run_batch` three
times against one fresh cache directory and asserts the warm-start
contract:

* the cold run misses for every unit and stores every successful one;
* each warm run -- one serial, one at ``jobs=2``, whose scheduler
  probes the cache for every unit up front -- reports a hit for every
  unit, replays **every** unit from the cache (zero units re-analyzed),
  and reproduces the cold run's statuses, exit codes, and warning sets.

Usage: ``PYTHONPATH=src python benchmarks/smoke_cache_warm.py``
"""

from __future__ import annotations

import sys
import tempfile
import time

from repro.tool.batch import run_batch
from repro.tool.cache import AnalysisCache
from repro.workloads import all_package_units


def check_warm(cold, warm, hits):
    """The ways a warm sweep breaks the warm-start contract."""
    failures = []
    if hits != len(cold.outcomes):
        failures.append(f"{hits} cache hit(s) for {len(cold.outcomes)} units")
    reanalyzed = [o.unit for o in warm.outcomes if not o.cached]
    if reanalyzed:
        failures.append(
            f"re-analyzed {len(reanalyzed)} unit(s):"
            f" {', '.join(reanalyzed[:5])}"
        )
    if warm.exit_code() != cold.exit_code():
        failures.append(
            f"exit {warm.exit_code()} != cold {cold.exit_code()}"
        )
    for before, after in zip(cold.outcomes, warm.outcomes):
        if (
            before.unit != after.unit
            or before.status != after.status
            or before.exit_code != after.exit_code
            or before.warning_lines != after.warning_lines
        ):
            failures.append(f"unit {before.unit}: warm outcome diverged")
    return failures


def main() -> int:
    units = all_package_units()
    failures = []
    with tempfile.TemporaryDirectory(prefix="regionwiz-cache-") as root:
        cache = AnalysisCache(root)
        start = time.perf_counter()
        cold = run_batch(units, keep_going=True, cache=cache)
        t_cold = time.perf_counter() - start
        warm_seconds = {}
        for jobs in (1, 2):
            hits_before = cache.hits
            start = time.perf_counter()
            warm = run_batch(units, keep_going=True, jobs=jobs, cache=cache)
            warm_seconds[jobs] = time.perf_counter() - start
            failures.extend(
                f"warm jobs={jobs}: {failure}"
                for failure in check_warm(
                    cold, warm, hits=cache.hits - hits_before
                )
            )

        print(
            f"smoke: {len(units)} unit(s); cold {t_cold:.2f}s"
            f" ({cache.misses} miss(es)), warm {warm_seconds[1]:.2f}s"
            f" serial / {warm_seconds[2]:.2f}s jobs=2"
            f" ({cache.hits} hit(s))"
        )

    if failures:
        for failure in failures:
            print(f"smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"smoke: OK -- both warm runs replayed all {len(units)} unit(s)"
        " from cache"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
