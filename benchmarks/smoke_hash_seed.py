"""CI smoke test: object numbering does not depend on the string-hash seed.

The pointer solver numbers objects in visiting order, and a result's
object table, round count and visit count are part of what the cache and
the post-processing read.  A plan compiled while iterating a set or a
dict of strings would number objects in ``PYTHONHASHSEED`` order, so two
interpreters could disagree on the same unit.

This runs the pointer analysis over the 13 figures, one cycle of the
``deep-contexts`` shape grid and the ``paper-sweep`` seed-1 corpus (the
repository benchmark's inputs) in two child interpreters, under
``PYTHONHASHSEED=0`` and ``=1``.  Each child hashes, per unit and in
order, the result's ``iterations``, ``visits`` and ``packed.table.keys``.
It exits 1 if the two runs' digests differ, naming the first units that
do.

Usage: ``PYTHONPATH=src python benchmarks/smoke_hash_seed.py``
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parents[1]
SEEDS = ("0", "1")


def unit_digests() -> Dict[str, str]:
    """Per unit name, the digest of its numbering (run in a child)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs  # the repository benchmark's seeded inputs

    from repro.callgraph import build_call_graph
    from repro.ir import lower
    from repro.lang import analyze, parse
    from repro.pointer import analyze_pointers
    from repro.workloads import figure_units

    units = list(figure_units())
    units += [unit.batch for unit in inputs.deep_contexts_units(1, 32)]
    units += [unit.batch for unit in inputs.paper_sweep_corpus(1)]
    digests: Dict[str, str] = {}
    for unit in units:
        module = lower(analyze(parse(unit.source, unit.filename)))
        graph = build_call_graph(module, entry=unit.entry)
        result = analyze_pointers(graph, unit.region_interface())
        numbering = (result.iterations, result.visits, result.packed.table.keys)
        digests[unit.name] = hashlib.sha256(repr(numbering).encode()).hexdigest()
    return digests


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        json.dump(unit_digests(), sys.stdout)
        return 0
    runs = {}
    for seed in SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        child = subprocess.run(
            [sys.executable, __file__, "--child"],
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            print(f"hash-seed smoke: the PYTHONHASHSEED={seed} run failed")
            return 1
        runs[seed] = json.loads(child.stdout)
    first, second = (runs[seed] for seed in SEEDS)
    differing = [name for name in first if first[name] != second.get(name)]
    if differing or first.keys() != second.keys():
        print(
            f"hash-seed smoke: FAILED, {len(differing)} of {len(first)} units"
            f" number objects differently: {', '.join(differing[:5])}"
        )
        return 1
    overall = hashlib.sha256(json.dumps(first, sort_keys=True).encode())
    print(
        f"hash-seed smoke: {len(first)} units, one digest under"
        f" PYTHONHASHSEED={' and '.join(SEEDS)}: {overall.hexdigest()[:16]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
