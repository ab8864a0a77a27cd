"""Seeded inputs for the three benchmark workloads.

Every draw comes from ``random.Random`` seeded with the workload name and
the ``--seed`` value, and the analyzer only ever receives the generated C
source.  Structural shapes are stratified: each draw cycles through a
fixed grid of shape parameters in a seeded order, so every seed exercises
the same mix of unit costs and the end-to-end figures of two seeds are
comparable.  What the seed picks -- shape order, region interface, the
seeded-bug mix, edit targets -- is what the correctness
oracle (:attr:`Unit.expected_high`, the generator's ground truth) checks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List

from repro.tool import BatchUnit
from repro.workloads import (
    BUG_KINDS,
    PACKAGES,
    PAPER_SCALE_KLOC,
    WorkloadSpec,
    generate_workload,
    scale_to_kloc,
)

#: Share of the paper-scale corpus (~84 KLOC at 1.0) one sweep covers:
#: ~26 KLOC over the same 22 executables keeps a cold jobs=2 sweep at
#: 3.5-5 s on two cores, so one run holds several sweeps to take a median
#: over.
PAPER_SWEEP_SCALE = 0.3

#: deep-contexts shape grid: (stages, fanout, utilities, helpers, call
#: sites per utility).  Depth 4-5 with fanout 2-3 gives 60-1,800 calling
#: contexts per unit of 140-320 lines.
DEEP_GRID = list(
    itertools.product((4, 5), (2, 3), (2, 3), (1, 2), (1, 2))
)

#: edit-rerun shape grid: (stages, fanout, helpers, objects, utilities).
EDIT_GRID = list(
    itertools.product((1, 2, 3), (1, 2), (1, 2), (1, 2, 3), (0, 1, 2))
)

#: Units in the edit-rerun tree (three grid cycles, ~30 KLOC): a cache of
#: them is primed in set-up, and each op re-sweeps all of them.
EDIT_TREE_UNITS = 3 * len(EDIT_GRID)


@dataclass(frozen=True)
class Unit:
    """One generated translation unit plus its ground truth."""

    batch: BatchUnit
    #: High-ranked warnings the generator seeded (``WorkloadSpec.expected_high``).
    expected_high: int

    @property
    def kloc(self) -> float:
        return len(self.batch.source.splitlines()) / 1000.0


def _bug_mix(rng: random.Random, most_kinds: int) -> Dict[str, int]:
    kinds = rng.sample(sorted(BUG_KINDS), rng.randint(0, most_kinds))
    return {kind: rng.randint(1, 2) for kind in kinds}


def _unit(spec: WorkloadSpec, name: str) -> Unit:
    batch = BatchUnit(
        name=name,
        source=generate_workload(spec).source,
        filename=f"<{spec.name}>",
        interface=spec.interface,
    )
    return Unit(batch=batch, expected_high=spec.expected_high())


def paper_sweep_corpus(seed: int) -> List[Unit]:
    """The 22 paper-scale executables, each with a seeded bug mix.

    Follows :func:`repro.workloads.paper_scale_units`: each package's KLOC
    budget is split over its executables by ``log2(paper_objects)`` and
    each spec is capped at depth 4 / fanout 2 before module replication.
    The seed redraws every executable's bug mix; sizes stay fixed, so
    the largest units, which set the sweep's critical path, do not move
    with the seed.
    """
    rng = random.Random(f"paper-sweep:{seed}")
    units = []
    for model in PACKAGES:
        weights = [
            math.log2(max(exe.paper_objects, 2)) for exe in model.executables
        ]
        budget = PAPER_SCALE_KLOC[model.name] * PAPER_SWEEP_SCALE
        for exe, weight in zip(model.executables, weights):
            base = replace(
                exe.spec,
                stages=min(exe.spec.stages, 4),
                fanout=min(exe.spec.fanout, 2),
                bugs=_bug_mix(rng, 3),
            )
            kloc = budget * weight / sum(weights)
            spec = scale_to_kloc(base, max(kloc, 0.001))
            units.append(_unit(spec, f"{model.name}/{exe.name}"))
    return units


def deep_contexts_units(seed: int, count: int) -> List[Unit]:
    """``count`` context-heavy single units, whole grid cycles first."""
    rng = random.Random(f"deep-contexts:{seed}")
    units: List[Unit] = []
    while len(units) < count:
        for stages, fanout, utilities, helpers, sites in rng.sample(
            DEEP_GRID, len(DEEP_GRID)
        ):
            name = f"deep{len(units):04d}"
            spec = WorkloadSpec(
                name=name,
                interface=rng.choice(("apr", "rc")),
                stages=stages,
                fanout=fanout,
                helpers_per_stage=helpers,
                objects_per_stage=3,
                utility_functions=utilities,
                utility_call_sites=sites,
                bugs=_bug_mix(rng, 3),
            )
            units.append(_unit(spec, name))
    return units[:count]


def edit_rerun_tree(seed: int) -> List[Unit]:
    """:data:`EDIT_TREE_UNITS` small units, whole grid cycles."""
    rng = random.Random(f"edit-rerun:{seed}")
    units: List[Unit] = []
    while len(units) < EDIT_TREE_UNITS:
        for stages, fanout, helpers, objects, utilities in rng.sample(
            EDIT_GRID, len(EDIT_GRID)
        ):
            name = f"tree{len(units):03d}"
            spec = WorkloadSpec(
                name=name,
                interface=rng.choice(("apr", "rc")),
                stages=stages,
                fanout=fanout,
                helpers_per_stage=helpers,
                objects_per_stage=objects,
                utility_functions=utilities,
                utility_call_sites=rng.randint(1, 2),
                bugs=_bug_mix(rng, 2),
            )
            units.append(_unit(spec, name))
    return units


def edit_targets(seed: int, tree_size: int) -> Iterator[int]:
    """The endless seeded sequence of tree indices the edits hit."""
    rng = random.Random(f"edit-rerun-edits:{seed}")
    while True:
        yield rng.randrange(tree_size)


def edit(unit: Unit, op: int) -> Unit:
    """``unit`` with one new statement at the end of ``main``.

    A fresh local is dead code to the region analysis, so the ground
    truth is unchanged, but the source -- and so the cache key -- is new.
    """
    head, sep, tail = unit.batch.source.rpartition("    return 0;")
    if not sep:
        raise ValueError(f"{unit.batch.name}: no 'return 0;' to edit before")
    source = f"{head}    int edit_{op} = {op};\n{sep}{tail}"
    return replace(unit, batch=replace(unit.batch, source=source))
