"""The inconsistency computation as Datalog (Section 5.3.2, eq. 4.12).

RegionWiz's core query -- region pairs with no partial order, mapped
through reflexive ownership, filtered by the access relation -- is a
four-rule Datalog program.  This module runs exactly that program on the
:mod:`repro.datalog` solver over the pointer-analysis effects and the
canonicalized hierarchy; a test cross-checks its ``objectPair`` output
against :func:`repro.core.consistency.check_consistency` on the whole
figure corpus, tying the executable formalism to the production checker.

Two access paths share the encoding:

* :func:`build_consistency_program` -- the full eq. 4.12 closure.
* :func:`build_demand_program` -- a magic-sets-style demand
  transformation for single-warning questions (``--explain``,
  ``--query``): the subregion order and ownership cover are explored only
  from the objects of the *queried* accesses, so answering one question
  never materializes the full ``le``/``regionPair`` closure.  The
  transformed program keeps the original relation names, which keeps
  provenance chains rendered from it faithful to the paper's argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.hierarchy import RegionHierarchy, region_hierarchy
from repro.datalog import Program, SolverStats
from repro.pointer import AbstractObject, PointerAnalysisResult
from repro.util.budget import BudgetMeter

__all__ = [
    "ConsistencyFacts",
    "ConsistencyProgram",
    "accesses_at_location",
    "build_consistency_program",
    "build_demand_program",
    "datalog_object_pairs",
    "extract_consistency_facts",
    "make_consistency_program",
    "solve_demand_pairs",
    "solve_object_pairs",
]

RULES = """
# Reflexive transitive closure of the canonical subregion tree.
le(x, x) :- region(x).
le(x, y) :- parent(x, y).
le(x, z) :- le(x, y), parent(y, z).

# Region pairs with no partial order (the complement, eq. 4.13's domain).
regionPair(x, y) :- region(x), region(y), !le(x, y).

# Reflexive extension of ownership: f= covers the region itself.
ownEq(r, o) :- own(r, o).
ownEq(r, r) :- region(r).

# objectPair (eq. 4.12): an access between objects owned by unordered
# regions.
objectPair(o1, n, o2) :-
    access(o1, n, o2), ownEq(x, o1), ownEq(y, o2), regionPair(x, y).
"""

# The demand transformation of the same query.  ``access`` holds only the
# *queried* triples; ``demandObj``/``demandRegion`` are the magic
# predicates restricting every downstream rule to what those triples can
# reach.  Restricted to the queried accesses, each relation below equals
# its full-program counterpart (DESIGN.md §14 gives the argument), so
# decoders and provenance renderers need no demand-specific cases.
DEMAND_RULES = """
# Magic predicate: objects that appear in a queried access.
demandObj(o1) :- access(o1, n, o2).
demandObj(o2) :- access(o1, n, o2).

# Reflexive ownership, restricted to demanded objects.
ownEq(r, o) :- own(r, o), demandObj(o).
ownEq(o, o) :- region(o), demandObj(o).

# Owner regions of demanded objects: the only sources the subregion
# order is explored from.
demandRegion(x) :- ownEq(x, o), region(x).
le(x, x) :- demandRegion(x).
le(x, z) :- le(x, y), parent(y, z).

# Unordered pairs among demanded owner regions only.
regionPair(x, y) :- demandRegion(x), demandRegion(y), !le(x, y).

# eq. 4.12 over the queried accesses.
objectPair(o1, n, o2) :-
    access(o1, n, o2), ownEq(x, o1), ownEq(y, o2), regionPair(x, y).
"""

#: Input relations (fact-bearing) shared by both programs.
INPUT_RELATIONS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("region", ("O",)),
    ("parent", ("O", "O")),
    ("own", ("O", "O")),
    ("access", ("O", "N", "O")),
)

_DERIVED_RELATIONS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("le", ("O", "O")),
    ("regionPair", ("O", "O")),
    ("ownEq", ("O", "O")),
    ("objectPair", ("O", "N", "O")),
)

_DEMAND_RELATIONS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("demandObj", ("O",)),
    ("demandRegion", ("O",)),
) + _DERIVED_RELATIONS


def datalog_object_pairs(
    analysis: PointerAnalysisResult,
    hierarchy: Optional[RegionHierarchy] = None,
    backend: str = "set",
) -> Set[Tuple[AbstractObject, Optional[int], AbstractObject]]:
    """Solve eq. 4.12 as Datalog; returns {(source, offset, target)}."""
    pairs, _ = solve_object_pairs(analysis, hierarchy, backend)
    return pairs


@dataclass
class ConsistencyFacts:
    """The eq. 4.12 input facts, dense-encoded, plus the decoding maps.

    ``facts`` maps each input relation name to its encoded tuple set.
    """

    hierarchy: RegionHierarchy
    entities: List[AbstractObject]
    offsets: List[Optional[int]]
    entity_index: Dict[AbstractObject, int]
    offset_index: Dict[Optional[int], int]
    facts: Dict[str, Set[Tuple[int, ...]]]


@dataclass
class ConsistencyProgram:
    """The eq. 4.12 Datalog program plus its dense-index decoding maps."""

    program: Program
    entities: List[AbstractObject]
    offsets: List[Optional[int]]
    entity_index: Dict[AbstractObject, int]
    offset_index: Dict[Optional[int], int]

    def object_pair_key(
        self,
        source: AbstractObject,
        offset: Optional[int],
        target: AbstractObject,
    ) -> Tuple[int, int, int]:
        """Encode an object pair as an ``objectPair`` tuple."""
        return (
            self.entity_index[source],
            self.offset_index[offset],
            self.entity_index[target],
        )

    def decode_pairs(
        self, tuples: Iterable[Tuple[int, int, int]]
    ) -> Set[Tuple[AbstractObject, Optional[int], AbstractObject]]:
        """Decode ``objectPair`` tuples back to object triples."""
        return {
            (self.entities[source], self.offsets[offset],
             self.entities[target])
            for source, offset, target in tuples
        }


def extract_consistency_facts(
    analysis: PointerAnalysisResult,
    hierarchy: Optional[RegionHierarchy] = None,
) -> ConsistencyFacts:
    """Encode the analysis effects as eq. 4.12 input-fact tuples.

    ``hierarchy`` is over the analysis's region numbers (by default
    :func:`~repro.core.hierarchy.region_hierarchy`'s); its tree is
    decoded, and the effects are read from the decoded relations, not
    from the int forms the native checker reads.  The
    entity/offset orderings are deterministic (sorted), so two
    extractions of the same analysis produce identical encodings.
    """
    if hierarchy is None:
        hierarchy = region_hierarchy(analysis)
    decode = analysis.packed.table.object
    regions = {number: decode(number) for number in hierarchy.regions}

    # Dense index for regions+objects (one shared object domain keeps the
    # ownEq/access joins single-domain) and for offsets.
    entities: List[AbstractObject] = sorted(
        set(regions.values()) | set(analysis.objects), key=str
    )
    entity_index: Dict[AbstractObject, int] = {
        obj: i for i, obj in enumerate(entities)
    }
    offsets: List[Optional[int]] = sorted(
        {offset for _, offset, _ in analysis.accesses},
        key=lambda value: (value is None, value),
    )
    offset_index = {offset: i for i, offset in enumerate(offsets)}

    facts: Dict[str, Set[Tuple[int, ...]]] = {
        name: set() for name, _ in INPUT_RELATIONS
    }
    for number, region in regions.items():
        facts["region"].add((entity_index[region],))
        parent = hierarchy.parent.get(number)
        if parent is not None:
            facts["parent"].add(
                (entity_index[region], entity_index[regions[parent]])
            )
    for region, obj in analysis.ownership:
        if region in entity_index and obj in entity_index:
            facts["own"].add((entity_index[region], entity_index[obj]))
    for source, offset, target in analysis.accesses:
        if source in entity_index and target in entity_index:
            facts["access"].add(
                (
                    entity_index[source],
                    offset_index[offset],
                    entity_index[target],
                )
            )

    return ConsistencyFacts(
        hierarchy=hierarchy,
        entities=entities,
        offsets=offsets,
        entity_index=entity_index,
        offset_index=offset_index,
        facts=facts,
    )


def make_consistency_program(
    num_entities: int,
    num_offsets: int,
    backend: str = "set",
    demand: bool = False,
) -> Program:
    """Declare the eq. 4.12 program (domains, relations, rules), no facts.

    Shared by the full and the demand-transformed builders; ``demand``
    picks the rule set and its relations.
    """
    program = Program(backend=backend)
    program.domain("O", max(num_entities, 1))
    program.domain("N", max(num_offsets, 1))
    derived = _DEMAND_RELATIONS if demand else _DERIVED_RELATIONS
    for name, domains in INPUT_RELATIONS + derived:
        program.relation(name, list(domains))
    program.rules(DEMAND_RULES if demand else RULES)
    return program


def build_consistency_program(
    analysis: PointerAnalysisResult,
    hierarchy: Optional[RegionHierarchy] = None,
    backend: str = "set",
) -> ConsistencyProgram:
    """Build (without solving) the consistency query over ``analysis``.

    Exposed separately from :func:`solve_object_pairs` so callers that
    need the decoding maps -- the ``--explain`` provenance renderer runs
    the same program with derivation recording on -- share one builder.
    """
    extracted = extract_consistency_facts(analysis, hierarchy)
    program = make_consistency_program(
        len(extracted.entities), len(extracted.offsets), backend
    )
    for name, tuples in extracted.facts.items():
        for values in tuples:
            program.fact(name, *values)
    return ConsistencyProgram(
        program=program,
        entities=extracted.entities,
        offsets=extracted.offsets,
        entity_index=extracted.entity_index,
        offset_index=extracted.offset_index,
    )


def build_demand_program(
    analysis: PointerAnalysisResult,
    hierarchy: Optional[RegionHierarchy] = None,
    queries: Iterable[
        Tuple[AbstractObject, Optional[int], AbstractObject]
    ] = (),
    backend: str = "set",
) -> ConsistencyProgram:
    """The demand-transformed query, seeded with ``queries`` accesses.

    ``queries`` are (source, offset, target) access triples (normally a
    subset of ``analysis.accesses``); only they are asserted into
    ``access``, and the magic predicates confine the ownership cover and
    subregion closure to what those triples reach.  ``objectPair`` equals
    the full program's relation restricted to the queried accesses.
    """
    extracted = extract_consistency_facts(analysis, hierarchy)
    program = make_consistency_program(
        len(extracted.entities), len(extracted.offsets), backend,
        demand=True,
    )
    for name in ("region", "parent", "own"):
        for values in extracted.facts[name]:
            program.fact(name, *values)
    for source, offset, target in queries:
        if (
            source in extracted.entity_index
            and target in extracted.entity_index
            and offset in extracted.offset_index
        ):
            program.fact(
                "access",
                extracted.entity_index[source],
                extracted.offset_index[offset],
                extracted.entity_index[target],
            )
    return ConsistencyProgram(
        program=program,
        entities=extracted.entities,
        offsets=extracted.offsets,
        entity_index=extracted.entity_index,
        offset_index=extracted.offset_index,
    )


def solve_demand_pairs(
    analysis: PointerAnalysisResult,
    hierarchy: Optional[RegionHierarchy] = None,
    queries: Iterable[
        Tuple[AbstractObject, Optional[int], AbstractObject]
    ] = (),
    backend: str = "set",
    meter: Optional[BudgetMeter] = None,
) -> Tuple[
    Set[Tuple[AbstractObject, Optional[int], AbstractObject]], SolverStats
]:
    """Demand-solve eq. 4.12 for the queried accesses only."""
    built = build_demand_program(analysis, hierarchy, queries, backend)
    solution = built.program.solve(meter=meter)
    return built.decode_pairs(solution.tuples("objectPair")), solution.stats


def accesses_at_location(
    analysis: PointerAnalysisResult,
    module,
    filename: str,
    line: int,
) -> List[Tuple[AbstractObject, Optional[int], AbstractObject]]:
    """Access triples anchored at ``filename:line`` — the ``--query`` seed.

    A triple matches when the store instruction that created it, or the
    allocation site of either end, sits on that line.  ``filename``
    matches exactly or by basename, so ``--query file.c:12`` works without
    repeating the directory the source was given as.
    """

    def matches(loc) -> bool:
        if loc is None or loc.line != line:
            return False
        name = loc.filename
        if name == filename:
            return True
        return "/" not in filename and name.rsplit("/", 1)[-1] == filename

    def site_loc(uid: int):
        if not uid:
            return None
        try:
            return module.instr(uid).loc
        except KeyError:
            return None

    found = []
    for triple in sorted(analysis.accesses, key=str):
        source, offset, target = triple
        locs = [site_loc(source.site), site_loc(target.site)]
        locs.extend(
            site_loc(uid)
            for uid in analysis.access_sites.get(triple, frozenset())
        )
        if any(matches(loc) for loc in locs):
            found.append(triple)
    return found


def solve_object_pairs(
    analysis: PointerAnalysisResult,
    hierarchy: Optional[RegionHierarchy] = None,
    backend: str = "set",
    meter: Optional[BudgetMeter] = None,
) -> Tuple[
    Set[Tuple[AbstractObject, Optional[int], AbstractObject]], SolverStats
]:
    """Like :func:`datalog_object_pairs` but also returns solver stats."""
    built = build_consistency_program(analysis, hierarchy, backend)
    solution = built.program.solve(meter=meter)
    pairs = built.decode_pairs(solution.tuples("objectPair"))
    return pairs, solution.stats
