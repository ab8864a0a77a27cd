"""Region lifetime consistency (Sections 4.2 and 5.3.2).

The instantiation of conditional correlation: with ``<=`` the reflexive
transitive closure of the canonical subregion tree and ``phi=`` the
reflexive extension of ownership (a region "owns" itself, so an object
holding a pointer *to a region* is covered), region lifetime is consistent
iff for every region pair ``x !<= y``, no object of ``phi=(x)`` accesses
an object of ``phi=(y)`` (equation 4.13).

Rather than materializing the (potentially billions-large, see Figure 11)
region-pair set, the checker iterates the access effect sigma and tests
each access's owner-region combinations against the partial order -- the
same result, linear in |sigma|.  It works on the pointer engine's object
numbers: owner sets are sets of region numbers, the verdict is memoised
per pair of owner sets, and only the violating accesses and their owners
are decoded to :class:`~repro.pointer.AbstractObject` form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.correlation import ConditionalCorrelation
from repro.core.hierarchy import (
    RegionHierarchy,
    build_hierarchy,
    region_hierarchy,
)
from repro.pointer import AbstractObject, PointerAnalysisResult
from repro.pointer.analysis import Access, AccessKey

__all__ = [
    "ObjectPairWarning",
    "ConsistencyResult",
    "check_consistency",
    "consistency_from_pairs",
]


@dataclass(frozen=True)
class ObjectPairWarning:
    """objectPair(c0,f0,n,c1,f1): ``source`` may hold a dangling pointer at
    byte ``offset`` to ``target``."""

    source: AbstractObject
    offset: Optional[int]
    target: AbstractObject
    source_owners: FrozenSet[AbstractObject]
    target_owners: FrozenSet[AbstractObject]
    store_uids: FrozenSet[int]

    @property
    def never_safe(self) -> bool:
        """The Section 5.4 high-rank criterion: True when *no* owner
        combination ``x <= y`` could hold even in the raw may-subregion
        relation -- i.e., the pointer cannot be an intra-region or
        safe-direction pointer under any resolution of the aliasing
        ambiguity.  (Pairs where the relation *may* hold are the Figure-5
        intra-region false positives the heuristic filters.)  Computed
        eagerly at construction into ``_never_safe``."""
        return self._never_safe  # type: ignore[attr-defined]

    def __str__(self) -> str:
        offset = "?" if self.offset is None else self.offset
        return (
            f"{self.source} may hold a dangling pointer at offset {offset}"
            f" to {self.target}"
        )


@dataclass
class ConsistencyResult:
    """All Section 5.3.2 outputs plus the Figure 11 statistics."""

    hierarchy: RegionHierarchy
    object_pairs: List[ObjectPairWarning]
    num_regions: int
    num_objects: int
    subregion_size: int
    ownership_size: int
    heap_size: int
    region_pair_count: int

    @property
    def is_consistent(self) -> bool:
        return not self.object_pairs

    @property
    def o_pair_count(self) -> int:
        return len(self.object_pairs)


def _owner_sets(analysis: PointerAnalysisResult) -> List[FrozenSet[int]]:
    """phi= inverted, per object number: a region covers itself (the
    reflexive extension f=), a normal object is covered by the regions
    that own it.

    Equal sets are one object, so a memo keyed by owner sets compares
    them by identity.
    """
    singletons = {
        region: frozenset((region,)) for region in analysis.region_ids
    }
    interned: Dict[FrozenSet[int], FrozenSet[int]] = {}
    owners: List[FrozenSet[int]] = [frozenset()] * len(analysis.packed.table)
    for region, obj in analysis.ownership_ids:
        found = owners[obj]
        if found:
            found = found | singletons[region]
            owners[obj] = interned.setdefault(found, found)
        else:
            owners[obj] = singletons[region]
    for region, found in singletons.items():
        owners[region] = found
    return owners


def _build_result(
    analysis: PointerAnalysisResult,
    hierarchy: RegionHierarchy,
    owners: List[FrozenSet[int]],
    violating: Iterable[AccessKey],
) -> ConsistencyResult:
    """The one warning builder behind both public entry points.

    ``hierarchy`` is over the analysis's region numbers and ``owners``
    is :func:`_owner_sets`'.  Builds an :class:`ObjectPairWarning`
    (owners, store sites, the Section 5.4 never-safe rank) for every
    ``violating`` access, in the decoded accesses' sorted order.  Only
    these accesses and their owners are decoded: few accesses violate.
    """
    table = analysis.packed.table
    shift = analysis.packed.offset_bits
    selected = []
    for key in violating:
        access = analysis.packed.access(key)
        selected.append((str(access), access, key))
    selected.sort(key=lambda item: item[0])

    decoded: Dict[FrozenSet[int], FrozenSet[AbstractObject]] = {}

    def decode(numbers: FrozenSet[int]) -> FrozenSet[AbstractObject]:
        found = decoded.get(numbers)
        if found is None:
            found = decoded[numbers] = frozenset(map(table.object, numbers))
        return found

    warnings: List[ObjectPairWarning] = []
    for _, (source, offset, target), key in selected:
        source_owners = owners[key[0] >> shift]
        target_owners = owners[key[1]]
        never_safe = all(
            not hierarchy.may_leq(x, y)
            for x in source_owners
            for y in target_owners
        )
        warning = ObjectPairWarning(
            source=source,
            offset=offset,
            target=target,
            source_owners=decode(source_owners),
            target_owners=decode(target_owners),
            store_uids=frozenset(analysis.access_site_ids.get(key, ())),
        )
        object.__setattr__(warning, "_never_safe", never_safe)
        warnings.append(warning)

    return ConsistencyResult(
        hierarchy=hierarchy,
        object_pairs=warnings,
        num_regions=analysis.num_regions,
        num_objects=analysis.num_objects,
        subregion_size=len(analysis.subregion_ids),
        ownership_size=len(analysis.ownership_ids),
        heap_size=len(analysis.access_site_ids),
        region_pair_count=hierarchy.count_no_partial_order_pairs(),
    )


def check_consistency(
    analysis: PointerAnalysisResult,
    hierarchy: Optional[RegionHierarchy] = None,
) -> ConsistencyResult:
    """Verify the non-access property over region pairs without partial
    order; returns every violating object pair.  ``hierarchy``, when
    given, is :func:`~repro.core.hierarchy.region_hierarchy`'s."""
    if hierarchy is None:
        hierarchy = region_hierarchy(analysis)
    owners = _owner_sets(analysis)
    shift = analysis.packed.offset_bits
    # The verdict depends on the two owner sets alone; objects share them.
    verdicts: Dict[Tuple[FrozenSet[int], FrozenSet[int]], bool] = {}
    violating: List[AccessKey] = []
    for key in analysis.access_site_ids:
        pair = (owners[key[0] >> shift], owners[key[1]])
        verdict = verdicts.get(pair)
        if verdict is None:
            source_owners, target_owners = pair
            # Objects outside the region discipline constrain nothing.
            # Otherwise, Proposition 2.2: safe iff *every* owner
            # combination is ordered x <= y; a single unordered
            # combination is a potential dangling pointer.
            verdict = verdicts[pair] = (
                bool(source_owners)
                and bool(target_owners)
                and not all(
                    hierarchy.leq(x, y)
                    for x in source_owners
                    for y in target_owners
                )
            )
        if verdict:
            violating.append(key)
    return _build_result(analysis, hierarchy, owners, violating)


def consistency_from_pairs(
    analysis: PointerAnalysisResult,
    hierarchy: RegionHierarchy,
    pairs: Set[Access],
    accesses: Optional[Iterable[Access]] = None,
) -> ConsistencyResult:
    """Rebuild a :class:`ConsistencyResult` from a known violating set.

    The demand-transformed eq. 4.12 Datalog path (``--query``) decides
    *which* accesses violate; this decoder rebuilds the same
    :class:`ObjectPairWarning` objects — owners, store sites, the
    Section 5.4 never-safe rank — that :func:`check_consistency` would
    have built for them, in the same sorted order, so downstream ranking
    and fingerprints are byte-identical.  ``hierarchy`` is over the
    analysis's region numbers.  ``accesses`` restricts the iteration (the
    demand path passes its query seed); by default every access is
    considered.
    """
    key_of = analysis.packed.access_key
    in_pairs = {key_of(pair) for pair in pairs}
    candidates = (
        analysis.access_site_ids
        if accesses is None
        else map(key_of, accesses)
    )
    return _build_result(
        analysis,
        hierarchy,
        _owner_sets(analysis),
        [key for key in candidates if key in in_pairs],
    )


def region_lifetime_correlation(
    analysis: PointerAnalysisResult,
    hierarchy: Optional[RegionHierarchy] = None,
) -> Tuple[ConditionalCorrelation, FrozenSet[AbstractObject]]:
    """The Definition 4.1 correlation ``<p+, f=, s*>`` as a first-class
    :class:`ConditionalCorrelation` over the region carrier.

    ``f`` is the *complement* of the partial order (pairs that need
    verification); ``phi`` maps a region to its extended-ownership object
    set; ``g`` is the non-access relation between object sets.  Checking
    consistency of this correlation over all regions is equivalent to
    :func:`check_consistency` (a test asserts that).  It reads the
    decoded relations, so ``hierarchy`` is over the decoded regions.
    """
    if hierarchy is None:
        hierarchy = build_hierarchy(analysis.regions, analysis.subregion)
    owned: Dict[AbstractObject, Set[AbstractObject]] = {
        region: {region} for region in hierarchy.regions
    }
    for region, obj in analysis.ownership:
        owned.setdefault(region, {region}).add(obj)
    access_pairs = {
        (source, target) for source, _, target in analysis.accesses
    }

    def f(x: AbstractObject, y: AbstractObject) -> bool:
        return not hierarchy.leq(x, y)

    def phi(x: AbstractObject) -> FrozenSet[AbstractObject]:
        return frozenset(owned.get(x, {x}))

    def g(s: FrozenSet[AbstractObject], t: FrozenSet[AbstractObject]) -> bool:
        return not any(
            (o1, o2) in access_pairs for o1 in s for o2 in t
        )

    return (
        ConditionalCorrelation(f, phi, g, name="region-lifetime"),
        hierarchy.regions,
    )
