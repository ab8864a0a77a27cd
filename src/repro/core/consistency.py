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
same result, linear in |sigma|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.correlation import ConditionalCorrelation
from repro.core.hierarchy import RegionHierarchy, build_hierarchy
from repro.pointer import AbstractObject, PointerAnalysisResult, ROOT_REGION

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


Access = Tuple[AbstractObject, Optional[int], AbstractObject]


def _owners(
    obj: AbstractObject,
    owned_by: Dict[AbstractObject, Set[AbstractObject]],
) -> FrozenSet[AbstractObject]:
    """phi= inverted: the regions whose extended ownership covers obj.

    A region covers itself (the reflexive extension f=); a normal object
    is covered by the regions that own it.
    """
    if obj.is_region:
        return frozenset({obj})
    return frozenset(owned_by.get(obj, set()))


def _build_result(
    analysis: PointerAnalysisResult,
    hierarchy: RegionHierarchy,
    candidates: Iterable[Access],
    violates: Callable[
        [Access, FrozenSet[AbstractObject], FrozenSet[AbstractObject]], bool
    ],
) -> ConsistencyResult:
    """The one warning builder behind both public entry points.

    Builds an :class:`ObjectPairWarning` (owners, store sites, the
    Section 5.4 never-safe rank) for every access of ``candidates`` that
    ``violates`` selects, given the access and its source and target
    owner sets, in the accesses' sorted order.  Only the selected
    accesses are sorted: the sort key renders each access, and few
    accesses violate.
    """
    owned_by: Dict[AbstractObject, Set[AbstractObject]] = {}
    for region, obj in analysis.ownership:
        owned_by.setdefault(obj, set()).add(region)

    # Owner sets per object, keyed by identity: the accesses share the
    # analysis's object instances, which stay alive for the whole loop,
    # and an AbstractObject hashes in Python.
    owners: Dict[int, FrozenSet[AbstractObject]] = {}

    def owners_of(obj: AbstractObject) -> FrozenSet[AbstractObject]:
        found = owners.get(id(obj))
        if found is None:
            found = owners[id(obj)] = _owners(obj, owned_by)
        return found

    selected = []
    for access in candidates:
        source_owners = owners_of(access[0])
        target_owners = owners_of(access[2])
        if violates(access, source_owners, target_owners):
            selected.append(
                (str(access), access, source_owners, target_owners)
            )
    # A stable sort on the key alone: ties keep the candidates' order.
    selected.sort(key=lambda item: item[0])

    warnings: List[ObjectPairWarning] = []
    for _, access, source_owners, target_owners in selected:
        source, offset, target = access
        never_safe = all(
            not hierarchy.may_leq(x, y)
            for x in source_owners
            for y in target_owners
        )
        warning = ObjectPairWarning(
            source=source,
            offset=offset,
            target=target,
            source_owners=source_owners,
            target_owners=target_owners,
            store_uids=analysis.access_sites.get(access, frozenset()),
        )
        object.__setattr__(warning, "_never_safe", never_safe)
        warnings.append(warning)

    return ConsistencyResult(
        hierarchy=hierarchy,
        object_pairs=warnings,
        num_regions=len(analysis.regions),
        num_objects=len(analysis.objects),
        subregion_size=len(analysis.subregion),
        ownership_size=len(analysis.ownership),
        heap_size=len(analysis.accesses),
        region_pair_count=hierarchy.count_no_partial_order_pairs(),
    )


def check_consistency(
    analysis: PointerAnalysisResult,
    hierarchy: Optional[RegionHierarchy] = None,
) -> ConsistencyResult:
    """Verify the non-access property over region pairs without partial
    order; returns every violating object pair."""
    if hierarchy is None:
        hierarchy = build_hierarchy(analysis.regions, analysis.subregion)

    def violates(
        access: Access,
        source_owners: FrozenSet[AbstractObject],
        target_owners: FrozenSet[AbstractObject],
    ) -> bool:
        if not source_owners or not target_owners:
            # Objects outside the region discipline constrain nothing.
            return False
        # Proposition 2.2: safe iff *every* owner combination is ordered
        # x <= y; a single unordered combination is a potential dangling
        # pointer.
        return not all(
            hierarchy.leq(x, y)
            for x in source_owners
            for y in target_owners
        )

    return _build_result(analysis, hierarchy, analysis.accesses, violates)


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
    have built for them, iterating the same sorted order so downstream
    ranking and fingerprints are byte-identical.  ``accesses`` restricts
    the iteration (the demand path passes its query seed); by default
    every access is considered.
    """
    return _build_result(
        analysis,
        hierarchy,
        analysis.accesses if accesses is None else accesses,
        lambda access, _source_owners, _target_owners: access in pairs,
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
    :func:`check_consistency` (a test asserts that).
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
