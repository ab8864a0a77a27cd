"""Region hierarchy canonicalization (Section 4.3).

The abstract subregion effect Pi is an over-approximation: aliasing can
give one region several possible parents, while "generally, the subregion
relation should form a tree, where each region (except for the root) has
one and only one parent".  The paper's conservative repair: "we consider
the parent region of r as the join of all its possible parent regions",
turning the region set into a join-semilattice with the root region at the
top (Example 4.4).

Being *less* precise here is what keeps the verification sound: after the
join, r is no longer below any individual candidate parent, so pairs like
Figure 3's (r2, r1) land in the no-partial-order set and get verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.pointer import AbstractObject, ROOT_REGION

__all__ = ["RegionHierarchy", "build_hierarchy"]


@dataclass
class RegionHierarchy:
    """The canonical (tree-shaped) subregion relation and its partial order.

    Nodes are any hashable region representation; ``root`` is the region
    Omega that lives forever.  The pointer analysis uses
    :class:`~repro.pointer.AbstractObject` nodes; the toy-language model
    uses its own site labels.
    """

    regions: FrozenSet
    parent: Dict
    raw_parents: Dict
    joined: FrozenSet  # regions whose parent was a join
    root: object = ROOT_REGION
    _ancestors: Dict = field(default_factory=dict, repr=False)
    _may_ancestors: Dict = field(default_factory=dict, repr=False)

    def ancestors(self, region) -> FrozenSet:
        """Reflexive ancestor set: everything ``region <= .`` holds for."""
        cached = self._ancestors.get(region)
        if cached is not None:
            return cached
        chain = [region]
        current = self.parent.get(region)
        while current is not None and current not in chain:
            chain.append(current)
            current = self.parent.get(current)
        result = frozenset(chain)
        self._ancestors[region] = result
        return result

    def leq(self, x, y) -> bool:
        """``x <= y``: x is y or a (transitive) subregion of y."""
        return y in self.ancestors(x)

    def may_ancestors(self, region) -> FrozenSet:
        """Reflexive transitive closure over the *raw* (pre-join)
        may-subregion edges: everything ``region`` might be a subregion of
        under some resolution of the aliasing ambiguity.  Every region may
        be below the root.  Used by the Section 5.4 ranking heuristic."""
        cached = self._may_ancestors.get(region)
        if cached is not None:
            return cached
        result = {region, self.root}
        frontier = [region]
        while frontier:
            current = frontier.pop()
            for parent in self.raw_parents.get(current, frozenset()):
                if parent not in result:
                    result.add(parent)
                    frontier.append(parent)
        frozen = frozenset(result)
        self._may_ancestors[region] = frozen
        return frozen

    def may_leq(self, x, y) -> bool:
        """Whether ``x <= y`` could hold for some aliasing resolution."""
        return y in self.may_ancestors(x)

    def ordered(self, x, y) -> bool:
        """Whether x and y are comparable in either direction."""
        return self.leq(x, y) or self.leq(y, x)

    def no_partial_order_pairs(self) -> Iterator[Tuple]:
        """All ordered pairs (x, y) with ``x !<= y`` -- the paper's
        region-pair set to verify.  Quadratic; for statistics prefer
        :meth:`count_no_partial_order_pairs`."""
        for x in self.regions:
            x_up = self.ancestors(x)
            for y in self.regions:
                if y not in x_up:
                    yield (x, y)

    def count_no_partial_order_pairs(self) -> int:
        """|R x R| minus the number of <=-related pairs (R-pair in Fig 11)."""
        total = len(self.regions) ** 2
        related = sum(len(self.ancestors(x)) for x in self.regions)
        return total - related

    def join(self, candidates: Iterable) -> object:
        """Least common ancestor of the candidates in the canonical tree."""
        candidate_list = list(candidates)
        if not candidate_list:
            return self.root
        common = set(self.ancestors(candidate_list[0]))
        for candidate in candidate_list[1:]:
            common &= self.ancestors(candidate)
        if not common:
            return self.root
        # The least element of an ancestor chain intersection is the one
        # with the largest ancestor set contained in the chain -- i.e. the
        # deepest.  Depth = |ancestors|.
        return max(common, key=lambda r: (len(self.ancestors(r)), str(r)))


def build_hierarchy(
    regions: Iterable,
    subregion: Iterable[Tuple],
    root=ROOT_REGION,
) -> RegionHierarchy:
    """Canonicalize the abstract subregion effect into a tree.

    Passes:

    1. Collect each region's raw parent candidates (dropping self-loops,
       which recursion-induced merging can create).
    2. Regions with a unique candidate keep it; regions with none become
       children of the root.
    3. Regions with several candidates get the *join* of the candidates,
       computed in the partially-built tree; joins are resolved in
       topological order of the candidate graph and default to the root
       when the candidates' ancestry is not yet determined or cyclic.
    """
    region_set: Set = set(regions) | {root}
    raw: Dict = {r: set() for r in region_set}
    for child, parent in subregion:
        if child == parent:
            continue
        region_set.add(child)
        region_set.add(parent)
        raw.setdefault(child, set()).add(parent)
        raw.setdefault(parent, set())

    hierarchy = RegionHierarchy(
        regions=frozenset(region_set),
        parent={root: None},
        raw_parents={r: frozenset(ps) for r, ps in raw.items()},
        joined=frozenset(),
        root=root,
    )

    # Resolve unique parents first, then joins, iterating until stable so
    # joins can use ancestry established by earlier resolutions.  Cycles
    # among ambiguous regions fall back to the root.
    joined: Set = set()
    # One deterministic visiting order for all three passes: rendering
    # every region name is the costly part of the sort.
    order = sorted({r for r in region_set if r != root}, key=str)
    for region in order:
        candidates = raw.get(region, set()) - {region}
        if not candidates:
            hierarchy.parent[region] = root
        elif len(candidates) == 1:
            hierarchy.parent[region] = next(iter(candidates))
    # Break any accidental cycles among uniquely-parented regions.
    for region in order:
        if hierarchy.parent.get(region) is None:
            continue
        seen = {region}
        current = hierarchy.parent[region]
        while current is not None:
            if current in seen:
                hierarchy.parent[region] = root
                break
            seen.add(current)
            current = hierarchy.parent.get(current)
    hierarchy._ancestors.clear()
    for region in order:
        if hierarchy.parent.get(region) is not None:
            continue
        candidates = raw.get(region, set()) - {region}
        join = hierarchy.join(
            c for c in candidates if hierarchy.parent.get(c) is not None
            or c == root
        )
        if join == region:  # would self-parent via an ancestor chain
            join = root
        hierarchy.parent[region] = join
        # The join's own chain may pass through ``region`` (its ancestry
        # was computed while region was a chain terminator): that would
        # close a cycle, so fall back to the root.
        seen = set()
        current = join
        while current is not None:
            if current == region or current in seen:
                hierarchy.parent[region] = root
                break
            seen.add(current)
            current = hierarchy.parent.get(current)
        joined.add(region)
        hierarchy._ancestors.clear()
    hierarchy.joined = frozenset(joined)
    hierarchy._ancestors.clear()
    return hierarchy
