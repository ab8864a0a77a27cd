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

Like bddbddb, which answers the paper's post-processing over numbered
domains, the hierarchy numbers its regions: each has a bit, and a
region's reflexive ancestor set is a bitset -- its own bit or'ed with its
parent's set -- so ``leq`` is a bit test and the no-partial-order pair
count a sum of popcounts.
"""

from __future__ import annotations

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

from repro.pointer import ROOT_REGION, ROOT_REGION_ID, PointerAnalysisResult

__all__ = ["RegionHierarchy", "build_hierarchy", "region_hierarchy"]

# A region's parent while the tree is built: none yet (the root, or a
# region whose join is still to come).
_NONE = -1


class RegionHierarchy:
    """The canonical (tree-shaped) subregion relation and its partial order.

    Nodes are any hashable region representation; ``root`` is the region
    Omega that lives forever.  The pipeline uses the pointer engine's
    region numbers (:func:`region_hierarchy`); the toy-language model and
    the tests use labels.

    ``nodes`` lists the regions by bit: the root first, then the visiting
    order :func:`build_hierarchy` resolved parents in.
    """

    def __init__(
        self,
        nodes: Tuple,
        parents: List[int],
        raw: List[List[int]],
        joined: Iterable[int],
    ) -> None:
        self.nodes = nodes
        self.root = nodes[0]
        self.regions: FrozenSet = frozenset(nodes)
        self._bit: Dict = {node: i for i, node in enumerate(nodes)}
        self.parent: Dict = {
            node: None if i == 0 else nodes[parents[i]]
            for i, node in enumerate(nodes)
        }
        self.joined: FrozenSet = frozenset(nodes[i] for i in joined)
        self._raw = raw
        self._up = _ancestor_bits(parents)
        self._may: Dict[int, int] = {}

    def _decode(self, bits: int) -> FrozenSet:
        nodes = self.nodes
        return frozenset(nodes[i] for i in _bits(bits))

    def ancestors(self, region) -> FrozenSet:
        """Reflexive ancestor set: everything ``region <= .`` holds for."""
        bit = self._bit.get(region)
        if bit is None:
            return frozenset({region})
        return self._decode(self._up[bit])

    def leq(self, x, y) -> bool:
        """``x <= y``: x is y or a (transitive) subregion of y."""
        bx = self._bit.get(x)
        by = self._bit.get(y)
        if bx is None or by is None:
            return x == y
        return self._up[bx] >> by & 1 == 1

    def _may_bits(self, bit: int) -> int:
        found = self._may.get(bit)
        if found is None:
            found = 1 << bit | 1
            frontier = [bit]
            while frontier:
                for parent in self._raw[frontier.pop()]:
                    if not found >> parent & 1:
                        found |= 1 << parent
                        frontier.append(parent)
            self._may[bit] = found
        return found

    def may_ancestors(self, region) -> FrozenSet:
        """Reflexive transitive closure over the *raw* (pre-join)
        may-subregion edges: everything ``region`` might be a subregion of
        under some resolution of the aliasing ambiguity.  Every region may
        be below the root.  Used by the Section 5.4 ranking heuristic."""
        bit = self._bit.get(region)
        if bit is None:
            return frozenset({region, self.root})
        return self._decode(self._may_bits(bit))

    def may_leq(self, x, y) -> bool:
        """Whether ``x <= y`` could hold for some aliasing resolution."""
        bx = self._bit.get(x)
        if bx is None:
            return y == x or y == self.root
        by = self._bit.get(y)
        return by is not None and self._may_bits(bx) >> by & 1 == 1

    def ordered(self, x, y) -> bool:
        """Whether x and y are comparable in either direction."""
        return self.leq(x, y) or self.leq(y, x)

    def no_partial_order_pairs(self) -> Iterator[Tuple]:
        """All ordered pairs (x, y) with ``x !<= y`` -- the paper's
        region-pair set to verify.  Quadratic; for statistics prefer
        :meth:`count_no_partial_order_pairs`."""
        for x, up in zip(self.nodes, self._up):
            for y_bit, y in enumerate(self.nodes):
                if not up >> y_bit & 1:
                    yield (x, y)

    def count_no_partial_order_pairs(self) -> int:
        """|R x R| minus the number of <=-related pairs (R-pair in Fig 11)."""
        related = sum(up.bit_count() for up in self._up)
        return len(self.nodes) ** 2 - related

    def join(self, candidates: Iterable) -> object:
        """Least common ancestor of the candidates in the canonical tree."""
        common = -1
        for candidate in candidates:
            bit = self._bit.get(candidate)
            common &= 0 if bit is None else self._up[bit]
        if common <= 0:  # no candidates, or no common ancestor
            return self.root
        return self.nodes[_deepest(common, self._up)]


def _bits(bits: int) -> Iterator[int]:
    """The set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _deepest(common: int, up: List[Optional[int]]) -> int:
    """The deepest region of ``common``, an intersection of ancestor
    chains: the one whose own ancestor set is all of ``common``."""
    for bit in _bits(common):
        if up[bit] == common:
            return bit
    raise AssertionError("an intersection of ancestor chains is a chain")


def _ancestor_bits(parents: List[int]) -> List[int]:
    """Every region's reflexive ancestor bitset, for an acyclic parent
    list (``_NONE`` ends a chain)."""
    up: List[Optional[int]] = [None] * len(parents)
    for bit in range(len(parents)):
        _chain_bits(bit, parents, up)
    return up  # type: ignore[return-value]


def _chain_bits(bit: int, parents: List[int], up: List[Optional[int]]) -> int:
    """``bit``'s ancestor bitset, built from its parent's and cached in
    ``up`` along the chain."""
    chain = []
    current = bit
    while current != _NONE and up[current] is None:
        chain.append(current)
        current = parents[current]
    bits = 0 if current == _NONE else up[current]
    for node in reversed(chain):
        bits |= 1 << node
        up[node] = bits
    return up[bit]  # type: ignore[return-value]


def build_hierarchy(
    regions: Iterable,
    subregion: Iterable[Tuple],
    root=ROOT_REGION,
    key: Callable = str,
) -> RegionHierarchy:
    """Canonicalize the abstract subregion effect into a tree.

    Regions are visited in ``key`` order (by default their rendered
    names); the order decides which region of a cycle loses its parent
    and the order joins are made in.  Passes:

    1. Collect each region's raw parent candidates (dropping self-loops,
       which recursion-induced merging can create).
    2. Regions with a unique candidate keep it; regions with none become
       children of the root.
    3. Regions with several candidates get the *join* of the candidates,
       computed in the partially-built tree; joins are resolved in
       visiting order and default to the root when the candidates'
       ancestry is not yet determined or cyclic.
    """
    region_set: Set = set(regions) | {root}
    raw_sets: Dict = {r: set() for r in region_set}
    for child, parent in subregion:
        if child == parent:
            continue
        region_set.add(child)
        region_set.add(parent)
        raw_sets.setdefault(child, set()).add(parent)
        raw_sets.setdefault(parent, set())

    nodes = (root, *sorted(region_set - {root}, key=key))
    bit = {node: i for i, node in enumerate(nodes)}
    raw = [[bit[p] for p in raw_sets[node]] for node in nodes]
    count = len(nodes)
    visiting = range(1, count)

    parents = [_NONE] * count
    for region in visiting:
        candidates = raw[region]
        if not candidates:
            parents[region] = 0
        elif len(candidates) == 1:
            parents[region] = candidates[0]
    # Break any accidental cycles among uniquely-parented regions: a
    # region whose chain runs into a cycle is moved below the root.
    for region in visiting:
        if parents[region] == _NONE:
            continue
        seen = {region}
        current = parents[region]
        while current != _NONE:
            if current in seen:
                parents[region] = 0
                break
            seen.add(current)
            current = parents[current]

    # The chains are acyclic from here on, and stay so: a join that would
    # close a cycle falls back to the root.  ``up`` caches ancestor
    # bitsets over the current parents; a region still waiting for its
    # join ends every chain through it.
    up: List[Optional[int]] = [None] * count
    joined: List[int] = []
    for region in visiting:
        if parents[region] != _NONE:
            continue
        common = -1
        for candidate in raw[region]:
            if candidate == 0 or parents[candidate] != _NONE:
                common &= _chain_bits(candidate, parents, up)
        join = 0 if common <= 0 else _deepest(common, up)
        # A join that is ``region``, or whose chain passes through it,
        # would close a cycle (``region`` still ends its own chain).
        if _chain_bits(join, parents, up) >> region & 1:
            join = 0
        parents[region] = join
        # Chains that ended at ``region`` now continue into the join's.
        above = _chain_bits(join, parents, up)
        mask = 1 << region
        for node, bits in enumerate(up):
            if bits is not None and bits & mask:
                up[node] = bits | above
        joined.append(region)
    return RegionHierarchy(nodes, parents, raw, joined)


def region_hierarchy(analysis: PointerAnalysisResult) -> RegionHierarchy:
    """The canonical hierarchy over a pointer analysis's region numbers.

    Regions are visited in the order of their rendered names, the order
    :func:`build_hierarchy` gives the decoded regions, with the number
    breaking ties between equal names; no region is decoded.
    """
    label = analysis.packed.table.label
    return build_hierarchy(
        analysis.region_ids,
        analysis.subregion_ids,
        root=ROOT_REGION_ID,
        key=lambda number: (label(number), number),
    )
