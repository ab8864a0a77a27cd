"""Property tests: hierarchy canonicalization invariants.

Random raw subregion edge sets (including multi-parent ambiguity, cycles,
self loops) must always canonicalize to a genuine tree rooted at the root
region, and the canonical order must refine the raw may-order wherever the
raw relation was unambiguous.  The bitset build agrees with a reference
that walks parent chains, and gives the same tree over int ids visited
in their labels' order as over the labels themselves.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core import build_hierarchy
from repro.pointer import AbstractObject, ROOT_REGION

NUM_REGIONS = 6


def region(index):
    return AbstractObject("region", 100 + index, 0, f"r{index}")


REGIONS = [region(i) for i in range(NUM_REGIONS)]

edges_strategy = st.sets(
    st.tuples(
        st.integers(0, NUM_REGIONS - 1),
        st.integers(0, NUM_REGIONS - 1),
    ),
    max_size=12,
)


def build(edges):
    subregion = [(REGIONS[a], REGIONS[b]) for a, b in edges]
    return build_hierarchy(REGIONS, subregion)


@settings(max_examples=150, deadline=None)
@given(edges_strategy)
def test_result_is_a_tree(edges):
    hierarchy = build(edges)
    # Every region except the root has exactly one parent...
    for node in hierarchy.regions:
        if node == ROOT_REGION:
            assert hierarchy.parent[node] is None
        else:
            assert hierarchy.parent[node] is not None
    # ...and every parent chain terminates at the root (no cycles).
    for node in hierarchy.regions:
        seen = set()
        current = node
        while current is not None:
            assert current not in seen, "cycle in canonical tree"
            seen.add(current)
            current = hierarchy.parent.get(current)
        assert ROOT_REGION in seen


@settings(max_examples=150, deadline=None)
@given(edges_strategy)
def test_leq_is_a_partial_order(edges):
    hierarchy = build(edges)
    nodes = list(hierarchy.regions)
    for x in nodes:
        assert hierarchy.leq(x, x)  # reflexive
        assert hierarchy.leq(x, ROOT_REGION)  # root is top
        for y in nodes:
            if hierarchy.leq(x, y) and hierarchy.leq(y, x):
                assert x == y  # antisymmetric
            for z in nodes:
                if hierarchy.leq(x, y) and hierarchy.leq(y, z):
                    assert hierarchy.leq(x, z)  # transitive


@settings(max_examples=150, deadline=None)
@given(edges_strategy)
def test_unambiguous_edges_preserved(edges):
    """A region with exactly one (acyclic) raw parent keeps it."""
    hierarchy = build(edges)
    raw = {}
    for a, b in edges:
        if a != b:
            raw.setdefault(a, set()).add(b)
    for a, parents in raw.items():
        if len(parents) == 1:
            (b,) = parents
            # Unless that unique edge lay on a raw cycle (broken to root).
            if hierarchy.parent[REGIONS[a]] == REGIONS[b]:
                assert hierarchy.leq(REGIONS[a], REGIONS[b])


@settings(max_examples=150, deadline=None)
@given(edges_strategy)
def test_canonical_leq_within_may_closure(edges):
    """Everything the canonical order asserts below a *raw-parented*
    region is reachable in the may-closure (joins only ever move regions
    toward the root, never sideways)."""
    hierarchy = build(edges)
    for x in hierarchy.regions:
        for y in hierarchy.ancestors(x):
            assert hierarchy.may_leq(x, y) or y == ROOT_REGION


@settings(max_examples=150, deadline=None)
@given(edges_strategy)
def test_pair_count_consistency(edges):
    hierarchy = build(edges)
    assert hierarchy.count_no_partial_order_pairs() == len(
        list(hierarchy.no_partial_order_pairs())
    )


# ---------------------------------------------------------------------------
# Int ids vs labels vs a chain-walking reference
# ---------------------------------------------------------------------------

#: Enough regions for one join to read a chain that a later join
#: extends; six rarely give that.
WIDE = 10
WIDE_REGIONS = [
    AbstractObject("region", 200 + index, 0, f"w{index}")
    for index in range(WIDE)
]
#: Edge endpoints: the regions, plus WIDE for the root.
NODES = WIDE_REGIONS + [ROOT_REGION]
#: Int ids whose numeric order is not their labels' order.
IDS = [30 + (7 * index) % (WIDE + 1) for index in range(len(NODES))]
LABEL = dict(zip(IDS, NODES))

#: Up to three raw parents per region (the root among the candidates),
#: so most draws need several joins, and some close cycles.
rooted_edges = st.lists(
    st.sets(st.integers(0, WIDE), max_size=3),
    min_size=WIDE,
    max_size=WIDE,
).map(
    lambda parents: {
        (child, parent)
        for child, candidates in enumerate(parents)
        for parent in candidates
    }
)


def reference_hierarchy(regions, subregion, root):
    """The canonicalization with ancestor sets as walked parent chains,
    re-walked after every join: ``(parent, joined, R-pair count)``."""
    region_set = set(regions) | {root}
    raw = {region: set() for region in region_set}
    for child, parent in subregion:
        if child != parent:
            region_set |= {child, parent}
            raw.setdefault(child, set()).add(parent)
            raw.setdefault(parent, set())
    parent = {root: None}

    def ancestors(region):
        chain = [region]
        current = parent.get(region)
        while current is not None and current not in chain:
            chain.append(current)
            current = parent.get(current)
        return set(chain)

    order = sorted(region_set - {root}, key=str)
    for region in order:
        if len(raw[region]) == 1:
            (parent[region],) = raw[region]
        elif not raw[region]:
            parent[region] = root
    for region in order:
        if parent.get(region) is None:
            continue
        seen = {region}
        current = parent[region]
        while current is not None:
            if current in seen:
                parent[region] = root
                break
            seen.add(current)
            current = parent.get(current)
    joined = set()
    for region in order:
        if parent.get(region) is not None:
            continue
        candidates = [
            c for c in raw[region] if parent.get(c) is not None or c == root
        ]
        common = set.intersection(*map(ancestors, candidates)) if candidates else set()
        join = (
            max(common, key=lambda r: (len(ancestors(r)), str(r)))
            if common
            else root
        )
        parent[region] = root if join == region else join
        current, seen = join, set()
        while current is not None:
            if current == region or current in seen:
                parent[region] = root
                break
            seen.add(current)
            current = parent.get(current)
        joined.add(region)
    related = sum(len(ancestors(region)) for region in region_set)
    return parent, joined, len(region_set) ** 2 - related


@settings(max_examples=300, deadline=None)
@given(rooted_edges)
@example({(0, 1), (1, 0), (2, 0), (2, 1)})  # a cycle, then two parents
@example({(0, 1), (1, 2), (2, 0), (3, 1), (3, 2), (4, 3), (4, 10)})
@example({(0, 1), (0, 2), (1, 2), (2, 3), (3, 1), (5, 0), (5, 4)})
@example({(1, 0), (2, 0), (3, 1), (3, 2), (4, 3), (4, 1), (5, 4), (5, 10)})
# w0's join reads w3's chain while it ends at w1; w2's, after w1's join.
@example({(0, 3), (0, 10), (1, 5), (1, 4), (4, 5), (3, 1), (2, 3), (2, 4)})
def test_int_ids_in_label_order_build_the_label_tree(edges):
    subregion = [(NODES[a], NODES[b]) for a, b in edges]
    labelled = build_hierarchy(WIDE_REGIONS, subregion)
    numbered = build_hierarchy(
        IDS[:WIDE],
        [(IDS[a], IDS[b]) for a, b in edges],
        root=IDS[WIDE],
        key=lambda number: str(LABEL[number]),
    )
    decoded_parent = {
        LABEL[child]: None if parent is None else LABEL[parent]
        for child, parent in numbered.parent.items()
    }
    assert decoded_parent == labelled.parent
    assert {LABEL[n] for n in numbered.joined} == labelled.joined
    assert (
        numbered.count_no_partial_order_pairs()
        == labelled.count_no_partial_order_pairs()
    )
    for x in IDS:
        assert {LABEL[n] for n in numbered.ancestors(x)} == labelled.ancestors(
            LABEL[x]
        )
        assert {
            LABEL[n] for n in numbered.may_ancestors(x)
        } == labelled.may_ancestors(LABEL[x])

    parent, joined, pair_count = reference_hierarchy(
        WIDE_REGIONS, subregion, ROOT_REGION
    )
    assert labelled.parent == parent
    assert labelled.joined == joined
    assert labelled.count_no_partial_order_pairs() == pair_count
