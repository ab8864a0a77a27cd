"""Property test: the set and BDD backends compute identical relations.

Random edge sets are pushed through a fixed but representative rule suite
(closure, join, negation, disequality) on both backends; every derived
relation must match tuple-for-tuple.  This is the cross-validation that
lets RegionWiz trust either backend interchangeably.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import Program

DOMAIN_SIZE = 5

RULES = """
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
le(x, x) :- node(x).
le(x, y) :- path(x, y).
unordered(x, y) :- node(x), node(y), !le(x, y), x != y.
fan(x, y, z) :- edge(x, y), edge(x, z), y != z.
"""


def build(backend, edges, ordering="interleaved"):
    program = Program(backend=backend, ordering=ordering)
    program.domain("V", DOMAIN_SIZE)
    program.relation("edge", ["V", "V"])
    program.relation("node", ["V"])
    program.relation("path", ["V", "V"])
    program.relation("le", ["V", "V"])
    program.relation("unordered", ["V", "V"])
    program.relation("fan", ["V", "V", "V"])
    program.rules(RULES)
    for value in range(DOMAIN_SIZE):
        program.fact("node", value)
    for edge in edges:
        program.fact("edge", *edge)
    return program.solve()


edges_strategy = st.sets(
    st.tuples(
        st.integers(min_value=0, max_value=DOMAIN_SIZE - 1),
        st.integers(min_value=0, max_value=DOMAIN_SIZE - 1),
    ),
    max_size=10,
)


@settings(max_examples=40, deadline=None)
@given(edges_strategy)
def test_backends_agree(edges):
    set_solution = build("set", edges)
    bdd_solution = build("bdd", edges)
    for name in ("path", "le", "unordered", "fan"):
        assert set_solution.tuples(name) == bdd_solution.tuples(name), name


@settings(max_examples=15, deadline=None)
@given(edges_strategy)
def test_bdd_orderings_agree(edges):
    interleaved = build("bdd", edges, ordering="interleaved")
    sequential = build("bdd", edges, ordering="sequential")
    for name in ("path", "le", "unordered", "fan"):
        assert interleaved.tuples(name) == sequential.tuples(name), name


# The combinations the join planner reorders: negation, disequality,
# repeated variables in body atoms, and constants in heads all mixed in
# single rules.
PLANNER_RULES = """
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
loopy(x) :- edge(x, x).
sibling(y, z) :- edge(x, y), edge(x, z), y != z, !edge(y, z).
isolated(x) :- node(x), !path(x, x), !loopy(x).
pinned(0, y) :- path(x, y), path(y, x), x != y.
diamond(x, w) :- edge(x, y), edge(x, z), edge(y, w), edge(z, w), y != z.
"""

PLANNER_RELATIONS = (
    "path", "loopy", "sibling", "isolated", "pinned", "diamond",
)


def build_planner(backend, edges):
    program = Program(backend=backend)
    program.domain("V", DOMAIN_SIZE)
    program.relation("edge", ["V", "V"])
    program.relation("node", ["V"])
    program.relation("path", ["V", "V"])
    program.relation("loopy", ["V"])
    program.relation("sibling", ["V", "V"])
    program.relation("isolated", ["V"])
    program.relation("pinned", ["V", "V"])
    program.relation("diamond", ["V", "V"])
    program.rules(PLANNER_RULES)
    for value in range(DOMAIN_SIZE):
        program.fact("node", value)
    for edge in edges:
        program.fact("edge", *edge)
    return program.solve()


@settings(max_examples=40, deadline=None)
@given(edges_strategy)
def test_backends_agree_on_planner_mix(edges):
    """Negation + disequality + repeated vars + head constants."""
    set_solution = build_planner("set", edges)
    bdd_solution = build_planner("bdd", edges)
    for name in PLANNER_RELATIONS:
        assert set_solution.tuples(name) == bdd_solution.tuples(name), name


@settings(max_examples=40, deadline=None)
@given(edges_strategy)
def test_closure_matches_reference(edges):
    """path == true reachability computed by a plain BFS."""
    solution = build("set", edges)
    succs = {}
    for a, b in edges:
        succs.setdefault(a, set()).add(b)
    expected = set()
    for start in range(DOMAIN_SIZE):
        frontier = list(succs.get(start, ()))
        seen = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(succs.get(node, ()))
        expected |= {(start, node) for node in seen}
    assert solution.tuples("path") == expected
