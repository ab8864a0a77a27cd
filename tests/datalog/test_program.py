"""Tests for the Datalog solver, run identically on both backends."""

import pytest

from repro.datalog import DatalogError, Program


def make_program(backend):
    return Program(backend=backend)


@pytest.fixture(params=["set", "bdd"])
def backend(request):
    return request.param


class TestBasicEvaluation:
    def test_copy_rule(self, backend):
        program = make_program(backend)
        program.domain("V", 4)
        program.relation("a", ["V"])
        program.relation("b", ["V"])
        program.rules("b(x) :- a(x).")
        program.fact("a", 1)
        program.fact("a", 3)
        solution = program.solve()
        assert solution.tuples("b") == {(1,), (3,)}

    def test_join(self, backend):
        program = make_program(backend)
        program.domain("V", 8)
        program.relation("edge", ["V", "V"])
        program.relation("two", ["V", "V"])
        program.rules("two(x, z) :- edge(x, y), edge(y, z).")
        for edge in [(0, 1), (1, 2), (2, 3)]:
            program.fact("edge", *edge)
        solution = program.solve()
        assert solution.tuples("two") == {(0, 2), (1, 3)}

    def test_transitive_closure(self, backend):
        program = make_program(backend)
        program.domain("V", 8)
        program.relation("edge", ["V", "V"])
        program.relation("path", ["V", "V"])
        program.rules(
            """
            path(x, y) :- edge(x, y).
            path(x, z) :- path(x, y), edge(y, z).
            """
        )
        for edge in [(0, 1), (1, 2), (2, 3), (5, 6)]:
            program.fact("edge", *edge)
        solution = program.solve()
        assert solution.tuples("path") == {
            (0, 1), (0, 2), (0, 3),
            (1, 2), (1, 3),
            (2, 3),
            (5, 6),
        }

    def test_cyclic_closure_terminates(self, backend):
        program = make_program(backend)
        program.domain("V", 4)
        program.relation("edge", ["V", "V"])
        program.relation("path", ["V", "V"])
        program.rules(
            """
            path(x, y) :- edge(x, y).
            path(x, z) :- path(x, y), path(y, z).
            """
        )
        for edge in [(0, 1), (1, 2), (2, 0)]:
            program.fact("edge", *edge)
        solution = program.solve()
        assert solution.tuples("path") == {
            (a, b) for a in range(3) for b in range(3)
        }

    def test_constants_in_rules(self, backend):
        program = make_program(backend)
        program.domain("V", 4)
        program.relation("edge", ["V", "V"])
        program.relation("from_zero", ["V"])
        program.rules("from_zero(x) :- edge(0, x).")
        program.fact("edge", 0, 2)
        program.fact("edge", 1, 3)
        solution = program.solve()
        assert solution.tuples("from_zero") == {(2,)}

    def test_constant_in_head(self, backend):
        program = make_program(backend)
        program.domain("V", 4)
        program.relation("a", ["V"])
        program.relation("tagged", ["V", "V"])
        program.rules("tagged(0, x) :- a(x).")
        program.fact("a", 2)
        solution = program.solve()
        assert solution.tuples("tagged") == {(0, 2)}

    def test_repeated_variable_in_body_atom(self, backend):
        program = make_program(backend)
        program.domain("V", 4)
        program.relation("edge", ["V", "V"])
        program.relation("selfloop", ["V"])
        program.rules("selfloop(x) :- edge(x, x).")
        program.fact("edge", 1, 1)
        program.fact("edge", 1, 2)
        solution = program.solve()
        assert solution.tuples("selfloop") == {(1,)}

    def test_repeated_variable_in_head(self, backend):
        program = make_program(backend)
        program.domain("V", 4)
        program.relation("a", ["V"])
        program.relation("diag", ["V", "V"])
        program.rules("diag(x, x) :- a(x).")
        program.fact("a", 3)
        solution = program.solve()
        assert solution.tuples("diag") == {(3, 3)}

    def test_facts_via_rules_text(self, backend):
        program = make_program(backend)
        program.domain("V", 4)
        program.relation("edge", ["V", "V"])
        program.rules("edge(0, 1). edge(1, 2).")
        solution = program.solve()
        assert solution.count("edge") == 2

    def test_mixed_domains(self, backend):
        program = make_program(backend)
        program.domain("C", 3)
        program.domain("F", 5)
        program.relation("cf", ["C", "F"])
        program.relation("fc", ["F", "C"])
        program.rules("fc(f, c) :- cf(c, f).")
        program.fact("cf", 2, 4)
        solution = program.solve()
        assert solution.tuples("fc") == {(4, 2)}


class TestNegationAndConstraints:
    def test_stratified_negation(self, backend):
        program = make_program(backend)
        program.domain("V", 4)
        program.relation("node", ["V"])
        program.relation("bad", ["V"])
        program.relation("good", ["V"])
        program.rules("good(x) :- node(x), !bad(x).")
        for value in range(4):
            program.fact("node", value)
        program.fact("bad", 1)
        solution = program.solve()
        assert solution.tuples("good") == {(0,), (2,), (3,)}

    def test_negation_of_derived_relation(self, backend):
        """The regionPair pattern: pairs with no partial order."""
        program = make_program(backend)
        program.domain("R", 4)
        program.relation("sub", ["R", "R"])
        program.relation("region", ["R"])
        program.relation("le", ["R", "R"])
        program.relation("nopo", ["R", "R"])
        program.rules(
            """
            le(x, x) :- region(x).
            le(x, y) :- sub(x, y).
            le(x, z) :- le(x, y), sub(y, z).
            nopo(x, y) :- region(x), region(y), !le(x, y).
            """
        )
        # Tree: 1 < 0, 2 < 0; region 3 unrelated.
        for region in range(4):
            program.fact("region", region)
        program.fact("sub", 1, 0)
        program.fact("sub", 2, 0)
        solution = program.solve()
        nopo = solution.tuples("nopo")
        assert (1, 2) in nopo and (2, 1) in nopo
        assert (0, 1) in nopo  # parent is not <= child
        assert (1, 0) not in nopo
        assert (3, 0) in nopo and (0, 3) in nopo

    def test_disequality(self, backend):
        program = make_program(backend)
        program.domain("V", 3)
        program.relation("node", ["V"])
        program.relation("pair", ["V", "V"])
        program.rules("pair(x, y) :- node(x), node(y), x != y.")
        for value in range(3):
            program.fact("node", value)
        solution = program.solve()
        assert solution.count("pair") == 6

    def test_unstratified_program_rejected(self, backend):
        program = make_program(backend)
        program.domain("V", 2)
        program.relation("p", ["V"])
        program.relation("q", ["V"])
        program.relation("base", ["V"])
        program.rules(
            """
            p(x) :- base(x), !q(x).
            q(x) :- base(x), !p(x).
            """
        )
        with pytest.raises(DatalogError):
            program.solve()


class TestDeclarationErrors:
    def test_unknown_relation_in_rule(self, backend):
        program = make_program(backend)
        program.domain("V", 2)
        program.relation("a", ["V"])
        with pytest.raises(DatalogError):
            program.rules("a(x) :- mystery(x).")

    def test_arity_mismatch(self, backend):
        program = make_program(backend)
        program.domain("V", 2)
        program.relation("a", ["V"])
        program.relation("b", ["V", "V"])
        with pytest.raises(DatalogError):
            program.rules("a(x) :- b(x).")

    def test_domain_mismatch_for_variable(self, backend):
        program = make_program(backend)
        program.domain("V", 2)
        program.domain("W", 2)
        program.relation("a", ["V"])
        program.relation("b", ["W"])
        with pytest.raises(DatalogError):
            program.rules("a(x) :- b(x).")

    def test_fact_out_of_range(self, backend):
        program = make_program(backend)
        program.domain("V", 2)
        program.relation("a", ["V"])
        with pytest.raises(DatalogError):
            program.fact("a", 5)

    def test_fact_arity(self, backend):
        program = make_program(backend)
        program.domain("V", 2)
        program.relation("a", ["V"])
        with pytest.raises(DatalogError):
            program.fact("a", 0, 1)

    def test_duplicate_domain(self, backend):
        program = make_program(backend)
        program.domain("V", 2)
        with pytest.raises(DatalogError):
            program.domain("V", 3)

    def test_duplicate_relation(self, backend):
        program = make_program(backend)
        program.domain("V", 2)
        program.relation("a", ["V"])
        with pytest.raises(DatalogError):
            program.relation("a", ["V"])

    def test_unknown_backend(self):
        with pytest.raises(DatalogError):
            Program(backend="sqlite")

    def test_fact_with_unbound_variable_rejected(self, backend):
        # Regression: a body-less rule with a Var in its head used to
        # escape validation and crash with AttributeError on Var.value.
        from repro.datalog import Atom, Rule, Var

        program = make_program(backend)
        program.domain("V", 2)
        program.relation("a", ["V"])
        with pytest.raises(DatalogError, match="unbound variable"):
            program.rule(Rule(Atom("a", (Var("x"),)), ()))

    def test_fact_rule_text_with_variable_rejected(self, backend):
        from repro.datalog import DatalogSyntaxError

        program = make_program(backend)
        program.domain("V", 2)
        program.relation("a", ["V"])
        with pytest.raises(
            (DatalogError, DatalogSyntaxError), match="unbound variable"
        ):
            program.rules("a(x).")

    def test_constant_out_of_domain_in_rule(self, backend):
        program = make_program(backend)
        program.domain("V", 2)
        program.relation("a", ["V"])
        program.relation("b", ["V"])
        with pytest.raises(DatalogError):
            program.rules("a(x) :- b(x), a(3).")


class TestSolutionApi:
    def test_contains(self, backend):
        program = make_program(backend)
        program.domain("V", 4)
        program.relation("a", ["V"])
        program.fact("a", 2)
        solution = program.solve()
        assert ("a", (2,)) in solution
        assert ("a", (1,)) not in solution

    def test_bdd_node_count(self):
        program = make_program("bdd")
        program.domain("V", 4)
        program.relation("a", ["V"])
        program.fact("a", 2)
        solution = program.solve()
        assert solution.bdd_node_count("a") > 0
        assert solution.bdd is not None

    def test_set_backend_has_no_bdd(self):
        program = make_program("set")
        program.domain("V", 4)
        program.relation("a", ["V"])
        solution = program.solve()
        assert solution.bdd is None
        assert solution.bdd_node_count("a") == 0
