"""Tests for Datalog derivation recording and warning explanations."""

import pytest

from repro.datalog import DatalogError, Program
from repro.obs.provenance import explain_warning
from repro.tool.regionwiz import run_regionwiz
from repro.workloads import figure


def transitive_closure_program(backend="set"):
    program = Program(backend=backend)
    program.domain("V", 4)
    program.relation("edge", ["V", "V"])
    program.relation("path", ["V", "V"])
    program.rules(
        """
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        """
    )
    for src, dst in ((0, 1), (1, 2), (2, 3)):
        program.fact("edge", src, dst)
    return program


class TestDerivationRecording:
    def test_explain_walks_back_to_facts(self):
        solution = transitive_closure_program().solve(provenance=True)
        assert solution.has_provenance
        derivation = solution.explain("path", (0, 3))
        assert derivation.rule is not None
        leaves = derivation.leaves()
        assert all(leaf.is_fact for leaf in leaves)
        assert {leaf.relation for leaf in leaves} == {"edge"}
        assert derivation.depth >= 3  # three hops chain through path

    def test_facts_are_leaves_not_rule_nodes(self):
        solution = transitive_closure_program().solve(provenance=True)
        derivation = solution.explain("edge", (0, 1))
        assert derivation.is_fact
        assert derivation.rule is None
        assert derivation.children == []

    def test_off_by_default(self):
        solution = transitive_closure_program().solve()
        assert not solution.has_provenance
        # Unrecorded tuples come back as bare leaves, not rule nodes.
        node = solution.explain("path", (0, 3))
        assert node.rule is None and not node.is_fact

    def test_requires_indexed_set_engine(self):
        with pytest.raises(DatalogError):
            transitive_closure_program(backend="bdd").solve(
                provenance=True
            )

    def test_unknown_tuple_is_a_bare_leaf(self):
        solution = transitive_closure_program().solve(provenance=True)
        node = solution.explain("path", (3, 0))
        assert node.rule is None and not node.is_fact
        assert node.children == []


class TestExplainWarning:
    def report_for(self, name):
        return run_regionwiz(figure(name).full_source, name=name)

    def test_chain_covers_the_papers_argument(self):
        report = self.report_for("fig2c")
        explanation = explain_warning(report, 1)
        text = explanation.format()
        # The eq. 4.12 chain: access + ownership closure + unordered regions.
        assert "objectPair(" in text
        assert "by rule:" in text
        assert "ownEq(" in text
        assert "regionPair(" in text
        assert "!le(" in text and "holds by absence" in text

    def test_leaf_facts_carry_source_locations(self):
        report = self.report_for("fig2c")
        explanation = explain_warning(report, 1)
        fact_lines = [
            line for line in explanation.lines if "[fact]" in line
        ]
        assert fact_lines
        located = [line for line in fact_lines if "allocated at" in line]
        assert located, "no leaf fact carries an allocation site"
        assert any("pointer stored at" in line for line in fact_lines)

    def test_warning_number_out_of_range(self):
        report = self.report_for("fig2c")
        with pytest.raises(IndexError):
            explain_warning(report, 2)
        with pytest.raises(IndexError):
            explain_warning(report, 0)

    def test_consistent_report_has_nothing_to_explain(self):
        report = self.report_for("fig1")
        with pytest.raises(IndexError):
            explain_warning(report, 1)

    def test_explanation_matches_reported_description(self):
        report = self.report_for("fig2c")
        explanation = explain_warning(report, 1)
        assert report.warnings[0].description in explanation.lines[0]
        assert explanation.num_object_pairs >= 1
