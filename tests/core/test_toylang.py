"""Tests for the toy language's concrete (Figure 4) and abstract semantics."""

import pytest

from repro.core.toylang import (
    ABS_ROOT,
    Alloc,
    Branch,
    Copy,
    Init,
    LoadField,
    Loop,
    New,
    ObjectVal,
    RegionVal,
    StoreField,
    TOY_ROOT,
    ToyError,
    abstract_violations,
    concrete_violations,
    run_abstract,
    run_concrete,
    seq,
)


def always(value):
    return lambda: value


def choices(*values):
    iterator = iter(values)
    return lambda: next(iterator, False)


class TestConcreteSemantics:
    def test_init_is_null(self):
        state = run_concrete(Init("x", site=1), always(False))
        assert state.env["x"] is None

    def test_rule_42_rnew(self):
        program = seq(New("r", None, site=1), New("s", "r", site=2))
        state = run_concrete(program, always(False))
        r, s = state.env["r"], state.env["s"]
        assert isinstance(r, RegionVal) and isinstance(s, RegionVal)
        assert (r, TOY_ROOT) in state.pi
        assert (s, r) in state.pi

    def test_rule_43_ralloc(self):
        program = seq(New("r", None, site=1), Alloc("o", "r", site=2))
        state = run_concrete(program, always(False))
        assert isinstance(state.env["o"], ObjectVal)
        assert (state.env["r"], state.env["o"]) in state.phi

    def test_null_region_means_root(self):
        state = run_concrete(Alloc("o", None, site=1), always(False))
        assert (TOY_ROOT, state.env["o"]) in state.phi

    def test_null_variable_means_root(self):
        program = seq(Init("p", site=1), Alloc("o", "p", site=2))
        state = run_concrete(program, always(False))
        assert (TOY_ROOT, state.env["o"]) in state.phi

    def test_rule_46_store_records_access(self):
        program = seq(
            Alloc("a", None, site=1),
            Alloc("b", None, site=2),
            StoreField("a", "f", "b", site=3),
        )
        state = run_concrete(program, always(False))
        assert (state.env["a"], state.env["b"]) in state.sigma
        assert state.heap[(state.env["a"], "f")] == state.env["b"]

    def test_store_of_null_records_nothing(self):
        program = seq(
            Alloc("a", None, site=1),
            Init("n", site=2),
            StoreField("a", "f", "n", site=3),
        )
        state = run_concrete(program, always(False))
        assert not state.sigma

    def test_rule_45_load(self):
        program = seq(
            Alloc("a", None, site=1),
            Alloc("b", None, site=2),
            StoreField("a", "f", "b", site=3),
            LoadField("x", "a", "f", site=4),
        )
        state = run_concrete(program, always(False))
        assert state.env["x"] == state.env["b"]

    def test_load_of_unset_field_is_null(self):
        program = seq(Alloc("a", None, site=1), LoadField("x", "a", "f", site=2))
        state = run_concrete(program, always(False))
        assert state.env["x"] is None

    def test_branch_follows_oracle(self):
        program = Branch(New("r", None, site=1), Alloc("o", None, site=2))
        taken = run_concrete(program, always(True))
        assert "r" in taken.env and "o" not in taken.env
        not_taken = run_concrete(program, always(False))
        assert "o" in not_taken.env and "r" not in not_taken.env

    def test_loop_zero_iterations(self):
        program = Loop(New("r", None, site=1))
        state = run_concrete(program, always(False))
        assert "r" not in state.env

    def test_loop_creates_fresh_regions_each_iteration(self):
        program = Loop(New("r", None, site=1))
        state = run_concrete(program, choices(True, True, False))
        # Two iterations -> two distinct regions in pi, both under root.
        children = {c for c, p in state.pi if p == TOY_ROOT}
        assert len(children) == 2

    def test_type_errors(self):
        with pytest.raises(ToyError):
            run_concrete(
                seq(Alloc("o", None, site=1), New("r", "o", site=2)),
                always(False),
            )
        with pytest.raises(ToyError):
            run_concrete(
                seq(New("r", None, site=1), LoadField("x", "r", "f", site=2)),
                always(False),
            )

    def test_example_41(self):
        """Example 4.1's trace shape: Figure 3 with P, Q both true."""
        program = seq(
            New("r0", None, site=10),
            New("r1", None, site=11),
            Alloc("o1", "r1", site=1),
            Init("r", site=2),
            Branch(Copy("r", "r0", site=3), Init("_", site=98)),   # P true
            Branch(Copy("r", "r1", site=4), Init("_", site=99)),   # Q true
            New("r2", "r", site=5),
            Alloc("o2", "r2", site=6),
            StoreField("o2", "f", "o1", site=7),
        )
        state = run_concrete(program, always(True))
        r1, r2 = state.env["r1"], state.env["r2"]
        o1, o2 = state.env["o1"], state.env["o2"]
        assert (r2, r1) in state.pi
        assert (r2, o2) in state.phi and (r1, o1) in state.phi
        assert (o2, o1) in state.sigma
        # With P, Q true the run is consistent (Example 4.2).
        assert concrete_violations(state) == []

    def test_example_42_inconsistent_path(self):
        """P true, Q false: r2 < r0 but o2 -> o1 with o1 in r1."""
        program = seq(
            New("r0", None, site=10),
            New("r1", None, site=11),
            Alloc("o1", "r1", site=1),
            Init("r", site=2),
            Branch(Copy("r", "r0", site=3), Init("_", site=98)),
            Branch(Init("_", site=99), Init("__", site=97)),  # Q false arm
            New("r2", "r", site=5),
            Alloc("o2", "r2", site=6),
            StoreField("o2", "f", "o1", site=7),
        )
        state = run_concrete(program, choices(True, False, *([False] * 10)))
        violations = concrete_violations(state)
        assert len(violations) == 1


class TestAbstractSemantics:
    def test_load_into_its_own_base(self):
        """``o = o.f`` grows the set the load walks; the fixpoint still
        reaches the stored object."""
        program = seq(
            New("r", None, site=1),
            Alloc("o", "r", site=2),
            Alloc("p", "r", site=3),
            StoreField("o", "f", "p", site=4),
            LoadField("o", "o", "f", site=5),
        )
        result = run_abstract(program)
        assert {2, 3} <= set(result.env["o"])

    def test_example_43(self):
        """Example 4.3's abstract effects for Figure 3."""
        program = seq(
            New("r0", None, site=10),
            New("r1", None, site=11),
            Alloc("o1", "r1", site=1),
            Init("r", site=2),
            Branch(Copy("r", "r0", site=3), Init("_", site=98)),
            Branch(Copy("r", "r1", site=4), Init("_", site=99)),
            New("r2", "r", site=5),
            Alloc("o2", "r2", site=6),
            StoreField("o2", "f", "o1", site=7),
        )
        result = run_abstract(program)
        # G(r) = {l10, l11} (plus possibly root via the null path).
        assert {10, 11} <= set(result.env["r"])
        # Pi: r2 (site 5) may be a subregion of both r0 and r1.
        assert (5, 10) in result.pi and (5, 11) in result.pi
        # Phi and Sigma as in the example.
        assert (11, 1) in result.phi and (5, 6) in result.phi
        assert (6, 1) in result.sigma

    def test_example_44_verdict(self):
        """The canonicalized tree joins r2's parents to the root and the
        verification flags the pointer (Figure 3 is inconsistent)."""
        program = seq(
            New("r0", None, site=10),
            New("r1", None, site=11),
            Alloc("o1", "r1", site=1),
            Init("r", site=2),
            Branch(Copy("r", "r0", site=3), Init("_", site=98)),
            Branch(Copy("r", "r1", site=4), Init("_", site=99)),
            New("r2", "r", site=5),
            Alloc("o2", "r2", site=6),
            StoreField("o2", "f", "o1", site=7),
        )
        result = run_abstract(program)
        hierarchy = result.hierarchy()
        assert hierarchy.parent[5] == ABS_ROOT  # joined
        violations = abstract_violations(result)
        assert (6, 1) in violations

    def test_consistent_program_passes(self):
        program = seq(
            New("r", None, site=1),
            Alloc("conn", "r", site=2),
            New("subr", "r", site=3),
            Alloc("req", "subr", site=4),
            StoreField("req", "connection", "conn", site=5),
        )
        result = run_abstract(program)
        assert abstract_violations(result) == []

    def test_loop_body_reaches_fixpoint(self):
        program = Loop(
            seq(
                Alloc("a", None, site=1),
                Alloc("b", None, site=2),
                StoreField("a", "f", "b", site=3),
                LoadField("c", "a", "f", site=4),
                StoreField("b", "g", "c", site=5),
            )
        )
        result = run_abstract(program)
        assert (1, 2) in result.sigma
        assert (2, 2) in result.sigma  # b.g = c where c may be b itself

    def test_branch_joins_environments(self):
        program = Branch(New("r", None, site=1), New("r", None, site=2))
        result = run_abstract(program)
        assert set(result.env["r"]) == {1, 2}
