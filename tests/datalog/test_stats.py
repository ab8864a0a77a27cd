"""Tests for the SolverStats observability layer."""

import pytest

from repro.datalog import Program, SolverStats


def closure_program(backend, n=12):
    program = Program(backend=backend)
    program.domain("V", n)
    program.relation("edge", ["V", "V"])
    program.relation("path", ["V", "V"])
    program.relation("blocked", ["V", "V"])
    program.relation("free", ["V", "V"])
    program.rules(
        """
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        free(x, y) :- path(x, y), !blocked(x, y).
        """
    )
    for i in range(n - 1):
        program.fact("edge", i, i + 1)
    program.fact("blocked", 0, 1)
    return program


@pytest.fixture(params=["set", "bdd"])
def backend(request):
    return request.param


class TestStatsConsistency:
    def test_derived_equals_sizes_minus_facts(self, backend):
        solution = closure_program(backend).solve()
        stats = solution.stats
        total = sum(
            solution.count(name)
            for name in ("edge", "path", "blocked", "free")
        )
        assert stats.facts_loaded + stats.tuples_derived == total

    def test_counters_nonzero(self, backend):
        solution = closure_program(backend).solve()
        stats = solution.stats
        assert stats.backend == backend
        assert stats.rounds > 0
        assert stats.rule_evals > 0
        assert stats.rule_eval_seconds > 0.0
        assert stats.solve_seconds > 0.0
        assert len(stats.strata) == 2  # path below free
        for stratum in stats.strata:
            assert stratum.rounds >= 1
        # The recursive stratum iterates to a fixpoint.
        assert max(s.rounds for s in stats.strata) > 2

    def test_per_stratum_derived_totals(self, backend):
        solution = closure_program(backend).solve()
        stats = solution.stats
        assert sum(s.derived for s in stats.strata) == stats.tuples_derived

    def test_set_backend_reports_index_traffic(self):
        solution = closure_program("set").solve()
        stats = solution.stats
        assert stats.index_builds > 0
        assert stats.index_hits > 0
        assert 0.0 < stats.index_hit_rate <= 1.0

    def test_bdd_backend_reports_cache_traffic(self):
        solution = closure_program("bdd").solve()
        stats = solution.stats
        assert stats.bdd_cache_lookups > 0
        assert stats.bdd_cache_hits > 0
        assert 0.0 < stats.bdd_cache_hit_rate <= 1.0

    def test_rule_attribution(self):
        solution = closure_program("set").solve()
        stats = solution.stats
        assert sum(stats.rule_derived.values()) == stats.tuples_derived
        assert stats.slowest_rules(limit=2)
        for rule_text, seconds in stats.slowest_rules(limit=2):
            assert ":-" in rule_text
            assert seconds >= 0.0

    def test_summary_renders(self, backend):
        stats = closure_program(backend).solve().stats
        text = stats.summary()
        assert "datalog solve" in text
        assert backend in text
        assert "round" in text

    def test_empty_program_stats(self, backend):
        program = Program(backend=backend)
        program.domain("V", 2)
        program.relation("a", ["V"])
        stats = program.solve().stats
        assert isinstance(stats, SolverStats)
        assert stats.facts_loaded == 0
        assert stats.tuples_derived == 0
