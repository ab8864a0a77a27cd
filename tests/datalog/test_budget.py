"""Budget enforcement inside the Datalog fixpoint loops."""

import pytest

from repro.datalog import Program
from repro.util.budget import ResourceBudget
from repro.util.errors import BudgetExceeded


def closure_program(backend, size=32):
    program = Program(backend=backend)
    program.domain("V", size)
    program.relation("edge", ["V", "V"])
    program.relation("path", ["V", "V"])
    program.rules(
        """
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        """
    )
    for node in range(size - 1):
        program.fact("edge", node, node + 1)
    return program


@pytest.fixture(params=["set", "bdd"])
def backend(request):
    return request.param


class TestDatalogBudget:
    def test_tuple_budget_trips_mid_fixpoint(self, backend):
        program = closure_program(backend)
        meter = ResourceBudget(max_derived_tuples=20).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            program.solve(meter=meter)
        assert excinfo.value.resource == "derived_tuples"
        assert excinfo.value.phase == "datalog"
        # The chain closure derives ~size^2/2 tuples; the meter must have
        # stopped the run well before completion.
        assert meter.tuples_used <= 32 * 31 / 2

    def test_generous_budget_completes(self, backend):
        program = closure_program(backend)
        meter = ResourceBudget(max_derived_tuples=10**6).start()
        solution = program.solve(meter=meter)
        assert len(solution.tuples("path")) == 31 * 32 / 2
        assert meter.tuples_used > 0

    def test_wall_clock_checkpoint(self, backend):
        program = closure_program(backend)
        # A deadline already in the past trips on the first round.
        meter = ResourceBudget(wall_clock_seconds=-1.0).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            program.solve(meter=meter)
        assert excinfo.value.resource == "wall_clock"

    def test_no_meter_is_unchanged(self, backend):
        program = closure_program(backend)
        solution = program.solve()
        assert len(solution.tuples("path")) == 31 * 32 / 2
