"""Unit and property tests for the CDCL solver."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import Cnf, Solver, solve_by_enumeration, solve_cnf


def _cnf(num_vars, clauses):
    cnf = Cnf(num_vars=num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert solve_cnf(_cnf(0, [])).is_sat

    def test_single_unit(self):
        result = solve_cnf(_cnf(1, [[1]]))
        assert result.is_sat
        assert result.model[1] is True

    def test_contradictory_units(self):
        assert solve_cnf(_cnf(1, [[1], [-1]])).is_unsat

    def test_simple_implication_chain(self):
        # 1 -> 2 -> 3, with 1 asserted and -3 asserted: unsat.
        cnf = _cnf(3, [[1], [-1, 2], [-2, 3], [-3]])
        assert solve_cnf(cnf).is_unsat

    def test_model_satisfies_formula(self):
        cnf = _cnf(4, [[1, 2], [-1, 3], [-2, -3], [3, 4]])
        result = solve_cnf(cnf)
        assert result.is_sat
        assert cnf.check_assignment(result.model)

    def test_pigeonhole_3_into_2_unsat(self):
        # Variables p[i][j]: pigeon i in hole j; i in 0..2, j in 0..1.
        def var(i, j):
            return 1 + i * 2 + j

        clauses = [[var(i, 0), var(i, 1)] for i in range(3)]
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append([-var(i1, j), -var(i2, j)])
        result = solve_cnf(_cnf(6, clauses))
        assert result.is_unsat
        assert result.conflicts >= 1

    def test_conflict_budget_returns_unknown(self):
        clauses = _php_clauses(6, 5)
        cnf = _cnf(30, clauses)
        result = solve_cnf(cnf, max_conflicts=1)
        assert result.status in ("unknown", "unsat")

    def test_stats_populated(self):
        cnf = _cnf(3, [[1, 2], [-1, 2], [1, -2], [-1, -2, 3]])
        result = solve_cnf(cnf)
        assert result.is_sat
        assert result.cpu_seconds >= 0.0
        assert result.propagations >= 1

    def test_search_statistics_populated(self):
        # Hard enough to force clause learning, deep decision levels and
        # at least one Luby restart (the restart base is 100 conflicts).
        cnf = _cnf(30, _php_clauses(6, 5))
        result = solve_cnf(cnf)
        assert result.is_unsat
        assert result.learned_clauses >= 1
        assert result.restarts >= 1
        assert 2 <= result.max_decision_level <= cnf.num_vars

    def test_trivial_instance_has_quiet_search_stats(self):
        # A unit clause needs no decisions, so no restarts, no learned
        # clauses, and the decision stack never grows.
        result = solve_cnf(_cnf(1, [[1]]))
        assert result.is_sat
        assert result.restarts == 0
        assert result.learned_clauses == 0
        assert result.max_decision_level == 0

    def test_each_call_returns_its_own_result(self):
        # Two budgeted calls on one solver: the second must neither hand
        # back nor mutate the first call's result, and each result counts
        # only its own call.
        solver = Solver(_cnf(30, _php_clauses(6, 5)))
        first = solver.solve(max_conflicts=5)
        snapshot = dataclasses.replace(first)
        second = solver.solve(max_conflicts=5)
        assert second is not first
        assert first == snapshot
        assert first.status == second.status == "unknown"
        assert first.conflicts == second.conflicts == 5


def _php_clauses(pigeons, holes):
    def var(i, j):
        return 1 + i * holes + j

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-var(i1, j), -var(i2, j)])
    return clauses


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_php_unsat(self, holes):
        pigeons = holes + 1
        cnf = _cnf(pigeons * holes, _php_clauses(pigeons, holes))
        assert solve_cnf(cnf).is_unsat

    @pytest.mark.parametrize("holes", [3, 4, 5])
    def test_php_equal_sat(self, holes):
        cnf = _cnf(holes * holes, _php_clauses(holes, holes))
        result = solve_cnf(cnf)
        assert result.is_sat
        assert cnf.check_assignment(result.model)


class TestAgainstReference:
    def _random_cnf(self, rng, num_vars, num_clauses, width):
        clauses = []
        for _ in range(num_clauses):
            size = rng.randint(1, width)
            variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
            clauses.append(
                [var if rng.random() < 0.5 else -var for var in variables]
            )
        return _cnf(num_vars, clauses)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_3cnf_agrees_with_enumeration(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 9)
        # Around the sat/unsat threshold of ~4.26 clauses per variable.
        num_clauses = int(num_vars * rng.uniform(2.0, 6.0))
        cnf = self._random_cnf(rng, num_vars, num_clauses, 3)
        expected = solve_by_enumeration(cnf)
        result = solve_cnf(cnf)
        if expected is None:
            assert result.is_unsat
        else:
            assert result.is_sat
            assert cnf.check_assignment(result.model)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_random_agreement(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(2, 8)
        num_clauses = rng.randint(1, 30)
        cnf = self._random_cnf(rng, num_vars, num_clauses, 4)
        expected = solve_by_enumeration(cnf)
        result = solve_cnf(cnf)
        assert result.is_sat == (expected is not None)
        if result.is_sat:
            assert cnf.check_assignment(result.model)


class TestReference:
    def test_reference_guards_variable_count(self):
        with pytest.raises(ValueError):
            solve_by_enumeration(Cnf(num_vars=50))

    def test_reference_empty_clause(self):
        cnf = Cnf(num_vars=1)
        cnf.clauses.append(())
        assert solve_by_enumeration(cnf) is None


class TestTimeBudgetOnPropagations:
    """The time budget must bite on conflict-free work, not only every
    256th conflict — a huge implication chain propagates millions of
    literals without a single conflict."""

    @staticmethod
    def _chain_cnf(length):
        # Unit clause 1 plus (i -> i+1) chain: the first propagate()
        # cascades `length` implications and never conflicts.
        cnf = Cnf(num_vars=length)
        cnf.add_clause([1])
        for i in range(1, length):
            cnf.add_clause([-i, i + 1])
        return cnf

    def test_zero_time_budget_stops_a_conflict_free_cascade(self):
        result = solve_cnf(self._chain_cnf(3000), max_seconds=0.0)
        assert result.status == "unknown"
        assert result.conflicts == 0

    def test_cascade_completes_without_a_budget(self):
        result = solve_cnf(self._chain_cnf(3000))
        assert result.is_sat

    def test_ambient_deadline_stops_the_cascade_with_stage(self):
        from repro.errors import BudgetExhausted
        from repro.guard import Deadline, use_deadline

        with use_deadline(Deadline(max_wall_seconds=0.0)):
            with pytest.raises(BudgetExhausted) as info:
                solve_cnf(self._chain_cnf(3000))
        assert info.value.stage == "sat"
