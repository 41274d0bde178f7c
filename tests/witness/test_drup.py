"""Tests for the DRUP proof format and the independent RUP checker."""

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.witness.drup
from repro.errors import WitnessError
from repro.sat import Cnf, Solver, solve_cnf
from repro.witness import DrupProof, DrupStep, check_drup

from .drup_reference import check_drup_reference


def _cnf(num_vars, clauses):
    cnf = Cnf(num_vars=num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def _proof(*steps):
    return DrupProof(
        steps=tuple(
            DrupStep(delete=(op == "d"), literals=tuple(lits))
            for op, lits in steps
        )
    )


class TestFormat:
    def test_text_round_trip(self):
        proof = _proof(("a", [1, -2]), ("d", [3]), ("a", []))
        text = proof.to_text()
        assert DrupProof.from_text(text).to_text() == text

    def test_text_layout(self):
        proof = _proof(("a", [1, -2]), ("d", [-3, 4]), ("a", []))
        lines = proof.to_text().splitlines()
        assert lines == ["1 -2 0", "d -3 4 0", "0"]

    def test_parser_skips_comments_and_blanks(self):
        text = "c a comment\n\n1 2 0\nc more\n0\n"
        proof = DrupProof.from_text(text)
        assert len(proof.steps) == 2
        assert proof.ends_with_empty_clause

    def test_parser_rejects_unterminated_line(self):
        with pytest.raises(WitnessError):
            DrupProof.from_text("1 2\n")

    def test_parser_rejects_interior_zero(self):
        with pytest.raises(WitnessError):
            DrupProof.from_text("1 0 2 0\n")

    def test_parser_rejects_garbage(self):
        with pytest.raises(WitnessError):
            DrupProof.from_text("1 banana 0\n")

    def test_digest_is_stable_and_content_sensitive(self):
        first = _proof(("a", [1]), ("a", []))
        second = _proof(("a", [1]), ("a", []))
        third = _proof(("a", [2]), ("a", []))
        assert first.digest() == second.digest()
        assert first.digest() != third.digest()

    def test_from_solver_steps_rejects_unknown_op(self):
        with pytest.raises(WitnessError):
            DrupProof.from_solver_steps([("x", (1,))])

    def test_counts(self):
        proof = _proof(("a", [1]), ("d", [2]), ("a", []))
        assert proof.additions == 2
        assert proof.deletions == 1


class TestChecker:
    def test_accepts_hand_built_proof(self):
        # 1 -> 2, 2 -> 3, 1, -3: classic unit chain.
        cnf = _cnf(3, [[1], [-1, 2], [-2, 3], [-3]])
        proof = _proof(("a", []))
        outcome = check_drup(cnf, proof)
        assert outcome.ok
        assert outcome.steps_checked == 1

    def test_accepts_resolution_step(self):
        # (1 v 2) and (-1 v 2) make [2] RUP; with [-2] the empty clause.
        cnf = _cnf(2, [[1, 2], [-1, 2], [-2]])
        proof = _proof(("a", [2]), ("a", []))
        assert check_drup(cnf, proof).ok

    def test_rejects_non_rup_addition(self):
        cnf = _cnf(2, [[1, 2]])
        proof = _proof(("a", [1]), ("a", []))
        outcome = check_drup(cnf, proof)
        assert not outcome.ok
        assert "step 1" in outcome.detail

    def test_rejects_proof_without_empty_clause(self):
        cnf = _cnf(2, [[1, 2], [-1, 2], [-2]])
        proof = _proof(("a", [2]))
        outcome = check_drup(cnf, proof)
        assert not outcome.ok
        assert "empty clause" in outcome.detail

    def test_rejects_deletion_of_absent_clause(self):
        cnf = _cnf(2, [[1, 2]])
        proof = _proof(("d", [1, -2]), ("a", []))
        outcome = check_drup(cnf, proof)
        assert not outcome.ok
        assert "deletion" in outcome.detail.lower()

    def test_deletion_matches_any_literal_order(self):
        # The solver's watch code permutes literals in place; deletions
        # must match the clause as a set.
        cnf = _cnf(3, [[1, 2, 3], [1], [-1]])
        proof = _proof(("d", [3, 1, 2]), ("a", []))
        assert check_drup(cnf, proof).ok

    def test_deleted_clause_no_longer_propagates(self):
        # After deleting [1], the empty clause is no longer RUP.
        cnf = _cnf(1, [[1], [-1]])
        proof = _proof(("d", [1]), ("a", []))
        outcome = check_drup(cnf, proof)
        assert not outcome.ok

    def test_steps_after_empty_clause_are_ignored(self):
        cnf = _cnf(1, [[1], [-1]])
        proof = _proof(("a", []), ("a", [1, -1]))
        outcome = check_drup(cnf, proof)
        assert outcome.ok
        assert outcome.steps_checked == 1

    def test_tautological_input_clause_is_harmless(self):
        cnf = _cnf(2, [[1, -1], [2], [-2]])
        assert check_drup(cnf, _proof(("a", []))).ok

    def test_duplicate_input_clauses_delete_one_at_a_time(self):
        cnf = _cnf(1, [[1], [1], [-1]])
        # Deleting one copy of [1] leaves the other; still unsat.
        proof = _proof(("d", [1]), ("a", []))
        assert check_drup(cnf, proof).ok

    def test_checker_is_independent_of_solver_simplification(self):
        # Clause [1, 1] is simplified by the solver at load; the checker
        # works on the raw CNF and must agree regardless.
        cnf = _cnf(2, [[1, 1], [-1], [2, 2]])
        assert check_drup(cnf, _proof(("a", []))).ok

    def test_empty_input_clause_is_a_root_conflict(self):
        # Cnf.dedupe keeps an empty clause; the solver answers UNSAT with
        # the one-step proof "0", which the checker must accept.
        cnf = Cnf(2, [(1, 2), ()])
        result = Solver(cnf, log_proof=True).solve()
        assert result.is_unsat
        assert result.proof == [("a", ())]
        outcome = check_drup(cnf, DrupProof.from_solver_steps(result.proof))
        assert outcome.ok, outcome.detail

    def test_deleting_a_reason_clause_retracts_its_consequences(self):
        # [1] and [-1, 2] force 2 at the root; once [-1, 2] is gone, 2 is
        # no longer derivable.
        cnf = _cnf(3, [[1], [-1, 2], [-2, 3]])
        assert check_drup(cnf, _proof(("a", [3]), ("a", [2]))).additions == 2
        proof = _proof(("a", [3]), ("d", [-1, 2]), ("a", [2]))
        outcome = check_drup(cnf, proof)
        assert not outcome.ok
        assert "step 3" in outcome.detail

    def test_lemma_unit_at_the_root_extends_the_root(self):
        # Under the root literal 1 the lemma [-1, 2] forces 2, and with 2
        # the database propagates to a conflict: the empty clause is RUP.
        cnf = _cnf(4, [[1], [-1, 2, 3], [-3, 2], [-2, 4], [-2, -4, -1]])
        assert check_drup(cnf, _proof(("a", [-1, 2]), ("a", []))).ok

    def test_deleting_one_copy_of_a_reason_keeps_the_other(self):
        cnf = _cnf(2, [[-1, 2], [2, -1], [1], [-2]])
        assert check_drup(cnf, _proof(("d", [2, -1]), ("a", []))).ok
        proof = _proof(("d", [2, -1]), ("d", [-1, 2]), ("a", []))
        assert not check_drup(cnf, proof).ok


class TestSolverIntegration:
    @pytest.mark.parametrize(
        "clauses",
        [
            [[1], [-1]],
            [[1, 2], [-1, 2], [1, -2], [-1, -2]],
            [[1, 2, 3], [-1, 2], [-2, 3], [-3], [1, -2, -3], [-1, -2]],
        ],
    )
    def test_solver_proofs_certify(self, clauses):
        num_vars = max(abs(lit) for clause in clauses for lit in clause)
        cnf = _cnf(num_vars, clauses)
        result = solve_cnf(cnf, log_proof=True)
        assert result.is_unsat
        proof = DrupProof.from_solver_steps(result.proof)
        assert check_drup(cnf, proof).ok

    def test_pigeonhole_proof_certifies(self):
        def var(i, j):
            return 1 + i * 3 + j

        clauses = [[var(i, j) for j in range(3)] for i in range(4)]
        for j in range(3):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    clauses.append([-var(i1, j), -var(i2, j)])
        cnf = _cnf(12, clauses)
        result = solve_cnf(cnf, log_proof=True)
        assert result.is_unsat
        proof = DrupProof.from_solver_steps(result.proof)
        outcome = check_drup(cnf, proof)
        assert outcome.ok
        assert proof.additions >= 1

    def test_tampered_solver_proof_is_rejected(self):
        # Prepend a deletion of an input clause the derivation needs:
        # a correct checker must flag the proof, not shrug it off.
        cnf = _cnf(3, [[1], [-1, 2], [-2, 3], [-3]])
        result = solve_cnf(cnf, log_proof=True)
        assert result.is_unsat
        proof = DrupProof.from_solver_steps(result.proof)
        assert check_drup(cnf, proof).ok
        tampered = DrupProof(
            steps=(DrupStep(delete=True, literals=(1,)),)
            + tuple(proof.steps)
        )
        assert not check_drup(cnf, tampered).ok


def _key(outcome):
    return (outcome.ok, outcome.steps_checked, outcome.additions,
            outcome.deletions, outcome.detail)


_VARS = 12
#: random 3-SAT near the satisfiability threshold gives solver proofs of
#: several lemmas; the short clauses add units and empty clauses.
_THREE = st.lists(
    st.integers(1, _VARS), min_size=3, max_size=3, unique=True
).flatmap(lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
_SHORT = st.lists(
    st.integers(1, _VARS).flatmap(lambda v: st.sampled_from((v, -v))),
    max_size=2,
).map(tuple)


class TestAgainstReference:
    """The root-trail checker answers exactly what the from-scratch
    reference checker of ``drup_reference.py`` answers."""

    @settings(max_examples=100, deadline=None)
    @given(
        three=st.lists(_THREE, min_size=30, max_size=60),
        short=st.lists(_SHORT, max_size=2),
        data=st.data(),
    )
    def test_solver_proofs_and_mutations(self, three, short, data):
        cnf = Cnf(_VARS, three + short)
        result = Solver(cnf, log_proof=True).solve()
        steps = list(DrupProof.from_solver_steps(result.proof).steps)
        variants = [steps]
        lemmas = [i for i, step in enumerate(steps)
                  if not step.delete and step.literals]
        if lemmas:
            # Drop one literal from a lemma.
            i = data.draw(st.sampled_from(lemmas))
            literals = list(steps[i].literals)
            literals.pop(data.draw(st.integers(0, len(literals) - 1)))
            variants.append(steps[:i] + [DrupStep(False, tuple(literals))]
                            + steps[i + 1:])
            # Delete a lemma (often a root unit) right after adding it,
            # before the lemmas that depend on it.
            i = data.draw(st.sampled_from(lemmas))
            variants.append(steps[:i + 1] + [DrupStep(True, steps[i].literals)]
                            + steps[i + 1:])
        at = data.draw(st.integers(0, len(steps)))
        # Delete a clause that is not in the database.
        variants.append(steps[:at] + [DrupStep(True, (_VARS + 1,))]
                        + steps[at:])
        # Delete an input clause, a unit when there is one.
        units = [c for c in cnf.clauses if len(set(c)) == 1]
        victim = data.draw(st.sampled_from(units or cnf.clauses))
        variants.append(steps[:at] + [DrupStep(True, tuple(victim))]
                        + steps[at:])
        for variant in variants:
            mutated = DrupProof(steps=variant)
            assert _key(check_drup(cnf, mutated)) == _key(
                check_drup_reference(cnf, mutated)
            )


def test_checker_imports_nothing_from_the_solver():
    """The checker certifies the solver, so it must not share its code:
    from ``repro.sat`` it may import only the CNF container."""
    tree = ast.parse(pathlib.Path(repro.witness.drup.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    sat = {name for name in imported
           if name.startswith(("..sat", "repro.sat"))}
    assert sat <= {"..sat.cnf", "..sat.cnf.Cnf"}, sorted(sat)
