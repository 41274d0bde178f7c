"""DRUP clause proofs and an independent reverse-unit-propagation checker.

A DRUP proof (Delete Reverse Unit Propagation; Heule, Hunt & Wetzler) is
the standard certificate format for CDCL UNSAT verdicts: an ordered log of
clause *additions* (each of which must be RUP with respect to the clause
database accumulated so far) and clause *deletions*, ending in the empty
clause.  A clause ``C`` is RUP when assuming the negation of every literal
of ``C`` and running unit propagation over the database yields a conflict;
every first-UIP learned clause of a CDCL solver has this property, so the
solver's learned-clause log *is* a proof.

Independence is the whole point of this module: :func:`check_drup` shares
**no code** with :class:`repro.sat.solver.Solver`.  The solver uses
two-watched-literal propagation over mutable clause objects; the checker
here uses counting-based propagation over immutable literal tuples with
occurrence lists, rebuilt per proof step from the checker's own clause
database.  A bug in the solver's propagation, conflict analysis or clause
minimization therefore cannot silently certify its own bogus proof.

The proof is certified against the exact CNF handed to the solver — the
post-``dedupe()``, post-Tseitin clause list of
:attr:`repro.encode.evc.EncodedValidity.cnf` — not against any earlier
pipeline artifact.

Text format (one step per line, DIMACS-style, 0-terminated)::

    1 -3 4 0        clause addition
    d 1 -3 0        clause deletion
    0               the empty clause (must be the final addition)
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import WitnessError
from ..guard.deadline import current_deadline
from ..sat.cnf import Cnf

__all__ = [
    "DrupStep",
    "DrupProof",
    "DrupCheckResult",
    "check_drup",
    "cnf_with_assumptions",
]


@dataclass(frozen=True)
class DrupStep:
    """One proof step: a clause addition or deletion."""

    delete: bool
    literals: Tuple[int, ...]

    def to_line(self) -> str:
        body = " ".join(str(lit) for lit in self.literals)
        prefix = "d " if self.delete else ""
        return f"{prefix}{body} 0".replace("  ", " ").strip()


@dataclass
class DrupProof:
    """An ordered DRUP step sequence with (de)serialization helpers."""

    steps: List[DrupStep] = field(default_factory=list)

    @property
    def additions(self) -> int:
        return sum(1 for step in self.steps if not step.delete)

    @property
    def deletions(self) -> int:
        return sum(1 for step in self.steps if step.delete)

    @property
    def ends_with_empty_clause(self) -> bool:
        return any(
            not step.delete and not step.literals for step in self.steps
        )

    @classmethod
    def from_solver_steps(
        cls, raw: Sequence[Tuple[str, Tuple[int, ...]]]
    ) -> "DrupProof":
        """Wrap the raw ``("a"|"d", literals)`` log of the CDCL solver."""
        steps = []
        for op, literals in raw:
            if op not in ("a", "d"):
                raise WitnessError(f"unknown proof step op {op!r}")
            steps.append(DrupStep(delete=(op == "d"), literals=tuple(literals)))
        return cls(steps=steps)

    def to_text(self) -> str:
        return "\n".join(step.to_line() for step in self.steps) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DrupProof":
        steps: List[DrupStep] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            delete = line.startswith("d ") or line == "d 0"
            body = line[1:].strip() if delete else line
            try:
                numbers = [int(token) for token in body.split()]
            except ValueError:
                raise WitnessError(
                    f"proof line {lineno} is not a DRUP step: {line!r}"
                )
            if not numbers or numbers[-1] != 0:
                raise WitnessError(
                    f"proof line {lineno} is not 0-terminated: {line!r}"
                )
            if any(number == 0 for number in numbers[:-1]):
                raise WitnessError(
                    f"proof line {lineno} has an interior 0: {line!r}"
                )
            steps.append(DrupStep(delete=delete, literals=tuple(numbers[:-1])))
        return cls(steps=steps)

    def digest(self) -> str:
        """Content digest of the canonical text form (sha256 prefix)."""
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


@dataclass
class DrupCheckResult:
    """Outcome of checking one proof against one CNF."""

    ok: bool
    steps_checked: int = 0
    additions: int = 0
    deletions: int = 0
    detail: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class _ClauseDb:
    """The checker's clause database: immutable literal tuples with
    occurrence lists, a unit index, and set-keyed deletion (the solver
    reorders watched literals in place, so deletions must match clauses
    as literal *sets*, not sequences)."""

    def __init__(self) -> None:
        self._clauses: Dict[int, Tuple[int, ...]] = {}
        self._by_key: Dict[FrozenSet[int], List[int]] = {}
        self._occ: Dict[int, Set[int]] = {}
        self._units: Dict[int, int] = {}
        self._next_id = 0

    def add(self, literals: Tuple[int, ...]) -> None:
        cid = self._next_id
        self._next_id += 1
        self._clauses[cid] = literals
        self._by_key.setdefault(frozenset(literals), []).append(cid)
        for lit in literals:
            self._occ.setdefault(lit, set()).add(cid)
        if len(set(literals)) == 1:
            self._units[cid] = literals[0]

    def delete(self, literals: Tuple[int, ...]) -> bool:
        """Remove one clause equal (as a set) to ``literals``."""
        bucket = self._by_key.get(frozenset(literals))
        if not bucket:
            return False
        cid = bucket.pop()
        clause = self._clauses.pop(cid)
        for lit in clause:
            self._occ[lit].discard(cid)
        self._units.pop(cid, None)
        return True

    def propagates_to_conflict(self, assumed_false: Tuple[int, ...]) -> bool:
        """Assume every literal of ``assumed_false`` is false, unit
        propagate the database, and report whether a conflict arises.

        Counting-free BFS: each newly assigned literal visits the clauses
        containing its negation; a clause with no unassigned literal and
        no true literal is a conflict, one with exactly one unassigned
        literal and no true literal propagates it.
        """
        assigns: Dict[int, int] = {}  # var -> +1 / -1
        pending: Deque[int] = deque()

        def assign(lit: int) -> bool:
            """Make ``lit`` true; False when it contradicts the state."""
            var = abs(lit)
            sign = 1 if lit > 0 else -1
            current = assigns.get(var, 0)
            if current == 0:
                assigns[var] = sign
                pending.append(lit)
                return True
            return current == sign

        for lit in assumed_false:
            if not assign(-lit):
                return True  # the negated clause is itself contradictory
        for lit in self._units.values():
            if not assign(lit):
                return True
        deadline = current_deadline()
        while pending:
            deadline.tick("witness")
            lit = pending.popleft()
            for cid in tuple(self._occ.get(-lit, ())):
                clause = self._clauses.get(cid)
                if clause is None:  # pragma: no cover - deleted mid-walk
                    continue
                unassigned: Optional[int] = None
                satisfied = False
                for other in clause:
                    value = assigns.get(abs(other), 0)
                    if value == 0:
                        if unassigned is not None and unassigned != other:
                            unassigned = 0  # two unassigned: nothing to do
                            break
                        unassigned = other
                    elif value == (1 if other > 0 else -1):
                        satisfied = True
                        break
                if satisfied or unassigned == 0:
                    continue
                if unassigned is None:
                    return True  # every literal false: conflict
                if not assign(unassigned):
                    return True
        return False


def cnf_with_assumptions(cnf: Cnf, assumptions: Sequence[int]) -> Cnf:
    """``cnf`` plus one unit clause per assumption literal.

    An assumption-UNSAT verdict from the solver
    (``repro.sat.solver.Solver.solve(assumptions=...)``) certifies against
    this formula, not against ``cnf`` alone: the solver's proof ends with
    the failed-assumption core clause, which is RUP only once the
    assumptions are available as units.  Learned clauses never resolve on
    assumptions, so the same journal prefix stays valid for every call.
    """
    clauses = list(cnf.clauses) + [(literal,) for literal in assumptions]
    return Cnf(num_vars=cnf.num_vars, clauses=clauses)


def check_drup(cnf: Cnf, proof: DrupProof) -> DrupCheckResult:
    """Forward-check ``proof`` against ``cnf``; see the module docstring.

    Every addition must be RUP w.r.t. the current database; deletions must
    name a present clause (the solver only deletes clauses it added, so a
    miss indicates a corrupted proof).  The check succeeds exactly when
    the empty clause is derived; steps after it are ignored.
    """
    db = _ClauseDb()
    for clause in cnf.clauses:
        db.add(tuple(clause))

    result = DrupCheckResult(ok=False)
    for index, step in enumerate(proof.steps):
        result.steps_checked = index + 1
        if step.delete:
            if not db.delete(step.literals):
                result.detail = (
                    f"step {index + 1}: deletion of a clause not in the "
                    f"database: {list(step.literals)}"
                )
                return result
            result.deletions += 1
            continue
        if not db.propagates_to_conflict(step.literals):
            label = (
                "the empty clause" if not step.literals
                else f"clause {list(step.literals)}"
            )
            result.detail = (
                f"step {index + 1}: {label} is not reverse-unit-propagation "
                "derivable from the current clause database"
            )
            return result
        result.additions += 1
        if not step.literals:
            result.ok = True
            result.detail = (
                f"empty clause derived after {result.additions} addition(s) "
                f"and {result.deletions} deletion(s)"
            )
            return result
        db.add(step.literals)
    result.detail = (
        "proof exhausted without deriving the empty clause "
        f"({result.additions} addition(s) checked)"
    )
    return result
