"""Reference DRUP checker: the test oracle for ``repro.witness.drup``.

Deliberately naive: every RUP check rebuilds unit propagation from
scratch with a counting-free breadth-first walk over occurrence lists,
so there is no root trail, no watched literal and no lazy rebuild to get
wrong.  ``check_drup_reference`` answers exactly what
:func:`repro.witness.drup.check_drup` answers (``ok``, ``steps_checked``,
``additions``, ``deletions``, ``detail``), only slower.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.sat.cnf import Cnf
from repro.witness import DrupCheckResult, DrupProof


class ClauseDb:
    """Immutable literal tuples with occurrence lists, a unit index and
    set-keyed deletion."""

    def __init__(self) -> None:
        self._clauses: Dict[int, Tuple[int, ...]] = {}
        self._by_key: Dict[FrozenSet[int], List[int]] = {}
        self._occ: Dict[int, Set[int]] = {}
        self._units: Dict[int, int] = {}
        self._empty = 0
        self._next_id = 0

    def add(self, literals: Tuple[int, ...]) -> None:
        cid = self._next_id
        self._next_id += 1
        self._clauses[cid] = literals
        self._by_key.setdefault(frozenset(literals), []).append(cid)
        for lit in literals:
            self._occ.setdefault(lit, set()).add(cid)
        if not literals:
            self._empty += 1
        if len(set(literals)) == 1:
            self._units[cid] = literals[0]

    def delete(self, literals: Tuple[int, ...]) -> bool:
        bucket = self._by_key.get(frozenset(literals))
        if not bucket:
            return False
        cid = bucket.pop()
        clause = self._clauses.pop(cid)
        for lit in clause:
            self._occ[lit].discard(cid)
        if not clause:
            self._empty -= 1
        self._units.pop(cid, None)
        return True

    def propagates_to_conflict(self, assumed_false: Tuple[int, ...]) -> bool:
        """Assume every literal of ``assumed_false`` false, unit propagate
        the database, and report whether a conflict arises."""
        if self._empty:
            return True  # an empty clause is a conflict on its own
        assigns: Dict[int, int] = {}  # var -> +1 / -1
        pending: Deque[int] = deque()

        def assign(lit: int) -> bool:
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
                return True
        for lit in self._units.values():
            if not assign(lit):
                return True
        while pending:
            lit = pending.popleft()
            for cid in tuple(self._occ.get(-lit, ())):
                clause = self._clauses[cid]
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
                    return True  # every literal false
                if not assign(unassigned):
                    return True
        return False


def check_drup_reference(cnf: Cnf, proof: DrupProof) -> DrupCheckResult:
    db = ClauseDb()
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
