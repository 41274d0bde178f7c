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
**no code** with :class:`repro.sat.solver.Solver` and imports nothing from
:mod:`repro.sat` but the :class:`~repro.sat.cnf.Cnf` container.  Both use
two watched literals, but the checker has its own clause store, its own
dense variable numbering and its own propagation loop, and it re-derives
every lemma by unit propagation from the clauses alone: it never sees the
solver's trail, reasons, decision levels or learned-clause analysis.  A bug
in the solver's propagation, conflict analysis or clause minimization
therefore cannot silently certify its own bogus proof.  The test suite
keeps the checker honest against a deliberately naive reference that
re-propagates from scratch for every step (``tests/witness/
drup_reference.py``).

The checker keeps one root trail, the unit-propagation fixpoint of its
database, across proof steps (see :class:`_RupChecker`), so a RUP check
costs the literals the negated clause adds, not the whole root again.
An empty clause in the database (``Cnf.dedupe`` keeps one) is a conflict
on its own, so every later addition is RUP.

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
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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
    #: literals the checker assigned (root trail and RUP checks).
    assignments: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class _RupChecker:
    """The checker's clause database and its root trail.

    The root trail is the unit-propagation fixpoint of the database, kept
    across proof steps: an addition extends it by propagating from the
    literals it newly forces, and a RUP check assigns the negated clause
    on top of it, propagates, and undoes back to the root length.  A
    deletion invalidates the root only when the deleted clause is the
    reason for a root literal or the root conflict; the root is then
    rebuilt from the unit clauses before the next check.

    Propagation uses two watched literals over the checker's own clause
    store.  Variables are numbered densely in order of first appearance,
    and literal ``2*v`` / ``2*v + 1`` is variable ``v`` positive /
    negated, so negation is ``^ 1``.  Deletion matches clauses as literal
    *sets* (the solver reorders literals in place), and one copy of a
    repeated clause goes at a time.
    """

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}
        #: literal -> 1 true / -1 false / 0 unassigned.
        self._value: List[int] = [0, 0]
        #: literal -> ids of the clauses watching it.
        self._watches: List[List[int]] = [[], []]
        #: variable -> id of the clause that last assigned it.
        self._reason: List[int] = [-1]
        #: id -> distinct literals of every clause but tautologies; a
        #: clause of two or more literals watches its first two.
        self._clauses: Dict[int, List[int]] = {}
        self._by_key: Dict[FrozenSet[int], List[int]] = {}
        self._units: Dict[int, int] = {}
        self._empty = 0
        self._trail: List[int] = []
        #: id of a clause every literal of which is false at the root.
        self._conflict: Optional[int] = None
        self._stale = True
        self._next_id = 0
        self._deadline = current_deadline()
        #: literals assigned so far, on the root trail and in checks.
        self.assignments = 0

    def _code(self, lit: int) -> int:
        var = self._index.get(abs(lit))
        if var is None:
            var = self._index[abs(lit)] = len(self._reason)
            self._reason.append(-1)
            self._value += (0, 0)
            self._watches += ([], [])
        return 2 * var + (lit < 0)

    def add(self, literals: Tuple[int, ...]) -> None:
        cid = self._next_id
        self._next_id += 1
        self._by_key.setdefault(frozenset(literals), []).append(cid)
        codes = list(dict.fromkeys(self._code(lit) for lit in literals))
        if len({code >> 1 for code in codes}) < len(codes):
            return  # a tautology never propagates
        self._clauses[cid] = codes
        live = not self._stale and self._conflict is None
        if not codes:
            self._empty += 1
            return
        if len(codes) == 1:
            self._units[cid] = codes[0]
            if live:
                self._root_assign(codes[0], cid)
            return
        value = self._value
        if live:
            # True literals first, then unassigned, then false: a false
            # watch is then only ever paired with a true one.
            codes.sort(key=lambda code: -value[code])
        self._watches[codes[0]].append(cid)
        self._watches[codes[1]].append(cid)
        if live and value[codes[1]] == -1 and value[codes[0]] != 1:
            self._root_assign(codes[0], cid)

    def _root_assign(self, code: int, cid: int) -> None:
        """Make ``code`` true at the root (reason ``cid``) and propagate."""
        value = self._value[code]
        if value == -1:
            self._conflict = cid
        elif value == 0:
            head = len(self._trail)
            self._assign(code, cid)
            self._conflict = self._propagate(head)
            self.assignments += len(self._trail) - head

    def delete(self, literals: Tuple[int, ...]) -> bool:
        """Remove one clause equal (as a set) to ``literals``."""
        bucket = self._by_key.get(frozenset(literals))
        if not bucket:
            return False
        cid = bucket.pop()
        codes = self._clauses.pop(cid, None)  # watches drop it lazily
        if codes is None:
            return True
        if not codes:
            self._empty -= 1
            return True
        self._units.pop(cid, None)
        if cid == self._conflict or any(
            self._value[code] == 1 and self._reason[code >> 1] == cid
            for code in codes
        ):
            self._stale = True
        return True

    def _rebuild(self) -> None:
        value = self._value
        for code in self._trail:
            value[code] = value[code ^ 1] = 0
        self._trail.clear()
        self._stale = False
        self._conflict = None
        for cid, code in self._units.items():
            if value[code] == -1:
                self._conflict = cid
                break
            if value[code] == 0:
                self._assign(code, cid)
        if self._conflict is None:
            self._conflict = self._propagate(0)
        self.assignments += len(self._trail)

    def _assign(self, code: int, cid: int) -> None:
        self._value[code] = 1
        self._value[code ^ 1] = -1
        self._reason[code >> 1] = cid
        self._trail.append(code)

    def _propagate(self, head: int) -> Optional[int]:
        """Propagate the trail from ``head``; the id of a clause found
        false, or None at the fixpoint."""
        trail, value, watches = self._trail, self._value, self._watches
        clauses, reason, deadline = self._clauses, self._reason, self._deadline
        while head < len(trail):
            deadline.tick("witness")
            false_lit = trail[head] ^ 1
            head += 1
            watching = watches[false_lit]
            kept = 0
            for i in range(len(watching)):
                cid = watching[i]
                clause = clauses.get(cid)
                if clause is None:
                    continue  # deleted
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                other = clause[0]
                if value[other] == 1:
                    watching[kept] = cid
                    kept += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] != -1:
                        clause[1], clause[k] = lit, false_lit
                        watches[lit].append(cid)
                        break
                else:
                    watching[kept] = cid
                    kept += 1
                    if value[other] == -1:
                        del watching[kept:i + 1]
                        return cid
                    value[other] = 1
                    value[other ^ 1] = -1
                    reason[other >> 1] = cid
                    trail.append(other)
            del watching[kept:]
        return None

    def derives_conflict(self, literals: Tuple[int, ...]) -> bool:
        """Whether unit propagation over the database, with every literal
        of ``literals`` assumed false, reaches a conflict."""
        if self._stale:
            self._rebuild()
        if self._empty or self._conflict is not None:
            return True
        trail, value = self._trail, self._value
        root = len(trail)
        conflict = False
        for lit in literals:
            code = self._code(lit)
            if value[code] == 1:
                conflict = True
                break
            if value[code] == 0:
                self._assign(code ^ 1, -1)
        if not conflict:
            conflict = self._propagate(root) is not None
        self.assignments += len(trail) - root
        for code in trail[root:]:
            value[code] = value[code ^ 1] = 0
        del trail[root:]
        return conflict


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
    checker = _RupChecker()
    for clause in cnf.clauses:
        checker.add(tuple(clause))
    result = DrupCheckResult(ok=False)
    _check_steps(checker, proof, result)
    result.assignments = checker.assignments
    return result


def _check_steps(
    checker: _RupChecker, proof: DrupProof, result: DrupCheckResult
) -> None:
    for index, step in enumerate(proof.steps):
        result.steps_checked = index + 1
        if step.delete:
            if not checker.delete(step.literals):
                result.detail = (
                    f"step {index + 1}: deletion of a clause not in the "
                    f"database: {list(step.literals)}"
                )
                return
            result.deletions += 1
            continue
        if not checker.derives_conflict(step.literals):
            label = (
                "the empty clause" if not step.literals
                else f"clause {list(step.literals)}"
            )
            result.detail = (
                f"step {index + 1}: {label} is not reverse-unit-propagation "
                "derivable from the current clause database"
            )
            return
        result.additions += 1
        if not step.literals:
            result.ok = True
            result.detail = (
                f"empty clause derived after {result.additions} addition(s) "
                f"and {result.deletions} deletion(s)"
            )
            return
        checker.add(step.literals)
    result.detail = (
        "proof exhausted without deriving the empty clause "
        f"({result.additions} addition(s) checked)"
    )
