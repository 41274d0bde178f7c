"""Incremental, assumption-based SAT solving with session reuse.

The campaign grid solves many closely related CNFs: for a fixed rewrite
depth the rewritten correspondence formula is *ROB-size independent*, so
adjacent (N, k) grid points translate to byte-identical clause sets, and
budget-escalation retries re-solve the exact same CNF.  Solving each one
cold throws away everything the previous run learned.  This module keeps
a :class:`Solver` alive between calls:

* :class:`IncrementalSolver` adds ``solve(assumptions=[...])`` in the
  MiniSat style — assumptions are installed as pseudo-decisions at
  levels ``1..m`` (one level per assumption, with empty levels for
  assumptions already true, so *assumption index == decision level*),
  the CDCL search runs unchanged above them, and learned clauses,
  variable activities and saved phases persist across calls.  When an
  assumption is falsified the solver returns ``"unsat"`` with
  :attr:`SatResult.core` naming the responsible subset of the
  assumptions (MiniSat's ``analyzeFinal`` reason-cone walk).
* :class:`SessionPool` is an LRU cache of live solvers keyed by the CNF
  digest, installed ambiently (:func:`use_session_pool`) so the encode
  layer can route ``solve`` calls through it without plumbing.

DRUP soundness across calls
---------------------------

Learned clauses are resolvents of database clauses only: assumptions
enter the trail as reasonless decisions, so first-UIP analysis can never
resolve on them — they appear *in* learnt clauses as ordinary literals
but contribute no clauses to the resolution.  Every learnt clause is
therefore implied by the CNF alone and lives in one shared, append-only
journal (``self._proof``: learned additions plus the deletions of
:meth:`Solver._reduce_learned`).  Each call's :attr:`SatResult.proof` is
a *copy* of that journal plus a per-call tail:

* real UNSAT (level-0 conflict): ``journal + [("a", ())]`` — checkable
  against the original CNF;
* UNSAT under assumptions: ``journal + [("a", core_clause), ("a", ())]``
  — checkable against the CNF *plus one unit clause per assumption*
  (:func:`repro.witness.drup.cnf_with_assumptions`).  The core clause is
  reverse-unit-propagation derivable because it mirrors the propagation
  cone that falsified the assumption; the empty clause then follows from
  the assumption units.

Reverse unit propagation is monotone under clause addition, so journal
entries recorded in earlier calls stay valid in every later view.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import SolverError
from ..guard.deadline import current_deadline
from ..obs.tracer import current_tracer
from .cnf import Cnf
from .solver import (
    _CLAUSE_BYTES,
    _PROP_CHECK_INTERVAL,
    SatResult,
    Solver,
    _Clause,
    _luby,
)

__all__ = [
    "IncrementalSolver",
    "SatSession",
    "SessionPool",
    "cnf_digest",
    "current_session_pool",
    "use_session_pool",
]


class IncrementalSolver(Solver):
    """A :class:`Solver` whose :meth:`solve` can be called repeatedly.

    State persists between calls: learned clauses (and their journal
    entries), variable activities, saved phases.  Between calls the
    solver sits at decision level 0.
    """

    def __init__(self, cnf: Cnf, log_proof: bool = False) -> None:
        super().__init__(cnf, log_proof=log_proof)
        #: latched *real* unsatisfiability (never set by failed
        #: assumptions, which are a property of the call, not the CNF).
        self._unsat = not self.ok
        self._calls = 0

    # ------------------------------------------------------------------
    # Incremental clause addition
    # ------------------------------------------------------------------

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a problem clause between calls.

        Returns False (and latches the instance unsat) when the clause
        is falsified at the root.  Callers certifying proofs must hand
        the checker the extended CNF.
        """
        if self._unsat or not self.ok:
            return False
        self._backtrack(0)
        if not self._add_clause(list(literals)):
            self.ok = False
            self._unsat = True
            return False
        return True

    # ------------------------------------------------------------------
    # Solving under assumptions
    # ------------------------------------------------------------------

    def solve(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        """One incremental call, optionally under ``assumptions``.

        Recorded as a ``"sat"`` span like the base solver, plus
        a ``sat.incremental_calls`` counter.
        """
        assumptions = tuple(assumptions)
        with current_tracer().span("sat") as span:
            result = self._run_incremental(
                assumptions, max_conflicts, max_seconds
            )
            span.add("sat.variables", self.num_vars)
            span.add("sat.clauses", len(self.clauses))
            span.add("sat.decisions", result.decisions)
            span.add("sat.conflicts", result.conflicts)
            span.add("sat.propagations", result.propagations)
            span.add("sat.restarts", result.restarts)
            span.add("sat.learned_clauses", result.learned_clauses)
            span.add("sat.max_decision_level", result.max_decision_level)
            span.add("sat.incremental_calls", 1)
            if result.proof is not None:
                span.add("sat.proof_steps", len(result.proof))
            return result

    def _run_incremental(
        self,
        assumptions: Tuple[int, ...],
        max_conflicts: Optional[int],
        max_seconds: Optional[float],
    ) -> SatResult:
        start = time.perf_counter()
        self._calls += 1
        for lit in assumptions:
            if lit == 0 or abs(lit) > self.num_vars:
                raise SolverError(
                    f"assumption literal {lit} is outside the variable "
                    f"range 1..{self.num_vars}"
                )
        self.stats = SatResult(status="unknown")
        result = self.stats
        if self._unsat or not self.ok:
            result.status = "unsat"
            result.proof = self._proof_view((("a", ()),))
            result.cpu_seconds = time.perf_counter() - start
            return result

        deadline = current_deadline()
        deadline.check("sat")
        restart_base = 100
        luby_index = 1
        conflicts_until_restart = restart_base * _luby(luby_index)
        conflicts_since_restart = 0
        next_prop_check = _PROP_CHECK_INTERVAL

        while True:
            conflict = self._propagate()
            if result.propagations >= next_prop_check:
                next_prop_check = result.propagations + _PROP_CHECK_INTERVAL
                if max_seconds is not None and \
                        time.perf_counter() - start > max_seconds:
                    result.status = "unknown"
                    break
                deadline.check("sat")
            if conflict is not None:
                result.conflicts += 1
                conflicts_since_restart += 1
                if not self.trail_lim:
                    # Conflict below every assumption: the CNF itself is
                    # unsatisfiable.  Latch it.
                    self._unsat = True
                    result.status = "unsat"
                    result.proof = self._proof_view((("a", ()),))
                    break
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if self._proof is not None:
                    self._proof.append(("a", tuple(learnt)))
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._unsat = True
                        result.status = "unsat"
                        result.proof = self._proof_view((("a", ()),))
                        break
                else:
                    clause = _Clause(learnt, learned=True)
                    clause.activity = self.cla_inc
                    self.learned.append(clause)
                    self.watches[-learnt[0]].append(clause)
                    self.watches[-learnt[1]].append(clause)
                    self._enqueue(learnt[0], clause)
                    result.learned_clauses += 1
                    deadline.charge(bytes_=_CLAUSE_BYTES + 8 * len(learnt))
                self.var_inc /= self.var_decay
                self.cla_inc /= self.cla_decay
                if self.cla_inc > 1e20:
                    self._rescale_clause_activities()
                if max_conflicts is not None and \
                        result.conflicts >= max_conflicts:
                    result.status = "unknown"
                    break
                if max_seconds is not None and result.conflicts % 256 == 0:
                    if time.perf_counter() - start > max_seconds:
                        result.status = "unknown"
                        break
                continue

            if conflicts_since_restart >= conflicts_until_restart:
                conflicts_since_restart = 0
                luby_index += 1
                conflicts_until_restart = restart_base * _luby(luby_index)
                result.restarts += 1
                self._backtrack(0)
                self._reduce_learned()
                continue

            # Install the next pending assumption (assumption index ==
            # decision level; restarts/backjumps pop them, this loop
            # reinstalls from wherever the trail now stands).
            installed = False
            failed: Optional[int] = None
            while len(self.trail_lim) < len(assumptions):
                deadline.tick("sat")
                lit = assumptions[len(self.trail_lim)]
                value = self.assigns[lit]
                if value > 0:
                    # Already true: burn an empty level to keep the
                    # index == level correspondence.
                    self.trail_lim.append(len(self.trail))
                    continue
                if value < 0:
                    failed = lit
                    break
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
                if len(self.trail_lim) > result.max_decision_level:
                    result.max_decision_level = len(self.trail_lim)
                installed = True
                break
            if failed is not None:
                core_clause = tuple(self._final_conflict(failed))
                result.status = "unsat"
                result.core = tuple(-l for l in core_clause)
                result.proof = self._proof_view(
                    (("a", core_clause), ("a", ()))
                )
                break
            if installed:
                continue

            if not self._decide():
                result.status = "sat"
                result.model = {
                    var: self.assigns[var] > 0
                    for var in range(1, self.num_vars + 1)
                    if self.assigns[var] != 0
                }
                break

        if result.proof is None:
            result.proof = self._proof_view(())
        result.cpu_seconds = time.perf_counter() - start
        self._backtrack(0)
        return result

    def _proof_view(
        self, tail: Sequence[Tuple[str, Tuple[int, ...]]]
    ) -> Optional[List[Tuple[str, Tuple[int, ...]]]]:
        """A per-call snapshot: shared journal copy + call-specific tail.

        The journal itself stays shared and append-only; handing out
        copies keeps earlier results immune to later calls.
        """
        if self._proof is None:
            return None
        return list(self._proof) + list(tail)

    def _final_conflict(self, failed: int) -> List[int]:
        """MiniSat ``analyzeFinal``: the clause of negated assumptions
        whose conjunction forced ``failed`` (a currently-false
        assumption literal) — i.e. the failure core, as a clause."""
        out = [-failed]
        if not self.trail_lim:
            return out
        seen = {failed if failed > 0 else -failed}
        for lit in reversed(self.trail[self.trail_lim[0]:]):
            var = lit if lit > 0 else -lit
            if var not in seen:
                continue
            seen.discard(var)
            reason = self.reason[var]
            if reason is None:
                out.append(-lit)
            else:
                for other in reason.literals:
                    other_var = other if other > 0 else -other
                    if other_var != var and self.level[other_var] > 0:
                        seen.add(other_var)
        return out


# ----------------------------------------------------------------------
# Session pool
# ----------------------------------------------------------------------


def cnf_digest(cnf: Cnf) -> str:
    """Content digest of a CNF (structure only — names are metadata)."""
    hasher = hashlib.sha256()
    hasher.update(f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n".encode())
    for clause in cnf.clauses:
        hasher.update(" ".join(map(str, clause)).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


class SatSession:
    """A live incremental solver bound to one CNF digest."""

    __slots__ = ("digest", "log_proof", "solver", "calls")

    def __init__(
        self, digest: str, log_proof: bool, solver: IncrementalSolver
    ) -> None:
        self.digest = digest
        self.log_proof = log_proof
        self.solver = solver
        self.calls = 0


class SessionPool:
    """LRU pool of incremental solver sessions keyed by CNF digest.

    The campaign grid hits the same digest repeatedly (ROB-size-
    independent rewritten formulas; budget-escalation retries), so a
    lookup that lands on a live session resumes with every learned
    clause, activity and phase intact.  Eviction is size-based LRU; a
    pool is confined to one process (sessions are not picklable) —
    parallel campaign workers each build their own.

    Hits/misses/evictions are mirrored onto the ambient tracer's current
    span as ``sat.session_*`` counters.
    """

    def __init__(self, max_sessions: int = 8) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self._sessions: "OrderedDict[Tuple[str, bool], SatSession]" = (
            OrderedDict()
        )
        self.max_sessions = max_sessions
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def session(self, cnf: Cnf, log_proof: bool = False) -> SatSession:
        """The live session for ``cnf``, created on first sight.

        Proof-logging and non-logging sessions are kept distinct: a
        certifying call must not inherit a journal-less solver.
        """
        key = (cnf_digest(cnf), bool(log_proof))
        tracer = current_tracer()
        existing = self._sessions.get(key)
        if existing is not None:
            self.hits += 1
            tracer.add("sat.session_hits", 1)
            self._sessions.move_to_end(key)
            return existing
        self.misses += 1
        tracer.add("sat.session_misses", 1)
        solver = IncrementalSolver(cnf, log_proof=log_proof)
        session = SatSession(key[0], bool(log_proof), solver)
        self._sessions[key] = session
        for _ in range(len(self._sessions) - self.max_sessions):
            self._sessions.popitem(last=False)
            self.evictions += 1
            tracer.add("sat.session_evictions", 1)
        return session

    def solve(
        self,
        cnf: Cnf,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        log_proof: bool = False,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        """Solve ``cnf`` through its (possibly resumed) session."""
        session = self.session(cnf, log_proof=log_proof)
        session.calls += 1
        return session.solver.solve(
            max_conflicts=max_conflicts,
            max_seconds=max_seconds,
            assumptions=assumptions,
        )


_SESSION_POOL: ContextVar[Optional[SessionPool]] = ContextVar(
    "repro_sat_session_pool", default=None
)


def current_session_pool() -> Optional[SessionPool]:
    """The ambient session pool, or None when solving cold."""
    return _SESSION_POOL.get()


@contextmanager
def use_session_pool(
    pool: Optional[SessionPool],
) -> Iterator[Optional[SessionPool]]:
    """Install ``pool`` as the ambient session pool for a scope."""
    token = _SESSION_POOL.set(pool)
    try:
        yield pool
    finally:
        _SESSION_POOL.reset(token)
