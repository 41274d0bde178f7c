"""A CDCL SAT solver in the style of Chaff (Moskewicz et al., DAC 2001).

Features: two-watched-literal unit propagation, first-UIP conflict-clause
learning with clause minimization, VSIDS-like variable activities with a
lazy max-heap decision queue, phase saving, Luby restarts, and
activity-based learned-clause deletion.  This is the reproduction's
substitute for the Chaff SAT-checker used in the paper; absolute speed
differs (pure Python), the algorithmic behaviour does not.

Implementation notes: the state the propagation loop reads is indexed by
*literal*.  ``assigns`` has ``2n+1`` slots holding 0 (unassigned), +1
(true) or -1 (false); Python's negative indices fold literal ``-v`` into
the upper half, and every assignment writes both halves, so
``assigns[-v] == -assigns[v]`` and the value of a literal ``lit`` is
simply ``assigns[lit]`` (``assigns[v]`` for ``v >= 1`` is the variable's
value).  ``watches`` is laid out the same way: ``watches[lit]`` lists the
clauses watching ``-lit``, i.e. the clauses to visit when ``lit`` becomes
true.  ``_propagate`` compacts each visited watch list in place.

The decision heap holds ``(-activity[v], v)`` entries and is lazy: a bump
leaves the variable's old entry behind as a stale one, skipped when
popped.  ``_queued[v]`` is true exactly while the heap holds the *live*
entry ``(-activity[v], v)``, so backtracking pushes a variable only when
it has none.  Invariant: every unassigned variable has a live entry.
The next decision is therefore the unassigned variable with the least
``(-activity, var)`` however the heap is laid out.

Incremental solving: :meth:`Solver.solve` can be called repeatedly, in
the MiniSat style, optionally under ``assumptions``.  Learned clauses,
variable activities and saved phases persist across calls, and a cold
solve is simply the first call with no assumptions.  Each call starts by
backtracking to the root (a no-op on a fresh solver) and leaves its
trail where the search stopped.  Assumptions are installed as
pseudo-decisions at levels ``1..m`` (one level per assumption, with
empty levels for assumptions already true, so *assumption index ==
decision level*), and the CDCL search runs unchanged above them.  When
an assumption is falsified the call returns ``"unsat"`` with
:attr:`SatResult.core` naming the responsible subset of the assumptions
(MiniSat's ``analyzeFinal`` reason-cone walk).  Only real
unsatisfiability latches :attr:`Solver.ok` to False; a failed
assumption is a property of the call, not of the CNF.

Proof logging (``log_proof=True``): the solver records a DRUP clause
proof — every learned clause (post-minimization, including learned
units), every learned-clause deletion of :meth:`Solver._reduce_learned`,
and the final empty clause on UNSAT — as ``("a"|"d", literals)`` steps on
:attr:`SatResult.proof`.  Logging is **off by default** and the hot
propagation loop is untouched either way; only the (comparatively rare)
conflict-analysis and clause-deletion paths test the flag.  The proof is
validated by the *independent* reverse-unit-propagation checker in
:mod:`repro.witness.drup`, which shares no code with this module.

DRUP soundness across calls.  Learned clauses are resolvents of
database clauses only: assumptions enter the trail as reasonless
decisions, so first-UIP analysis can never resolve on them — they appear
*in* learnt clauses as ordinary literals but contribute no clauses to
the resolution.  Every learnt clause is therefore implied by the CNF
alone and lives in one shared, append-only journal (``self._proof``:
learned additions plus the deletions of :meth:`Solver._reduce_learned`).
Each call's :attr:`SatResult.proof` is a *copy* of that journal plus a
per-call tail:

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

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SolverError
from ..guard.deadline import current_deadline
from ..obs.tracer import current_tracer
from .cnf import Cnf

__all__ = ["SatResult", "Solver", "solve_cnf"]

#: Propagations between wall-clock/deadline checks in the main loop.  The
#: conflict path also checks, but a propagation-heavy run with few
#: conflicts would otherwise never look at the clock at all.
_PROP_CHECK_INTERVAL = 2048

#: Rough per-learned-clause overhead in bytes (clause object + watch-list
#: entries), on top of 8 bytes per literal; charged to the ambient
#: memory budget.
_CLAUSE_BYTES = 88


@dataclass
class SatResult:
    """Outcome of a SAT run."""

    status: str  # "sat", "unsat" or "unknown"
    model: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    #: deepest decision level reached (0 when the instance propagates out).
    max_decision_level: int = 0
    cpu_seconds: float = 0.0
    #: DRUP proof steps ``("a"|"d", literals)`` when the solver ran with
    #: ``log_proof=True``; ``None`` otherwise.  Only meaningful for
    #: ``"unsat"`` outcomes (the final step is then the empty clause).
    proof: Optional[List[Tuple[str, Tuple[int, ...]]]] = None
    #: for ``"unsat"`` under assumptions (incremental solving): the
    #: subset of the assumption literals responsible for the failure.
    #: ``None`` for plain unsatisfiability or non-assumption runs.
    core: Optional[Tuple[int, ...]] = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


class _Clause:
    """A clause with an activity score; literals[0:2] are watched."""

    __slots__ = ("literals", "learned", "activity")

    def __init__(self, literals: List[int], learned: bool) -> None:
        self.literals = literals
        self.learned = learned
        self.activity = 0.0


class Solver:
    """CDCL solver over a :class:`repro.sat.cnf.Cnf` instance."""

    def __init__(self, cnf: Cnf, log_proof: bool = False) -> None:
        self.num_vars = cnf.num_vars
        #: DRUP step log, or None when proof logging is off (the default).
        self._proof: Optional[List[Tuple[str, Tuple[int, ...]]]] = (
            [] if log_proof else None
        )
        num_vars = self.num_vars
        # Literal-indexed (see the module docstring): 0 / +1 / -1.
        self.assigns: List[int] = [0] * (2 * num_vars + 1)
        # 1-indexed variable state.
        self.level: List[int] = [0] * (num_vars + 1)
        self.reason: List[Optional[_Clause]] = [None] * (num_vars + 1)
        self.activity: List[float] = [0.0] * (num_vars + 1)
        self.saved_phase: List[int] = [-1] * (num_vars + 1)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.queue_head = 0
        #: literal-indexed watch lists: the clauses to visit when the
        #: index literal becomes true.
        self.watches: List[List[_Clause]] = [
            [] for _ in range(2 * num_vars + 1)
        ]
        self.clauses: List[_Clause] = []
        self.learned: List[_Clause] = []
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        #: False once the CNF itself is proved unsatisfiable (latched;
        #: never set by failed assumptions).
        self.ok = True
        #: counters of the current (or last) call; replaced per call.
        self.stats = SatResult(status="unknown")
        #: amortized clause-activity rescales performed (see
        #: :meth:`_rescale_clause_activities`); exposed for regression
        #: tests asserting bounded per-conflict bump work.
        self._activity_rescales = 0
        # Lazy decision heap of (-activity, var); stale entries skipped.
        # _queued[v]: the heap holds the live entry (-activity[v], v).
        self._heap: List[Tuple[float, int]] = [
            (0.0, var) for var in range(1, num_vars + 1)
        ]
        self._queued: List[bool] = [False] + [True] * num_vars
        #: conflict-analysis marks, all False between conflicts.
        self._seen: List[bool] = [False] * (num_vars + 1)
        for clause in cnf.clauses:
            if not self._add_clause(list(clause)):
                self.ok = False
                break

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------

    def _add_clause(self, literals: List[int]) -> bool:
        """Attach a problem clause; False when it makes the instance unsat."""
        for lit in literals:
            if lit == 0 or abs(lit) > self.num_vars:
                raise SolverError(
                    f"clause literal {lit} is outside the variable range "
                    f"1..{self.num_vars}"
                )
        literals = sorted(set(literals), key=abs)
        seen = set(literals)
        if any(-lit in seen for lit in literals):
            return True  # tautology
        assigns = self.assigns
        simplified = []
        for lit in literals:
            value = assigns[lit]
            if value > 0:
                return True  # satisfied at level 0
            if value == 0:
                simplified.append(lit)
        literals = simplified
        if not literals:
            return False
        if len(literals) == 1:
            return self._enqueue(literals[0], None)
        clause = _Clause(literals, False)
        self.clauses.append(clause)
        self.watches[-literals[0]].append(clause)
        self.watches[-literals[1]].append(clause)
        return True

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        assigns = self.assigns
        current = assigns[lit]
        if current != 0:
            return current > 0
        assigns[lit] = 1
        assigns[-lit] = -1
        var = lit if lit > 0 else -lit
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    # ------------------------------------------------------------------
    # Propagation (hot path — values inlined)
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        """Propagate the queue; returns a conflicting clause or None."""
        assigns = self.assigns
        level = self.level
        reason = self.reason
        trail = self.trail
        watches = self.watches
        decision_level = len(self.trail_lim)
        head = start = self.queue_head
        while head < len(trail):
            lit = trail[head]
            head += 1
            watch_list = watches[lit]
            if not watch_list:
                continue
            false_lit = -lit
            kept = 0
            index = 0
            total = len(watch_list)
            while index < total:
                clause = watch_list[index]
                index += 1
                literals = clause.literals
                first = literals[0]
                if first == false_lit:
                    first = literals[1]
                    literals[0] = first
                    literals[1] = false_lit
                first_value = assigns[first]
                if first_value > 0:
                    watch_list[kept] = clause
                    kept += 1
                    continue
                for slot in range(2, len(literals)):
                    candidate = literals[slot]
                    if assigns[candidate] >= 0:
                        literals[1] = candidate
                        literals[slot] = false_lit
                        watches[-candidate].append(clause)
                        break
                else:
                    watch_list[kept] = clause
                    kept += 1
                    if first_value < 0:
                        del watch_list[kept:index]
                        self.stats.propagations += head - start
                        self.queue_head = len(trail)
                        return clause
                    # Unit: enqueue `first` (inlined _enqueue).
                    assigns[first] = 1
                    assigns[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = decision_level
                    reason[var] = clause
                    trail.append(first)
            del watch_list[kept:]
        self.stats.propagations += head - start
        self.queue_head = head
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        seen = self._seen
        level = self.level
        reason = self.reason
        trail = self.trail
        bump_var = self._bump_var
        bump_clause = self._bump_clause
        learnt: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        lit = 0  # the literal `clause` implied; 0 for the conflict
        clause: Optional[_Clause] = conflict
        trail_index = len(trail) - 1
        current_level = len(self.trail_lim)

        while True:
            assert clause is not None
            bump_clause(clause)
            for reason_lit in clause.literals:
                if reason_lit == lit:
                    continue
                var = reason_lit if reason_lit > 0 else -reason_lit
                if not seen[var]:
                    var_level = level[var]
                    if var_level > 0:
                        seen[var] = True
                        bump_var(var)
                        if var_level >= current_level:
                            counter += 1
                        else:
                            learnt.append(reason_lit)
            while True:
                lit = trail[trail_index]
                trail_index -= 1
                var = lit if lit > 0 else -lit
                if seen[var]:
                    break
            seen[var] = False
            counter -= 1
            if counter == 0:
                learnt[0] = -lit
                break
            clause = reason[var]

        # Every current-level mark is cleared again; the marks left are
        # exactly the variables of learnt[1:], which _minimize clears.
        learnt = self._minimize(learnt, seen)
        if len(learnt) == 1:
            return learnt, 0
        back_level = max(level[abs(l)] for l in learnt[1:])
        for slot in range(1, len(learnt)):
            if level[abs(learnt[slot])] == back_level:
                learnt[1], learnt[slot] = learnt[slot], learnt[1]
                break
        return learnt, back_level

    def _minimize(self, learnt: List[int], seen: List[bool]) -> List[int]:
        """Drop literals implied by the rest of the clause (local check).

        ``seen`` marks exactly the variables of ``learnt[1:]`` on entry;
        they are all unmarked on return.
        """
        level = self.level
        reason = self.reason
        minimized = [learnt[0]]
        for lit in learnt[1:]:
            var = lit if lit > 0 else -lit
            clause = reason[var]
            if clause is None:
                minimized.append(lit)
                continue
            for other in clause.literals:
                other_var = other if other > 0 else -other
                if other_var != var and not seen[other_var] \
                        and level[other_var] > 0:
                    minimized.append(lit)
                    break
        for lit in learnt[1:]:
            seen[abs(lit)] = False
        return minimized

    def _bump_var(self, var: int) -> None:
        activity = self.activity[var] + self.var_inc
        self.activity[var] = activity
        # The old entry, if any, is stale now.  An assigned variable gets
        # its new entry when a backtrack unassigns it.
        if self.assigns[var] == 0:
            heappush(self._heap, (-activity, var))
            self._queued[var] = True
        else:
            self._queued[var] = False
        if activity > 1e100:
            activities = self.activity
            for index in range(1, self.num_vars + 1):
                activities[index] *= 1e-100
            self.var_inc *= 1e-100
            # Rebuild in place: one live entry per unassigned variable.
            assigns = self.assigns
            queued = self._queued
            heap = self._heap
            heap.clear()
            for v in range(1, self.num_vars + 1):
                queued[v] = assigns[v] == 0
                if queued[v]:
                    heap.append((-activities[v], v))
            heap.sort()

    def _bump_clause(self, clause: _Clause) -> None:
        # O(1): rescaling is amortized onto the conflict path (see
        # _rescale_clause_activities), triggered by cla_inc alone, so a
        # saturated activity never makes every bump O(learned).
        if clause.learned:
            clause.activity += self.cla_inc

    def _rescale_clause_activities(self) -> None:
        """Uniformly rescale learned-clause activities.

        Called from the conflict path when ``cla_inc`` saturates.  Since
        every activity is a sum of past ``cla_inc`` values, bounding
        ``cla_inc`` bounds them all; the uniform factor preserves the
        relative order :meth:`_reduce_learned` sorts by.
        """
        for learned in self.learned:
            learned.activity *= 1e-20
        self.cla_inc *= 1e-20
        self._activity_rescales += 1

    # ------------------------------------------------------------------
    # Backtracking and decisions
    # ------------------------------------------------------------------

    def _backtrack(self, back_level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= back_level:
            return
        boundary = trail_lim[back_level]
        trail = self.trail
        assigns = self.assigns
        saved_phase = self.saved_phase
        reason = self.reason
        heap = self._heap
        queued = self._queued
        activity = self.activity
        for lit in trail[boundary:]:
            var = lit if lit > 0 else -lit
            saved_phase[var] = assigns[var]
            assigns[lit] = 0
            assigns[-lit] = 0
            reason[var] = None
            if not queued[var]:
                heappush(heap, (-activity[var], var))
                queued[var] = True
        del trail[boundary:]
        del trail_lim[back_level:]
        self.queue_head = len(trail)

    def _decide(self) -> bool:
        """Decide the unassigned variable with the highest activity.

        Returns False when every variable is assigned: by the heap
        invariant, an empty heap leaves no unassigned variable behind.
        """
        assigns = self.assigns
        activity = self.activity
        heap = self._heap
        queued = self._queued
        while heap:
            neg_activity, var = heappop(heap)
            if -neg_activity != activity[var]:
                continue  # stale heap entry
            queued[var] = False
            if assigns[var] != 0:
                continue
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.saved_phase[var] > 0 else -var, None)
            self.stats.decisions += 1
            if len(self.trail_lim) > self.stats.max_decision_level:
                self.stats.max_decision_level = len(self.trail_lim)
            return True
        return False

    def _learned_limit(self) -> int:
        """Learned-clause count that triggers a reduction sweep.

        Without an ambient memory budget this is the historical 4000.
        Under a :class:`repro.guard.memory.MemoryBudget` the limit
        shrinks with the remaining headroom so the learned database
        cannot single-handedly exhaust the budget, with a floor of 256
        (a solver that may keep no learned clauses cannot learn).
        """
        budget = current_deadline().memory
        if budget is None:
            return 4000
        headroom = budget.max_bytes - budget.usage_bytes(sample=False)
        per_clause = _CLAUSE_BYTES + 8 * 16  # assume ~16-literal clauses
        if headroom <= 0:
            return 256
        return int(max(256, min(4000, headroom // (2 * per_clause))))

    def _reduce_learned(self) -> None:
        if len(self.learned) < self._learned_limit():
            return
        self.learned.sort(key=lambda clause: clause.activity, reverse=True)
        keep = len(self.learned) // 2
        locked = {
            id(self.reason[abs(lit)])
            for lit in self.trail
            if self.reason[abs(lit)] is not None
        }
        survivors = []
        removed = set()
        for position, clause in enumerate(self.learned):
            if position < keep or id(clause) in locked or len(clause.literals) <= 2:
                survivors.append(clause)
            else:
                removed.add(id(clause))
                if self._proof is not None:
                    self._proof.append(("d", tuple(clause.literals)))
        if not removed:
            return
        self.learned = survivors
        for watch_list in self.watches:
            if watch_list:
                watch_list[:] = [c for c in watch_list if id(c) not in removed]

    # ------------------------------------------------------------------
    # Incremental clause addition
    # ------------------------------------------------------------------

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a problem clause between calls.

        Returns False (and latches the instance unsat) when the clause
        is falsified at the root.  Callers certifying proofs must hand
        the checker the extended CNF.
        """
        if not self.ok:
            return False
        self._backtrack(0)
        if not self._add_clause(list(literals)):
            self.ok = False
            return False
        return True

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        """One call, optionally bounded by conflicts or wall time and
        optionally under ``assumptions`` (see the module docstring).

        The call is recorded as a ``"sat"`` span (with the full counter
        set) on the ambient tracer; a no-op unless one is installed.
        """
        with current_tracer().span("sat") as span:
            result = self._run(tuple(assumptions), max_conflicts, max_seconds)
            span.add("sat.variables", self.num_vars)
            span.add("sat.clauses", len(self.clauses))
            span.add("sat.decisions", result.decisions)
            span.add("sat.conflicts", result.conflicts)
            span.add("sat.propagations", result.propagations)
            span.add("sat.restarts", result.restarts)
            span.add("sat.learned_clauses", result.learned_clauses)
            span.add("sat.max_decision_level", result.max_decision_level)
            if result.proof is not None:
                span.add("sat.proof_steps", len(result.proof))
            return result

    def _run(
        self,
        assumptions: Tuple[int, ...],
        max_conflicts: Optional[int],
        max_seconds: Optional[float],
    ) -> SatResult:
        start = time.perf_counter()
        for lit in assumptions:
            if lit == 0 or abs(lit) > self.num_vars:
                raise SolverError(
                    f"assumption literal {lit} is outside the variable "
                    f"range 1..{self.num_vars}"
                )
        # _propagate and _decide count into self.stats: a fresh result
        # per call keeps every earlier result's counters its own.
        self.stats = result = SatResult(status="unknown")
        if not self.ok:
            # Latched real unsatisfiability (an input clause falsified
            # by the input units, or an earlier call's root conflict):
            # the empty clause is RUP from the CNF plus the journal.
            result.status = "unsat"
            result.proof = self._proof_view((("a", ()),))
            result.cpu_seconds = time.perf_counter() - start
            return result
        self._backtrack(0)

        restart_base = 100
        luby_index = 1
        conflicts_until_restart = restart_base * _luby(luby_index)
        conflicts_since_restart = 0
        deadline = current_deadline()
        deadline.check("sat")
        next_prop_check = _PROP_CHECK_INTERVAL

        while True:
            conflict = self._propagate()
            if result.propagations >= next_prop_check:
                # The clock must be consulted on the propagation counter
                # too: a propagation-heavy run with few conflicts would
                # never reach the conflict path's check below.
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
                    self.ok = False
                    result.status = "unsat"
                    result.proof = self._proof_view((("a", ()),))
                    break
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if self._proof is not None:
                    self._proof.append(("a", tuple(learnt)))
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
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
                if max_conflicts is not None and result.conflicts >= max_conflicts:
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


def _luby(index: int) -> int:
    """The Luby restart sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...

    ``index`` is 1-based.  Standard MiniSat-style computation: find the
    subsequence containing ``index`` and the position within it.
    """
    x = index - 1
    size, level = 1, 0
    while size < x + 1:
        level += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        level -= 1
        x = x % size
    return 1 << level


def solve_cnf(
    cnf: Cnf,
    max_conflicts: Optional[int] = None,
    max_seconds: Optional[float] = None,
    log_proof: bool = False,
) -> SatResult:
    """Solve ``cnf`` with a fresh :class:`Solver` instance.

    With ``log_proof=True`` the solver records a DRUP clause proof on
    ``result.proof`` (see the module docstring); off by default.
    """
    return Solver(cnf, log_proof=log_proof).solve(
        max_conflicts=max_conflicts, max_seconds=max_seconds
    )
