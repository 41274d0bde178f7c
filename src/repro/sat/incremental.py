"""Session reuse for incremental SAT solving.

The campaign grid solves many closely related CNFs: for a fixed rewrite
depth the rewritten correspondence formula is *ROB-size independent*, so
adjacent (N, k) grid points translate to byte-identical clause sets, and
budget-escalation retries re-solve the exact same CNF.  Solving each one
cold throws away everything the previous run learned.
:class:`SessionPool` keeps :class:`repro.sat.solver.Solver` instances
alive between calls — an LRU cache keyed by the CNF digest, installed
ambiently (:func:`use_session_pool`) so the encode layer can route
``solve`` calls through it without plumbing.  A resumed call keeps every
learned clause, activity and phase; the solver's module docstring
explains why its DRUP proofs stay sound across calls.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Sequence, Tuple

from ..obs.tracer import current_tracer
from .cnf import Cnf
from .solver import SatResult, Solver

__all__ = [
    "SessionPool",
    "cnf_digest",
    "current_session_pool",
    "use_session_pool",
]


def cnf_digest(cnf: Cnf) -> str:
    """Content digest of a CNF (structure only — names are metadata)."""
    hasher = hashlib.sha256()
    hasher.update(f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n".encode())
    for clause in cnf.clauses:
        hasher.update(" ".join(map(str, clause)).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


class SessionPool:
    """LRU pool of live solvers keyed by ``(CNF digest, log_proof)``.

    The campaign grid hits the same digest repeatedly (ROB-size-
    independent rewritten formulas; budget-escalation retries), so a
    lookup that lands on a live solver resumes with every learned
    clause, activity and phase intact.  Eviction is size-based LRU; a
    pool is confined to one process (solvers are not picklable) —
    parallel campaign workers each build their own.

    Hits/misses/evictions are mirrored onto the ambient tracer's current
    span as ``sat.session_*`` counters.
    """

    def __init__(self, max_sessions: int = 8) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self._solvers: "OrderedDict[Tuple[str, bool], Solver]" = (
            OrderedDict()
        )
        self.max_sessions = max_sessions
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._solvers)

    def solve(
        self,
        cnf: Cnf,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        log_proof: bool = False,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        """Solve ``cnf`` on its live solver, created on first sight.

        Proof-logging and non-logging solvers are kept distinct: a
        certifying call must not inherit a journal-less solver.
        """
        key = (cnf_digest(cnf), bool(log_proof))
        tracer = current_tracer()
        solver = self._solvers.get(key)
        if solver is not None:
            self.hits += 1
            tracer.add("sat.session_hits", 1)
            self._solvers.move_to_end(key)
        else:
            self.misses += 1
            tracer.add("sat.session_misses", 1)
            solver = Solver(cnf, log_proof=log_proof)
            self._solvers[key] = solver
            for _ in range(len(self._solvers) - self.max_sessions):
                self._solvers.popitem(last=False)
                self.evictions += 1
                tracer.add("sat.session_evictions", 1)
        return solver.solve(
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
