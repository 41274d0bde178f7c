"""Pluggable SAT backend protocol.

The reproduction's own CDCL solver (:mod:`repro.sat.solver`) is the
*reference* backend: pure Python, deterministic, and the only one that
emits DRUP proofs for the witness checker.  This module lets a compiled
solver take its place when one is importable (`python-sat`) or on
``$PATH`` (any DIMACS-speaking solver binary), selected per run via
``--sat-backend`` or ambiently via the ``REPRO_SAT_BACKEND`` environment
variable.

The contract every backend must honour: **verdicts are semantics-free of
the backend choice** — sat/unsat answers agree with the reference for
every input (models may differ; any model must still satisfy the CNF).
Because of that contract the backend name is deliberately *not* part of
:func:`repro.core.keys.canonical_key`: cached verdicts are valid across
backends, and a cache populated under one backend may serve another.
Capability flags tell callers what else a backend can do:

``supports_proof``
    emits DRUP proof steps compatible with :mod:`repro.witness.drup`.
    Callers that need a certifiable UNSAT (``--certify``) fall back to
    the reference backend when the selected one cannot log proofs.
``supports_assumptions``
    honours ``solve(assumptions=...)`` natively (with failed-assumption
    cores where the underlying solver exposes them).

Backends are *classes*; :func:`resolve_backend` maps a name to a class
and :func:`current_backend` reads the ambient selection.  Instances are
one-shot-or-incremental solver handles for a fixed variable count.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union

from ..errors import SolverError
from ..obs.tracer import current_tracer
from .cnf import Cnf, to_dimacs
from .solver import SatResult, Solver

__all__ = [
    "SatBackend",
    "ReferenceBackend",
    "PySatBackend",
    "DimacsSubprocessBackend",
    "BACKENDS",
    "available_backends",
    "resolve_backend",
    "current_backend",
    "use_backend",
]


class SatBackend(ABC):
    """Abstract solver handle: ``add_clause``/``solve``/``model``/``proof``.

    Subclasses fix the capability flags as class attributes and provide
    :meth:`is_available` so callers can probe without importing optional
    dependencies eagerly.
    """

    #: registry name (also the ``--sat-backend`` spelling).
    name: str = "abstract"
    supports_proof: bool = False
    supports_assumptions: bool = False

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can run in the current environment."""
        return False

    @abstractmethod
    def __init__(self, num_vars: int, log_proof: bool = False) -> None:
        ...

    @abstractmethod
    def add_clause(self, literals: Sequence[int]) -> None:
        ...

    @abstractmethod
    def solve(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        ...

    def model(self) -> Optional[Dict[int, bool]]:
        """Model of the last ``solve`` call, if it was sat."""
        return self._last_result.model if self._last_result else None

    def proof(self) -> Optional[List[Tuple[str, Tuple[int, ...]]]]:
        """DRUP steps of the last ``solve`` call, when supported."""
        return self._last_result.proof if self._last_result else None

    _last_result: Optional[SatResult] = None

    @classmethod
    def solve_cnf(
        cls,
        cnf: Cnf,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        log_proof: bool = False,
    ) -> SatResult:
        """One-shot convenience: load ``cnf`` into a fresh handle, solve."""
        handle = cls(cnf.num_vars, log_proof=log_proof)
        for clause in cnf.clauses:
            handle.add_clause(clause)
        return handle.solve(
            max_conflicts=max_conflicts, max_seconds=max_seconds
        )


class ReferenceBackend(SatBackend):
    """The in-tree CDCL solver — always available, proofs and assumptions.

    The handle wraps one :class:`repro.sat.solver.Solver`, built on the
    first ``solve`` over the clauses added so far.
    """

    name = "reference"
    supports_proof = True
    supports_assumptions = True

    @classmethod
    def is_available(cls) -> bool:
        return True

    def __init__(self, num_vars: int, log_proof: bool = False) -> None:
        self._cnf = Cnf(num_vars=num_vars)
        self._log_proof = log_proof
        self._solver = None  # built lazily on first solve
        self._last_result = None

    def add_clause(self, literals: Sequence[int]) -> None:
        if self._solver is None:
            self._cnf.clauses.append(tuple(literals))
        else:
            self._solver.add_clause(literals)

    def solve(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        if self._solver is None:
            self._solver = Solver(self._cnf, log_proof=self._log_proof)
        result = self._solver.solve(
            max_conflicts=max_conflicts,
            max_seconds=max_seconds,
            assumptions=assumptions,
        )
        self._last_result = result
        return result


class PySatBackend(SatBackend):
    """Adapter over ``python-sat`` (PySAT), when importable.

    No DRUP logging (PySAT's bundled solvers do not expose it through
    the Python API), so certifying runs fall back to the reference.
    ``max_seconds`` is best-effort ignored — PySAT offers no portable
    wall-clock budget; ``max_conflicts`` maps to ``conf_budget``.
    """

    name = "pysat"
    supports_proof = False
    supports_assumptions = True

    #: PySAT solver class to instantiate (a name from pysat.solvers).
    SOLVER_NAME = "glucose3"

    @classmethod
    def is_available(cls) -> bool:
        try:
            import pysat.solvers  # noqa: F401
        except Exception:
            return False
        return True

    def __init__(self, num_vars: int, log_proof: bool = False) -> None:
        if log_proof:
            raise SolverError(
                "sat backend 'pysat' cannot log DRUP proofs; use the "
                "reference backend for certifying runs"
            )
        from pysat.solvers import Solver as _PySolver

        self.num_vars = num_vars
        self._solver = _PySolver(name=self.SOLVER_NAME, incr=True)
        self._prev_stats: Dict[str, int] = {}
        self._last_result = None

    def add_clause(self, literals: Sequence[int]) -> None:
        for lit in literals:
            if lit == 0 or abs(lit) > self.num_vars:
                raise SolverError(
                    f"clause literal {lit} is outside the variable range "
                    f"1..{self.num_vars}"
                )
        self._solver.add_clause(list(literals))

    def solve(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        with current_tracer().span("sat") as span:
            start = time.perf_counter()
            if max_conflicts is not None:
                self._solver.conf_budget(max_conflicts)
                outcome = self._solver.solve_limited(
                    assumptions=list(assumptions)
                )
            else:
                outcome = self._solver.solve(assumptions=list(assumptions))
            result = SatResult(
                status=(
                    "sat"
                    if outcome
                    else "unsat" if outcome is False else "unknown"
                )
            )
            if outcome:
                result.model = {
                    abs(lit): lit > 0
                    for lit in (self._solver.get_model() or ())
                }
            elif outcome is False and assumptions:
                core = self._solver.get_core()
                if core:
                    result.core = tuple(core)
            totals = dict(self._solver.accum_stats() or {})
            for stat_key, field in (
                ("conflicts", "conflicts"),
                ("decisions", "decisions"),
                ("propagations", "propagations"),
                ("restarts", "restarts"),
            ):
                delta = totals.get(stat_key, 0) - self._prev_stats.get(
                    stat_key, 0
                )
                setattr(result, field, max(0, delta))
            self._prev_stats = totals
            result.cpu_seconds = time.perf_counter() - start
            span.add("sat.variables", self.num_vars)
            span.add("sat.decisions", result.decisions)
            span.add("sat.conflicts", result.conflicts)
            span.add("sat.propagations", result.propagations)
            span.add("sat.restarts", result.restarts)
            self._last_result = result
            return result


class DimacsSubprocessBackend(SatBackend):
    """Adapter over any DIMACS-speaking solver binary on ``$PATH``.

    The binary is chosen by the ``REPRO_SAT_DIMACS_SOLVER`` environment
    variable when set, otherwise the first of :data:`CANDIDATES` that
    resolves.  Exit codes 10/20 (the SAT-competition convention) are
    authoritative; ``s SATISFIABLE``/``s UNSATISFIABLE`` output lines are
    the fallback.  Models are read from ``v`` lines (MiniSat's
    result-file convention is special-cased).  Assumptions are encoded
    as appended unit clauses — verdict-equivalent, but no failed-
    assumption core and no cross-call learning.  ``max_conflicts`` is
    not portable across binaries and is ignored; ``max_seconds`` maps to
    a subprocess timeout (timeout ⇒ ``"unknown"``).
    """

    name = "dimacs"
    supports_proof = False
    supports_assumptions = True

    CANDIDATES: Tuple[str, ...] = (
        "minisat",
        "cryptominisat5",
        "glucose",
        "cadical",
        "kissat",
        "picosat",
    )

    @classmethod
    def solver_path(cls) -> Optional[str]:
        override = os.environ.get("REPRO_SAT_DIMACS_SOLVER")
        if override:
            return shutil.which(override) or (
                override if os.path.exists(override) else None
            )
        for candidate in cls.CANDIDATES:
            found = shutil.which(candidate)
            if found:
                return found
        return None

    @classmethod
    def is_available(cls) -> bool:
        return cls.solver_path() is not None

    def __init__(self, num_vars: int, log_proof: bool = False) -> None:
        if log_proof:
            raise SolverError(
                "sat backend 'dimacs' cannot log DRUP proofs; use the "
                "reference backend for certifying runs"
            )
        path = self.solver_path()
        if path is None:
            raise SolverError(
                "no DIMACS solver binary found (set REPRO_SAT_DIMACS_SOLVER "
                f"or install one of: {', '.join(self.CANDIDATES)})"
            )
        self._binary = path
        self._cnf = Cnf(num_vars=num_vars)
        self._last_result = None

    @property
    def num_vars(self) -> int:
        return self._cnf.num_vars

    def add_clause(self, literals: Sequence[int]) -> None:
        self._cnf.add_clause(literals)

    def solve(
        self,
        max_conflicts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        with current_tracer().span("sat") as span:
            start = time.perf_counter()
            problem = Cnf(
                num_vars=self._cnf.num_vars,
                clauses=list(self._cnf.clauses),
            )
            for lit in assumptions:
                problem.add_clause([lit])
            result = self._run_binary(problem, max_seconds)
            result.cpu_seconds = time.perf_counter() - start
            span.add("sat.variables", problem.num_vars)
            span.add("sat.clauses", problem.num_clauses)
            self._last_result = result
            return result

    def _run_binary(
        self, problem: Cnf, max_seconds: Optional[float]
    ) -> SatResult:
        is_minisat = os.path.basename(self._binary).startswith("minisat")
        with tempfile.TemporaryDirectory(prefix="repro-sat-") as workdir:
            cnf_path = os.path.join(workdir, "problem.cnf")
            with open(cnf_path, "w", encoding="utf-8") as handle:
                handle.write(to_dimacs(problem))
            command = [self._binary, cnf_path]
            out_path = None
            if is_minisat:
                out_path = os.path.join(workdir, "result.out")
                command.append(out_path)
            try:
                completed = subprocess.run(
                    command,
                    capture_output=True,
                    text=True,
                    timeout=max_seconds,
                )
            except subprocess.TimeoutExpired:
                return SatResult(status="unknown")
            except OSError as exc:
                raise SolverError(
                    f"failed to run DIMACS solver {self._binary!r}: {exc}"
                ) from exc
            output = completed.stdout or ""
            if out_path and os.path.exists(out_path):
                with open(out_path, "r", encoding="utf-8") as handle:
                    output += "\n" + handle.read()
            return self._parse(completed.returncode, output, problem)

    @staticmethod
    def _parse(returncode: int, output: str, problem: Cnf) -> SatResult:
        status = "unknown"
        if returncode == 10:
            status = "sat"
        elif returncode == 20:
            status = "unsat"
        else:
            for line in output.splitlines():
                text = line.strip()
                if text in ("s SATISFIABLE", "SATISFIABLE", "SAT"):
                    status = "sat"
                    break
                if text in ("s UNSATISFIABLE", "UNSATISFIABLE", "UNSAT"):
                    status = "unsat"
                    break
        result = SatResult(status=status)
        if status == "sat":
            model: Dict[int, bool] = {}
            for line in output.splitlines():
                text = line.strip()
                if text.startswith("v "):
                    text = text[2:]
                elif not _looks_like_literal_line(text):
                    continue
                for token in text.split():
                    lit = int(token)
                    if lit != 0:
                        model[abs(lit)] = lit > 0
            # Solvers may omit don't-care variables; complete the model
            # so downstream replay sees every variable assigned.
            for var in range(1, problem.num_vars + 1):
                model.setdefault(var, False)
            result.model = model
        return result


def _looks_like_literal_line(text: str) -> bool:
    """A bare model line (MiniSat result files): integers ending in 0."""
    if not text:
        return False
    tokens = text.split()
    if tokens[-1] != "0":
        return False
    try:
        for token in tokens:
            int(token)
    except ValueError:
        return False
    return True


#: name → backend class.  ``auto`` is resolved by :func:`resolve_backend`.
BACKENDS: Dict[str, Type[SatBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    PySatBackend.name: PySatBackend,
    DimacsSubprocessBackend.name: DimacsSubprocessBackend,
}

#: preference order for ``--sat-backend auto``.
_AUTO_ORDER: Tuple[str, ...] = ("pysat", "dimacs", "reference")


def available_backends() -> List[str]:
    """Names of backends that can run right now."""
    return [
        name for name, cls in BACKENDS.items() if cls.is_available()
    ]


def resolve_backend(name: Optional[str] = None) -> Type[SatBackend]:
    """Map a backend name to its class.

    ``None`` consults ``REPRO_SAT_BACKEND`` and falls back to the
    reference; ``"auto"`` picks the first available of
    pysat → dimacs → reference.  Unknown or unavailable names raise
    :class:`SolverError` — a misspelled backend must not silently solve
    with a different engine.
    """
    if name is None:
        name = os.environ.get("REPRO_SAT_BACKEND") or ReferenceBackend.name
    name = name.strip().lower()
    if name == "auto":
        for candidate in _AUTO_ORDER:
            if BACKENDS[candidate].is_available():
                return BACKENDS[candidate]
        return ReferenceBackend
    cls = BACKENDS.get(name)
    if cls is None:
        raise SolverError(
            f"unknown sat backend {name!r}; known backends: "
            f"{', '.join(sorted(BACKENDS))}, auto"
        )
    if not cls.is_available():
        raise SolverError(
            f"sat backend {name!r} is not available in this environment"
        )
    return cls


_BACKEND: ContextVar[Optional[Type[SatBackend]]] = ContextVar(
    "repro_sat_backend", default=None
)


def current_backend() -> Type[SatBackend]:
    """The ambient backend class (environment-resolved by default)."""
    backend = _BACKEND.get()
    if backend is not None:
        return backend
    return resolve_backend(None)


@contextmanager
def use_backend(
    backend: Union[str, Type[SatBackend], None],
) -> Iterator[Type[SatBackend]]:
    """Install a backend (by name or class) as the ambient selection."""
    if backend is None or isinstance(backend, str):
        resolved = resolve_backend(backend)
    else:
        resolved = backend
    token = _BACKEND.set(resolved)
    try:
        yield resolved
    finally:
        _BACKEND.reset(token)
