"""SAT substrate: CNF databases, Tseitin translation and a CDCL solver.

The CDCL solver (:class:`repro.sat.Solver`) plays the role of the Chaff
SAT-checker in the paper's tool flow: the negated, propositionally encoded
correctness formula is proved unsatisfiable here.

The solver is incremental: ``Solver.solve`` can be called repeatedly,
optionally under assumptions, with learned clauses persisting across
calls, and a cold solve is the first such call.  On top of it sit the
digest-keyed session pool (:mod:`repro.sat.incremental`), which keeps
solvers alive across campaign jobs, and the pluggable backend protocol
(:mod:`repro.sat.backend`: the in-tree CDCL as reference, optional
python-sat / DIMACS-subprocess adapters).
"""

from .backend import (
    BACKENDS,
    DimacsSubprocessBackend,
    PySatBackend,
    ReferenceBackend,
    SatBackend,
    available_backends,
    current_backend,
    resolve_backend,
    use_backend,
)
from .cnf import Cnf, parse_dimacs, to_dimacs
from .incremental import (
    SessionPool,
    cnf_digest,
    current_session_pool,
    use_session_pool,
)
from .reference import solve_by_enumeration
from .solver import SatResult, Solver, solve_cnf
from .tseitin import TseitinResult, cnf_for_satisfiability, tseitin

__all__ = [
    "Cnf",
    "parse_dimacs",
    "to_dimacs",
    "solve_by_enumeration",
    "SatResult",
    "Solver",
    "solve_cnf",
    "TseitinResult",
    "cnf_for_satisfiability",
    "tseitin",
    "SessionPool",
    "cnf_digest",
    "current_session_pool",
    "use_session_pool",
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
