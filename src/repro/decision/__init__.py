"""Reference decision procedure for memory-free EUFM formulas.

Case splitting over atoms with congruence-closure theory propagation — an
independent implementation path from the Positive-Equality encoding, used
as a testing oracle.
"""

from .congruence import Env, Inconsistent
from .splitter import (
    BudgetExceeded,
    DecisionBudget,
    is_satisfiable,
    is_valid,
)
from .splitter import prove_equal_under

__all__ = [
    "Env",
    "Inconsistent",
    "BudgetExceeded",
    "DecisionBudget",
    "is_satisfiable",
    "is_valid",
    "prove_equal_under",
]
