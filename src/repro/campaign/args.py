"""The run-spec flags of every CLI, each declared once.

A run spec is a :class:`~repro.campaign.jobs.Job`: a processor
configuration, a method and criterion, an optional planted bug, and the
base budgets of its first attempt.  Its flags come in four groups; the
first three nest, each adding the one before it:

* :func:`add_solver_flags` — the conflict, deadline and memory budgets
  and the SAT backend (``serve``);
* :func:`add_job_flags` — family, method, criterion, the planted bug and
  the SAT time budget, plus the solver flags (``campaign``, which adds its
  own ``--grid``);
* :func:`add_config_flags` — ROB size, issue width and retire width,
  plus the job flags (the single-run CLIs: ``python -m repro``,
  ``witness certify|explain``, ``perf record`` and ``trace``);
* :func:`add_policy_flags` — the retry, degradation, SAT-session and
  circuit-breaker policy of a batch (``campaign`` and ``serve``).

:func:`jobs_from_args` and :func:`policies_from_args` turn parsed flags
into the objects ``verify()`` and :class:`~repro.campaign.runner.CampaignRunner`
take; :func:`parse_grid` reads the ``N1xK1,N2xK2,...`` shorthand that
``campaign``, ``lint`` and the service accept.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence, Tuple

from ..core.verifier import METHODS
from ..errors import CampaignError
from ..processor.bugs import BugKind
from ..processor.correctness import CRITERIA
from ..processor.families import family_names
from .jobs import Job
from .runner import DegradePolicy, RetryPolicy

__all__ = [
    "add_config_flags",
    "add_job_flags",
    "add_policy_flags",
    "add_solver_flags",
    "jobs_from_args",
    "parse_grid",
    "policies_from_args",
]


def add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """``--max-conflicts --deadline --max-memory --sat-backend``."""
    group = parser.add_argument_group("solver budgets")
    group.add_argument(
        "--max-conflicts", type=int, default=None, metavar="N",
        help="SAT conflict budget (a campaign's first attempt; retries "
        "escalate it)",
    )
    group.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="pipeline-wide wall-clock deadline, enforced at every stage "
        "(simulation, rewriting, encoding, SAT, witness) — unlike "
        "--max-seconds, which only the SAT solver honors",
    )
    group.add_argument(
        "--max-memory", type=float, default=None, metavar="MB",
        help="memory budget of a run, in MiB; a campaign retries an "
        "exhausted one bigger, like the paper's 4 GB kills",
    )
    group.add_argument(
        "--sat-backend", default=None, metavar="NAME",
        help="SAT backend: reference (in-tree CDCL, default), pysat, "
        "dimacs (solver binary on $PATH), or auto; verdicts are "
        "backend-independent, and certifying runs fall back to the "
        "reference when the backend cannot log DRUP proofs",
    )


def add_job_flags(parser: argparse.ArgumentParser) -> None:
    """``--family --method --criterion --bug --entry --operand
    --max-seconds`` plus :func:`add_solver_flags`."""
    group = parser.add_argument_group("run spec")
    group.add_argument(
        "--family", choices=family_names(), default="reg-reg",
        help="workload family: reg-reg (the seed register-register "
        "model), branch (speculative branches with misprediction "
        "recovery), mem (loads/stores with store-to-load forwarding), "
        "or mixed (both); default reg-reg",
    )
    group.add_argument(
        "--method", choices=METHODS, default="rewriting",
        help="verification method (default: rewriting)",
    )
    group.add_argument(
        "--criterion", choices=CRITERIA, default="disjunction",
        help="correctness criterion (default: the paper's disjunction)",
    )
    group.add_argument(
        "--bug", choices=BugKind.ALL, default=None,
        help="plant a defect before verifying",
    )
    group.add_argument(
        "--entry", type=int, default=1,
        help="ROB entry the defect applies to",
    )
    group.add_argument(
        "--operand", type=int, choices=(1, 2), default=1,
        help="data operand the defect applies to",
    )
    group.add_argument(
        "--max-seconds", type=float, default=None, metavar="SECONDS",
        help="SAT wall-clock budget (escalated like --max-conflicts)",
    )
    add_solver_flags(parser)


def add_config_flags(parser: argparse.ArgumentParser) -> None:
    """``--rob --width --retire-width`` plus :func:`add_job_flags`."""
    group = parser.add_argument_group("processor configuration")
    group.add_argument(
        "--rob", type=int, default=16, help="reorder-buffer size N (default 16)"
    )
    group.add_argument(
        "--width", type=int, default=4, help="issue width k (default 4)"
    )
    group.add_argument(
        "--retire-width", type=int, default=None,
        help="retire width l (default: same as the issue width)",
    )
    add_job_flags(parser)


def add_policy_flags(parser: argparse.ArgumentParser) -> None:
    """``--max-attempts --escalation --no-degrade --no-incremental-sat
    --breaker``."""
    group = parser.add_argument_group("batch policy")
    group.add_argument(
        "--max-attempts", type=int, default=3, metavar="A",
        help="attempts per method before degrading (default 3)",
    )
    group.add_argument(
        "--escalation", type=float, default=2.0, metavar="F",
        help="budget multiplier between attempts (default 2.0)",
    )
    group.add_argument(
        "--no-degrade", action="store_true",
        help="record INCONCLUSIVE instead of falling back to "
        "positive_equality when rewriting exhausts its retries",
    )
    group.add_argument(
        "--no-incremental-sat", action="store_true",
        help="solve every CNF cold instead of resuming same-digest SAT "
        "sessions (learned clauses, activities) across jobs and retries",
    )
    group.add_argument(
        "--breaker", type=int, default=None, metavar="K",
        help="open a per-config-group circuit (same method/criterion/"
        "width/workload family) after K consecutive INCONCLUSIVE "
        "results; the group's remaining jobs short-circuit instead of "
        "burning their budgets (default: off)",
    )


def parse_grid(text: str) -> List[Tuple[int, int]]:
    """Parse the ``N1xK1,N2xK2,...`` shorthand into ``(n_rob, width)``
    pairs; raises :class:`~repro.errors.CampaignError` on a bad entry."""
    shapes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n_text, k_text = chunk.lower().split("x", 1)
            shapes.append((int(n_text), int(k_text)))
        except ValueError:
            raise CampaignError(
                f"bad --grid entry {chunk!r}; expected the form NxK (e.g. 8x2)"
            )
    if not shapes:
        raise CampaignError("--grid names no configurations")
    return shapes


def jobs_from_args(
    args: argparse.Namespace,
    shapes: Optional[Sequence[Tuple[int, int]]] = None,
) -> List[Job]:
    """One :class:`Job` per ``(n_rob, width)`` shape, carrying the job
    flags; ``shapes`` defaults to the config flags' single shape."""
    if shapes is None:
        shapes = [(args.rob, args.width)]
    return [
        Job.build(
            n_rob,
            width,
            retire_width=getattr(args, "retire_width", None),
            family=args.family,
            method=args.method,
            criterion=args.criterion,
            bug_kind=args.bug,
            bug_entry=args.entry,
            bug_operand=args.operand,
            max_conflicts=args.max_conflicts,
            max_seconds=args.max_seconds,
            max_wall_seconds=args.deadline,
            max_memory_mb=args.max_memory,
        )
        for n_rob, width in shapes
    ]


def policies_from_args(
    args: argparse.Namespace,
) -> Tuple[RetryPolicy, DegradePolicy]:
    """The batch's retry schedule (its base budgets are the budget
    flags the parser has) and degradation policy."""
    retry = RetryPolicy(
        max_attempts=args.max_attempts,
        escalation=args.escalation,
        base_conflicts=args.max_conflicts
        if args.max_conflicts is not None
        else RetryPolicy.base_conflicts,
        base_seconds=getattr(args, "max_seconds", None),
        base_wall_seconds=args.deadline,
        base_memory_mb=args.max_memory,
    )
    degrade = DegradePolicy(
        fallback_method=None if args.no_degrade else "positive_equality"
    )
    return retry, degrade
