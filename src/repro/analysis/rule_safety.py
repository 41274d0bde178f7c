"""Static + semantic safety analysis of the rewriting rules (Sect. 5/6).

The engine's rules live in :mod:`repro.rewriting.rules` as structural
checks over update chains.  Each entry of :data:`REGISTRY` describes one
rule *schematically*: a builder constructs a representative LHS/RHS
instance over declared pattern variables — routing through the production
helpers (``merge_contexts``, ``contexts_disjoint``, ``reduce_under``)
wherever possible, so the analyzed rewrite is the implemented one, not a
transcription of it.

For every rule the analyzer checks the declared side conditions:

* **pattern linearity** — the declared pattern variables are pairwise
  distinct and each one is bound by (occurs in) the LHS;
* **no capture** — the RHS introduces no variable absent from the LHS,
  and no variable becomes *general* (in the Positive-Equality sense) on
  the RHS that was positive on the LHS, except those the rule explicitly
  declares via ``may_generalize`` (e.g. the address comparisons the
  forwarding property necessarily introduces);
* **guard preservation** — every declared guard formula occurs in both
  the LHS and the RHS DAGs (a rewrite must not drop a context).

Soundness is then validated semantically: LHS and RHS are joined into an
equivalence (``=`` for terms, ``iff`` for formulas) and evaluated with
the reference evaluator over exhaustively enumerated small universes —
every assignment of 2 and 3 domain values to the value-sorted pattern
variables and both truth values to the Boolean ones, under multiple
UF/memory seeds.  Any interpretation where the two sides differ means
the rewrite changes validity and is reported as an error-level
diagnostic naming the rule.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..eufm import builder
from ..eufm.ast import Expr, Formula, Read, Term, TermVar, Write
from ..eufm.evaluator import SortError, find_counterexample
from ..eufm.polarity import classify
from ..eufm.traversal import bool_variables, iter_dag, term_variables
from ..encode.memory_elim import abstract_memories_conservative
from ..rewriting.rules import (
    RuleViolation,
    contexts_disjoint,
    merge_contexts,
    reduce_under,
)
from .diagnostics import ERROR, INFO, WARNING, Diagnostic

__all__ = [
    "RuleInstance",
    "RuleSpec",
    "REGISTRY",
    "analyze_rule",
    "analyze_rules",
]

#: Name of the probe variable used to lift term rules to formulas for the
#: polarity-capture comparison; excluded from all variable accounting.
_PROBE = "rule!probe"


@dataclass
class RuleInstance:
    """A concrete schematic instance of one rewrite rule."""

    lhs: Expr
    rhs: Expr
    #: declared pattern variables (term and Boolean), by name.
    pattern_vars: Tuple[str, ...]
    #: guard formulas the rewrite must preserve on both sides.
    guards: Tuple[Formula, ...] = ()
    #: variables the rule is *allowed* to move into general positions
    #: (a declared side effect, e.g. forwarding address comparisons).
    may_generalize: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RuleSpec:
    """One registered rule: a name plus an instance builder."""

    name: str
    description: str
    build: Callable[[], RuleInstance]


# ---------------------------------------------------------------------------
# The registry: schematic instances of the paper's rules
# ---------------------------------------------------------------------------


def _reorder_disjoint_updates() -> RuleInstance:
    """Rule 1: updates with structurally disjoint contexts commute."""
    c, r = builder.bvar("rule1!c"), builder.bvar("rule1!r")
    a1, d1 = builder.tvar("rule1!a1"), builder.tvar("rule1!d1")
    a2, d2 = builder.tvar("rule1!a2"), builder.tvar("rule1!d2")
    base = builder.tvar("rule1!rf")
    ctx_retire = builder.and_(c, r)
    ctx_flush = builder.and_(c, builder.not_(r))
    if not contexts_disjoint(ctx_retire, ctx_flush):
        raise RuleViolation("rule 1 side condition rejected its own shape")

    def chain(first_ctx, first_addr, first_data, second_ctx, second_addr,
              second_data):
        state = builder.ite_term(
            first_ctx, builder.write(base, first_addr, first_data), base
        )
        return builder.ite_term(
            second_ctx, builder.write(state, second_addr, second_data), state
        )

    lhs = chain(ctx_retire, a1, d1, ctx_flush, a2, d2)
    rhs = chain(ctx_flush, a2, d2, ctx_retire, a1, d1)
    return RuleInstance(
        lhs=lhs,
        rhs=rhs,
        pattern_vars=("rule1!c", "rule1!r", "rule1!a1", "rule1!d1",
                      "rule1!a2", "rule1!d2", "rule1!rf"),
        guards=(ctx_retire, ctx_flush),
    )


def _merge_complementary_contexts() -> RuleInstance:
    """Rule 2: ``C AND R`` / ``C AND NOT R`` updates merge under ``C``."""
    c, r = builder.bvar("rule2!c"), builder.bvar("rule2!r")
    addr = builder.tvar("rule2!a")
    d_retire, d_flush = builder.tvar("rule2!d1"), builder.tvar("rule2!d2")
    base = builder.tvar("rule2!rf")
    ctx_retire = builder.and_(c, r)
    ctx_flush = builder.and_(c, builder.not_(r))
    retired = builder.ite_term(
        ctx_retire, builder.write(base, addr, d_retire), base
    )
    lhs = builder.ite_term(
        ctx_flush, builder.write(retired, addr, d_flush), retired
    )
    merged = merge_contexts(ctx_retire, ctx_flush)
    if merged is None:
        raise RuleViolation("rule 2 did not recognize its own shape")
    merged_context, residual = merged
    rhs = builder.ite_term(
        merged_context,
        builder.write(base, addr, builder.ite_term(residual, d_retire, d_flush)),
        base,
    )
    return RuleInstance(
        lhs=lhs,
        rhs=rhs,
        pattern_vars=("rule2!c", "rule2!r", "rule2!a", "rule2!d1",
                      "rule2!d2", "rule2!rf"),
        guards=(c, r),
    )


def _case_split_valid_result() -> RuleInstance:
    """Rule 3: Shannon case split via the engine's ``reduce_under``."""
    v = builder.bvar("rule3!vres")
    p, q = builder.bvar("rule3!p"), builder.bvar("rule3!q")
    x, y, z = (builder.tvar("rule3!x"), builder.tvar("rule3!y"),
               builder.tvar("rule3!z"))
    from ..eufm.ast import FALSE, TRUE

    data = builder.ite_term(
        builder.or_(v, p),
        x,
        builder.ite_term(builder.and_(v, q), y, z),
    )
    rhs = builder.ite_term(
        v,
        reduce_under(data, {v: TRUE}),
        reduce_under(data, {v: FALSE}),
    )
    return RuleInstance(
        lhs=data,
        rhs=rhs,
        pattern_vars=("rule3!vres", "rule3!p", "rule3!q", "rule3!x",
                      "rule3!y", "rule3!z"),
        guards=(v,),
    )


def _forwarding_read_push() -> RuleInstance:
    """Rule 3, subcase 2.1 substrate: the memory forwarding property."""
    mem = builder.tvar("fwd!rf")
    written, wanted = builder.tvar("fwd!dest"), builder.tvar("fwd!src")
    data = builder.tvar("fwd!result")
    lhs = builder.read(builder.write(mem, written, data), wanted)
    match = builder.eq(written, wanted)
    rhs = builder.ite_term(match, data, builder.read(mem, wanted))
    return RuleInstance(
        lhs=lhs,
        rhs=rhs,
        pattern_vars=("fwd!rf", "fwd!dest", "fwd!src", "fwd!result"),
        guards=(match,),
        # Pushing a read through a write necessarily compares addresses in
        # a control position; the classification must make them general.
        may_generalize=("fwd!dest", "fwd!src"),
    )


def _guard_split_round_trip() -> RuleInstance:
    """Rule 4 substrate: viewing a formula as an ITE on a guard."""
    from ..eufm.ast import TRUE

    g, t = builder.bvar("split!g"), builder.bvar("split!t")
    lhs = builder.or_(builder.not_(g), t)
    rhs = builder.ite_formula(g, t, TRUE)
    return RuleInstance(
        lhs=lhs,
        rhs=rhs,
        pattern_vars=("split!g", "split!t"),
        guards=(g,),
    )


REGISTRY: List[RuleSpec] = [
    RuleSpec(
        name="reorder-disjoint-updates",
        description="rule 1: an update moves over one with a disjoint context",
        build=_reorder_disjoint_updates,
    ),
    RuleSpec(
        name="merge-complementary-contexts",
        description="rule 2: Valid&retire / Valid&!retire merge under Valid",
        build=_merge_complementary_contexts,
    ),
    RuleSpec(
        name="case-split-valid-result",
        description="rule 3: Shannon split on ValidResult via reduce_under",
        build=_case_split_valid_result,
    ),
    RuleSpec(
        name="forwarding-read-push",
        description="rule 3.2.1: read-through-write forwarding property",
        build=_forwarding_read_push,
    ),
    RuleSpec(
        name="guard-split-round-trip",
        description="split_on_guard normal form: (!g | t) = ITE(g, t, TRUE)",
        build=_guard_split_round_trip,
    ),
]


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


def _var_names(*roots: Expr) -> set:
    names = {node.name for node in term_variables(*roots)}
    names |= {node.name for node in bool_variables(*roots)}
    names.discard(_PROBE)
    return names


def _as_formula(expr: Expr) -> Formula:
    """Lift a term to a formula (against a probe) for classification."""
    if isinstance(expr, Term):
        return builder.eq(expr, builder.tvar(_PROBE))
    return expr


def _classified_g_names(expr: Expr) -> set:
    """g-variable names of the (memory-abstracted) formula view of ``expr``."""
    phi = _as_formula(expr)
    if any(isinstance(node, (Read, Write)) for node in iter_dag(phi)):
        phi = abstract_memories_conservative(phi)
    info = classify(phi)
    return {var.name for var in info.g_vars} - {_PROBE}


def _static_checks(spec: RuleSpec, instance: RuleInstance) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    lhs_names = _var_names(instance.lhs)
    rhs_names = _var_names(instance.rhs)

    # Pattern linearity: declared variables are distinct and LHS-bound.
    seen = set()
    for name in instance.pattern_vars:
        if name in seen:
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="rules",
                check="rules.nonlinear-pattern",
                subject=spec.name,
                message=f"pattern variable {name!r} is declared twice",
            ))
        seen.add(name)
        if name not in lhs_names:
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="rules",
                check="rules.unbound-pattern-var",
                subject=spec.name,
                message=(
                    f"pattern variable {name!r} does not occur in the LHS; "
                    "the match cannot bind it"
                ),
            ))

    # No capture: the RHS must not invent variables.
    for name in sorted(rhs_names - lhs_names):
        diagnostics.append(Diagnostic(
            severity=ERROR,
            stage="rules",
            check="rules.rhs-invents-variable",
            subject=spec.name,
            message=(
                f"RHS uses variable {name!r} that the LHS never binds "
                "(captures an arbitrary value)"
            ),
        ))

    # Guard preservation: every declared context survives into the RHS.
    # (A guard may be absent from the LHS — forwarding *introduces* its
    # address comparison — but dropping one narrows no update soundly.)
    rhs_nodes = set(iter_dag(instance.rhs))
    for guard in instance.guards:
        if guard not in rhs_nodes:
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="rules",
                check="rules.guard-dropped",
                subject=spec.name,
                message=(
                    f"guard {guard!r} does not survive into the RHS; "
                    "the rewrite widens the update's context"
                ),
            ))

    # Polarity capture: the RHS may not silently make variables general.
    try:
        lhs_g = _classified_g_names(instance.lhs)
        rhs_g = _classified_g_names(instance.rhs)
    except TypeError:
        diagnostics.append(Diagnostic(
            severity=WARNING,
            stage="rules",
            check="rules.polarity-capture-unchecked",
            subject=spec.name,
            message="could not classify the rule sides for g-term capture",
        ))
    else:
        allowed = set(instance.may_generalize)
        for name in sorted(rhs_g - lhs_g - allowed):
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage="rules",
                check="rules.captures-into-general-position",
                subject=spec.name,
                message=(
                    f"variable {name!r} becomes general on the RHS without "
                    "being declared in may_generalize; applying the rule "
                    "changes the p/g classification"
                ),
            ))
        for name in sorted(lhs_g - rhs_g):
            diagnostics.append(Diagnostic(
                severity=WARNING,
                stage="rules",
                check="rules.generality-dropped",
                subject=spec.name,
                message=(
                    f"variable {name!r} is general on the LHS but positive "
                    "on the RHS"
                ),
            ))
    return diagnostics


def _semantic_check(
    spec: RuleSpec,
    instance: RuleInstance,
    domain_sizes: Sequence[int],
    seeds: Sequence[int],
    max_assignments: int,
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    lhs, rhs = instance.lhs, instance.rhs
    if lhs.is_term() != rhs.is_term():
        diagnostics.append(Diagnostic(
            severity=ERROR,
            stage="rules",
            check="rules.sort-mismatch",
            subject=spec.name,
            message="LHS and RHS have different sorts (term vs formula)",
        ))
        return diagnostics

    if lhs is rhs:
        diagnostics.append(Diagnostic(
            severity=INFO,
            stage="rules",
            check="rules.identity-after-normalization",
            subject=spec.name,
            message=(
                "LHS and RHS normalize to the same DAG node; the rule is "
                "trivially sound"
            ),
        ))
        return diagnostics

    if lhs.is_term():
        equivalence = builder.eq(lhs, rhs)
    else:
        equivalence = builder.iff(lhs, rhs)

    try:
        search = find_counterexample(
            equivalence, domain_sizes, seeds, max_assignments
        )
    except SortError as exc:
        diagnostics.append(Diagnostic(
            severity=ERROR,
            stage="rules",
            check="rules.sort-mismatch",
            subject=spec.name,
            message=f"ill-sorted rule instance: {exc}",
        ))
        return diagnostics
    if search.counterexample is not None:
        diagnostics.append(Diagnostic(
            severity=ERROR,
            stage="rules",
            check="rules.unsound-rewrite",
            subject=spec.name,
            message=(
                "LHS and RHS differ under a concrete interpretation; the "
                "rewrite changes validity"
            ),
            data=asdict(search.counterexample),
        ))
        return diagnostics

    if search.truncated:
        diagnostics.append(Diagnostic(
            severity=INFO,
            stage="rules",
            check="rules.universe-truncated",
            subject=spec.name,
            message=(
                f"assignment space exceeded {max_assignments}; checked a "
                "deterministic prefix only"
            ),
        ))
    diagnostics.append(Diagnostic(
        severity=INFO,
        stage="rules",
        check="rules.verified",
        subject=spec.name,
        message=(
            f"LHS = RHS under all {search.checked} enumerated "
            f"interpretations (domains {tuple(domain_sizes)}, "
            f"seeds {tuple(seeds)})"
        ),
        data={"interpretations": search.checked},
    ))
    return diagnostics


def analyze_rule(
    spec: RuleSpec,
    domain_sizes: Sequence[int] = (2, 3),
    seeds: Sequence[int] = (0, 1),
    max_assignments: int = 20_000,
) -> List[Diagnostic]:
    """All safety findings for one rule specification."""
    try:
        instance = spec.build()
    except Exception as exc:  # a broken builder is itself a finding
        return [Diagnostic(
            severity=ERROR,
            stage="rules",
            check="rules.builder-failed",
            subject=spec.name,
            message=f"rule instance builder raised {type(exc).__name__}: {exc}",
        )]
    diagnostics = _static_checks(spec, instance)
    diagnostics.extend(_semantic_check(
        spec, instance, domain_sizes, seeds, max_assignments
    ))
    return diagnostics


def analyze_rules(
    specs: Optional[Iterable[RuleSpec]] = None,
    domain_sizes: Sequence[int] = (2, 3),
    seeds: Sequence[int] = (0, 1),
    max_assignments: int = 20_000,
) -> List[Diagnostic]:
    """Safety findings for every rule in ``specs`` (default: the registry)."""
    diagnostics: List[Diagnostic] = []
    for spec in (REGISTRY if specs is None else specs):
        diagnostics.extend(analyze_rule(
            spec,
            domain_sizes=domain_sizes,
            seeds=seeds,
            max_assignments=max_assignments,
        ))
    return diagnostics
