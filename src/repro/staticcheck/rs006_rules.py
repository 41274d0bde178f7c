"""RS006 — confluence and termination audit of the rewrite-rule registry.

PR 2's rule-safety analyzer proves each registered rule *individually*
sound (LHS = RHS under exhaustively enumerated small interpretations).
That is not enough once the rule set grows: two individually sound
rules can still interact badly.  This checker extends the lint with the
two classic rewriting-system obligations the paper's method leans on:

**Critical pairs.**  For every ordered pair of registered rules (A, B)
and every non-variable position ``p`` in A's LHS, the checker unifies
``A.lhs|p`` with ``B.lhs`` (syntactic first-order unification over the
hash-consed DAG; the declared pattern variables of both rules are the
unification variables).  Each unifier yields a critical pair — the two
ways of reducing the overlapped term::

    σ(A.rhs)   vs.   σ(A.lhs)[ p ← σ(B.rhs) ]

and the pair is *joinable* when both reducts agree:

* syntactically — hash-consing makes both sides the same DAG node
  after builder normalization (counted, reported as info); or
* semantically — equal under every enumerated small-universe
  interpretation (the same finite-model method rule safety uses).
  Semantic-only joins are reported as a warning: the rewrite result
  depends on application order even though soundness is preserved.

A pair whose reducts *differ* under some interpretation is an
error-level finding with the witness interpretation attached — one of
the two rules rewrites the overlap unsoundly, exactly the failure mode
the paper's syntactic restrictions exist to prevent.

**Termination.**  Each rule must decrease the lexicographic measure
``(read-over-write redexes, DAG size)`` or be a *permutation* (equal
node-kind multiset, e.g. rule 1's update reordering, whose termination
comes from the external in-order-retirement order).  Anything else is
reported as a warning: node-count measures cannot certify that the
rule set terminates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.diagnostics import ERROR, INFO, WARNING, Diagnostic
from ..eufm import builder
from ..eufm.ast import (
    And,
    BoolConst,
    BoolVar,
    Eq,
    Expr,
    FormulaITE,
    Not,
    Or,
    Read,
    TermITE,
    TermVar,
    UFApp,
    UPApp,
    Write,
)
from ..eufm.evaluator import SortError, find_counterexample
from ..eufm.traversal import iter_dag
from .engine import STAGE, CheckerSpec, register_checker

__all__ = [
    "analyze_registry",
    "critical_pairs",
    "rule_measure",
    "unify",
]


# ---------------------------------------------------------------------------
# Syntactic unification over the hash-consed DAG
# ---------------------------------------------------------------------------


def _is_pattern_var(node: Expr, pattern_names: frozenset) -> bool:
    return isinstance(node, (TermVar, BoolVar)) and node.name in pattern_names


def _resolve(node: Expr, subst: Dict[Expr, Expr], pattern_names: frozenset) -> Expr:
    while _is_pattern_var(node, pattern_names) and node in subst:
        node = subst[node]
    return node


def _occurs(var: Expr, node: Expr, subst: Dict[Expr, Expr],
            pattern_names: frozenset) -> bool:
    stack = [node]
    seen = set()
    while stack:
        current = _resolve(stack.pop(), subst, pattern_names)
        if current is var:
            return True
        if current in seen:
            continue
        seen.add(current)
        stack.extend(current.children)
    return False


def _heads_match(a: Expr, b: Expr) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, (UFApp, UPApp)):
        return a.symbol == b.symbol and len(a.args) == len(b.args)
    if isinstance(a, (And, Or)):
        return len(a.args) == len(b.args)
    if isinstance(a, BoolConst):
        return a is b
    return True


def unify(
    a: Expr,
    b: Expr,
    pattern_names: frozenset,
    subst: Optional[Dict[Expr, Expr]] = None,
) -> Optional[Dict[Expr, Expr]]:
    """Most general unifier of two schematic expressions, or ``None``.

    ``pattern_names`` are the variable names treated as unification
    variables (the union of both rules' declared pattern variables —
    disjoint by the per-rule name prefixes).  N-ary connectives unify
    positionally in their canonical argument order: a sound
    under-approximation (AC-unification would find more overlaps).
    """
    if subst is None:
        subst = {}
    stack: List[Tuple[Expr, Expr]] = [(a, b)]
    while stack:
        left, right = stack.pop()
        left = _resolve(left, subst, pattern_names)
        right = _resolve(right, subst, pattern_names)
        if left is right:
            continue
        if _is_pattern_var(left, pattern_names):
            if left.is_term() != right.is_term():
                return None
            if _occurs(left, right, subst, pattern_names):
                return None
            subst[left] = right
            continue
        if _is_pattern_var(right, pattern_names):
            if left.is_term() != right.is_term():
                return None
            if _occurs(right, left, subst, pattern_names):
                return None
            subst[right] = left
            continue
        if not _heads_match(left, right):
            return None
        pairs = list(zip(left.children, right.children))
        if len(left.children) != len(right.children):
            return None
        stack.extend(pairs)
    return subst


def _apply(node: Expr, subst: Dict[Expr, Expr], pattern_names: frozenset,
           memo: Optional[Dict[Expr, Expr]] = None) -> Expr:
    """Rebuild ``node`` under ``subst`` through the normalizing builder."""
    if memo is None:
        memo = {}
    resolved = _resolve(node, subst, pattern_names)
    if resolved is not node:
        return _apply(resolved, subst, pattern_names, memo)
    cached = memo.get(node)
    if cached is not None:
        return cached
    kids = [_apply(child, subst, pattern_names, memo)
            for child in node.children]
    if isinstance(node, (TermVar, BoolVar, BoolConst)):
        rebuilt: Expr = node
    elif isinstance(node, UFApp):
        rebuilt = builder.uf(node.symbol, kids)
    elif isinstance(node, UPApp):
        rebuilt = builder.up(node.symbol, kids)
    elif isinstance(node, TermITE):
        rebuilt = builder.ite_term(*kids)
    elif isinstance(node, FormulaITE):
        rebuilt = builder.ite_formula(*kids)
    elif isinstance(node, Read):
        rebuilt = builder.read(*kids)
    elif isinstance(node, Write):
        rebuilt = builder.write(*kids)
    elif isinstance(node, Eq):
        rebuilt = builder.eq(*kids)
    elif isinstance(node, Not):
        rebuilt = builder.not_(*kids)
    elif isinstance(node, And):
        rebuilt = builder.and_(*kids)
    elif isinstance(node, Or):
        rebuilt = builder.or_(*kids)
    else:  # pragma: no cover - new node kinds must be added here
        raise TypeError(f"cannot rebuild node kind {node.kind!r}")
    memo[node] = rebuilt
    return rebuilt


def _replace_walk(root: Expr, target: Expr, replacement: Expr) -> Expr:
    """Rebuild ``root`` with every occurrence of the sub-DAG ``target``
    replaced by ``replacement`` (hash-consing shares occurrences, so
    positionally distinct but structurally equal subterms rewrite
    together — an over-approximation noted in the module docstring)."""
    memo: Dict[Expr, Expr] = {target: replacement}

    def rebuild(node: Expr) -> Expr:
        cached = memo.get(node)
        if cached is not None:
            return cached
        kids = [rebuild(child) for child in node.children]
        if all(new is old for new, old in zip(kids, node.children)):
            rebuilt = node
        elif isinstance(node, UFApp):
            rebuilt = builder.uf(node.symbol, kids)
        elif isinstance(node, UPApp):
            rebuilt = builder.up(node.symbol, kids)
        elif isinstance(node, TermITE):
            rebuilt = builder.ite_term(*kids)
        elif isinstance(node, FormulaITE):
            rebuilt = builder.ite_formula(*kids)
        elif isinstance(node, Read):
            rebuilt = builder.read(*kids)
        elif isinstance(node, Write):
            rebuilt = builder.write(*kids)
        elif isinstance(node, Eq):
            rebuilt = builder.eq(*kids)
        elif isinstance(node, Not):
            rebuilt = builder.not_(*kids)
        elif isinstance(node, And):
            rebuilt = builder.and_(*kids)
        elif isinstance(node, Or):
            rebuilt = builder.or_(*kids)
        else:  # pragma: no cover
            raise TypeError(f"cannot rebuild node kind {node.kind!r}")
        memo[node] = rebuilt
        return rebuilt

    return rebuild(root)


# ---------------------------------------------------------------------------
# Semantic joinability (finite-model, mirrors rule_safety)
# ---------------------------------------------------------------------------


def _semantically_equal(
    left: Expr,
    right: Expr,
    domain_sizes: Sequence[int] = (2, 3),
    seeds: Sequence[int] = (0, 1),
    max_assignments: int = 4096,
) -> Tuple[bool, Optional[Dict[str, object]]]:
    """(equal-under-all-enumerated-interpretations, witness-or-None)."""
    if left.is_term() != right.is_term():
        return False, {"reason": "sort mismatch"}
    equivalence = (builder.eq(left, right) if left.is_term()
                   else builder.iff(left, right))
    try:
        search = find_counterexample(
            equivalence, domain_sizes, seeds, max_assignments
        )
    except SortError as exc:
        return False, {"reason": f"ill-sorted: {exc}"}
    if search.counterexample is not None:
        return False, asdict(search.counterexample)
    return True, None


# ---------------------------------------------------------------------------
# Critical pairs
# ---------------------------------------------------------------------------


def critical_pairs(rule_a, rule_b, self_pair: bool) -> List[Dict[str, object]]:
    """All overlaps of ``rule_b`` into ``rule_a``'s LHS.

    Returns dicts with the overlapped term and both reducts; joinability
    classification is the caller's job.
    """
    pattern_names = frozenset(rule_a.pattern_vars) | frozenset(rule_b.pattern_vars)
    pairs: List[Dict[str, object]] = []
    for position, sub in enumerate(iter_dag(rule_a.lhs)):
        if _is_pattern_var(sub, pattern_names):
            continue
        if self_pair and sub is rule_a.lhs:
            continue  # root self-overlap is trivially joinable
        if sub.is_term() != rule_b.lhs.is_term():
            continue
        subst = unify(sub, rule_b.lhs, pattern_names)
        if subst is None:
            continue
        overlapped = _apply(rule_a.lhs, subst, pattern_names)
        reduct_outer = _apply(rule_a.rhs, subst, pattern_names)
        inner_redex = _apply(sub, subst, pattern_names)
        inner_rhs = _apply(rule_b.rhs, subst, pattern_names)
        reduct_inner = _replace_walk(overlapped, inner_redex, inner_rhs)
        pairs.append({
            "position": position,
            "overlap": overlapped,
            "reduct_outer": reduct_outer,
            "reduct_inner": reduct_inner,
        })
    return pairs


# ---------------------------------------------------------------------------
# Termination measure
# ---------------------------------------------------------------------------


def rule_measure(expr: Expr) -> Tuple[int, int]:
    """Lexicographic termination measure: (read-over-write redexes,
    distinct DAG nodes)."""
    redexes = 0
    size = 0
    for node in iter_dag(expr):
        size += 1
        if isinstance(node, Read) and isinstance(node.mem, Write):
            redexes += 1
    return redexes, size


def _kind_multiset(expr: Expr) -> Counter:
    return Counter(node.kind for node in iter_dag(expr))


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


def _diag(severity: str, slug: str, subject: str, message: str,
          **data) -> Diagnostic:
    return Diagnostic(
        severity=severity,
        stage=STAGE,
        check=f"RS006.{slug}",
        subject=subject,
        message=message,
        data={"code": "RS006", "file": "repro/analysis/rule_safety.py",
              "line": 0, "col": 0, "qualname": "REGISTRY", **data},
    )


def analyze_registry(specs=None) -> List[Diagnostic]:
    """Confluence + termination findings for the rule registry."""
    if specs is None:
        from ..analysis.rule_safety import REGISTRY
        specs = REGISTRY
    diagnostics: List[Diagnostic] = []
    instances = []
    for spec in specs:
        try:
            instances.append((spec, spec.build()))
        except Exception as exc:
            diagnostics.append(_diag(
                ERROR, "builder-failed", spec.name,
                f"rule instance builder raised "
                f"{type(exc).__name__}: {exc}",
                rule=spec.name,
            ))

    # Termination: each rule decreases the measure or is a permutation.
    for spec, instance in instances:
        if instance.lhs is instance.rhs:
            diagnostics.append(_diag(
                INFO, "identity-rule", spec.name,
                "LHS and RHS normalize to the same DAG; no termination "
                "obligation", rule=spec.name,
            ))
            continue
        lhs_measure = rule_measure(instance.lhs)
        rhs_measure = rule_measure(instance.rhs)
        if rhs_measure < lhs_measure:
            diagnostics.append(_diag(
                INFO, "measure-decreases", spec.name,
                f"measure {lhs_measure} -> {rhs_measure} "
                "(read-over-write redexes, DAG size): terminating",
                rule=spec.name, lhs_measure=list(lhs_measure),
                rhs_measure=list(rhs_measure),
            ))
        elif _kind_multiset(instance.lhs) == _kind_multiset(instance.rhs):
            diagnostics.append(_diag(
                INFO, "permutative-rule", spec.name,
                "LHS and RHS have equal node-kind multisets; the rule "
                "permutes structure and needs an external well-founded "
                "order (in-order retirement) for termination",
                rule=spec.name,
            ))
        else:
            diagnostics.append(_diag(
                WARNING, "measure-not-decreasing", spec.name,
                f"measure {lhs_measure} -> {rhs_measure} does not "
                "decrease and the rule is not a permutation; termination "
                "of the rule set is not certified by the node-count "
                "measure",
                rule=spec.name, lhs_measure=list(lhs_measure),
                rhs_measure=list(rhs_measure),
            ))

    # Confluence: classify every critical pair of every ordered rule pair.
    total = syntactic = semantic = 0
    for spec_a, inst_a in instances:
        for spec_b, inst_b in instances:
            pair_name = f"{spec_a.name} <~ {spec_b.name}"
            semantic_only = 0
            for pair in critical_pairs(inst_a, inst_b,
                                       self_pair=inst_a is inst_b):
                total += 1
                outer = pair["reduct_outer"]
                inner = pair["reduct_inner"]
                if outer is inner:
                    syntactic += 1
                    continue
                equal, witness = _semantically_equal(outer, inner)
                if equal:
                    semantic += 1
                    semantic_only += 1
                else:
                    diagnostics.append(_diag(
                        ERROR, "critical-pair-divergent", pair_name,
                        "the two reducts of an overlap differ under a "
                        "concrete interpretation; rewriting the overlap "
                        "with these rules in different orders changes "
                        "validity",
                        rules=[spec_a.name, spec_b.name],
                        witness=witness,
                    ))
            if semantic_only:
                diagnostics.append(_diag(
                    WARNING, "overlap-order-dependent", pair_name,
                    f"{semantic_only} overlap(s) join semantically but "
                    "not syntactically: the normal form depends on "
                    "application order (sound, but the engine should "
                    "fix an order)",
                    rules=[spec_a.name, spec_b.name],
                    count=semantic_only,
                ))
    diagnostics.append(_diag(
        INFO, "registry-summary", "registry",
        f"{len(instances)} rules; {total} critical pair(s): "
        f"{syntactic} joinable syntactically, {semantic} semantically "
        f"only, {total - syntactic - semantic} divergent",
        rules=[spec.name for spec, _ in instances],
        pairs=total, syntactic=syntactic, semantic=semantic,
    ))
    return diagnostics


def _run_project(_modules) -> List[Diagnostic]:
    return analyze_registry()


register_checker(CheckerSpec(
    code="RS006",
    name="rule-registry-confluence",
    description=(
        "critical-pair overlaps between registered rewriting rules are "
        "joinable and every rule decreases a termination measure"
    ),
    run_project=_run_project,
))
