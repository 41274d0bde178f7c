"""The structural rewriting rules of Sect. 6.

All checks are *syntactic*, exploiting the regular structure of the
abstract out-of-order processor (all computation slices have identical
shape), exactly as the paper prescribes:

* :func:`conjuncts` / :func:`contexts_disjoint` — rule 1, reordering: an
  update moves over another when the two contexts are conjunctions sharing
  a literal in opposite polarity (the form guaranteed by in-order
  retirement).
* :func:`merge_contexts` — rule 2: the two updates of a retire-width
  instruction (``Valid_i AND retire_i`` / ``Valid_i AND NOT retire_i``)
  merge under context ``Valid_i``.
* :class:`CaseWalk` — assumption-driven structural simplification used
  by the case split on ``ValidResult_i`` (rule 3): one walk per data
  expression, rebuilt once per case, with *stop nodes* so large
  preceding-state sub-DAGs are treated as opaque leaves;
  :func:`reduce_under` is its one-case form.
* :func:`split_on_guard` — views a formula as an ITE on a given guard,
  undoing the builder's connective normal forms.
* :func:`prove_forwarding_matches_read` — rule 3, subcase 2.1: the
  synchronized walk of the forwarding chain, the availability chain, and
  the specification-side read chain.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import ReproError
from ..eufm import builder
from ..guard.deadline import current_deadline
from ..eufm.ast import (
    FALSE,
    TRUE,
    And,
    BoolVar,
    Expr,
    Formula,
    FormulaITE,
    Not,
    Or,
    Read,
    Term,
    TermITE,
)
from ..eufm.traversal import _rebuild_from

__all__ = [
    "conjuncts",
    "contexts_disjoint",
    "merge_contexts",
    "reduce_under",
    "CaseWalk",
    "split_on_guard",
    "substitute_opaque",
    "prove_forwarding_matches_read",
    "RuleViolation",
]


class RuleViolation(ReproError):
    """A structural check failed; the message names the offending shape."""


def conjuncts(context: Formula) -> FrozenSet[Formula]:
    """The flattened conjunct set of a context formula."""
    if context is TRUE:
        return frozenset()
    if isinstance(context, And):
        return frozenset(context.args)
    return frozenset((context,))


def contexts_disjoint(ctx_a: Formula, ctx_b: Formula) -> bool:
    """Rule 1 side condition: the contexts cannot hold simultaneously.

    Detected structurally: the conjunction of the two flattened conjunct
    sets contains a complementary literal pair, where a negated conjunction
    ``NOT (x1 AND .. AND xn)`` also clashes with a set containing all of
    ``x1 .. xn`` (the in-order-retirement shape: ``NOT retire_i`` against a
    context that implies ``retire_i``).
    """
    set_a, set_b = conjuncts(ctx_a), conjuncts(ctx_b)
    if builder.and_(ctx_a, ctx_b) is FALSE:
        return True
    for one, other in ((set_a, set_b), (set_b, set_a)):
        for literal in one:
            if isinstance(literal, Not):
                body = literal.arg
                if body in other:
                    return True
                if isinstance(body, And) and set(body.args) <= other:
                    return True
    return False


def merge_contexts(
    ctx_first: Formula, ctx_second: Formula
) -> Optional[Tuple[Formula, Formula]]:
    """Rule 2: merge complementary sibling contexts.

    Expects ``ctx_first = C AND R`` and ``ctx_second = C AND NOT R`` (in
    flattened-set form, where ``R`` may stand for several conjuncts whose
    conjunction is negated in the second context).  Returns
    ``(merged_context, residual)`` — the merged context is ``C`` and the
    residual ``R`` selects between the two data expressions — or ``None``
    when the contexts do not have the complementary shape.
    """
    set_first, set_second = conjuncts(ctx_first), conjuncts(ctx_second)
    negated = [lit for lit in set_second if isinstance(lit, Not)]
    for literal in negated:
        body = literal.arg
        body_set = set(body.args) if isinstance(body, And) else {body}
        if not body_set <= set_first:
            continue
        common_first = set_first - body_set
        common_second = set_second - {literal}
        if common_first == common_second:
            merged = builder.and_(*sorted(common_first, key=lambda n: n.uid))
            return merged, body
    return None


class CaseWalk:
    """One post-order walk of ``root``, rebuilt once per case of a split.

    The walk neither descends into ``stop_nodes`` nor into the keys of
    ``seam``, which keeps per-slice checks local even though the data
    expressions reference large preceding-state chains.  Each
    :meth:`reduce` rebuilds the walked order with Boolean variables fixed
    to constants: the seam keys become their values and the stop nodes
    stay as they are (both opaque leaves, never reduced).  A node whose
    rebuilt children are all its own children is kept as is, without a
    builder call — sound because builder output is already in normal form.

    ``reduce(assumptions)`` equals ``reduce_under(substitute_opaque(root,
    seam), assumptions, stop_nodes)`` when the seam values are stop nodes,
    no seam key lies beneath a stop node, and the substitution neither
    creates a stop node nor lets the builder merge one into its parent
    (And/Or flattening, double negation, ITE collapse, read-over-write
    folding).  All of these hold at the engine's prefix seam, where the
    seam keys are only ever read from.
    """

    def __init__(
        self,
        root: Expr,
        stop_nodes: Iterable[Expr] = (),
        seam: Optional[Dict[Expr, Expr]] = None,
    ) -> None:
        self._seam = seam or {}
        self._stop = {node.uid for node in stop_nodes}
        opaque = self._stop | {node.uid for node in self._seam}
        deadline = current_deadline()
        # uid -> post-order position; -1 while the node is being expanded.
        position: Dict[int, int] = {}
        nodes: List[Expr] = []
        inner: List[Tuple[int, List[int]]] = []
        stack: List[Tuple[Expr, Optional[Tuple[Expr, ...]]]] = [(root, None)]
        pop, push = stack.pop, stack.append
        while stack:
            deadline.tick("rewrite")
            node, children = pop()
            if children is not None:
                index = len(nodes)
                position[node.uid] = index
                nodes.append(node)
                inner.append(
                    (index, [position[child.uid] for child in children])
                )
                continue
            uid = node.uid
            if uid in position:
                continue
            children = () if uid in opaque else node.children
            if not children:
                position[uid] = len(nodes)
                nodes.append(node)
                continue
            position[uid] = -1
            push((node, children))
            for child in children:
                if child.uid not in position:
                    push((child, None))
        self._position = position
        self._nodes = nodes
        self._inner = inner

    @property
    def nodes_visited(self) -> int:
        """Length of the walk: the distinct nodes above the opaque leaves."""
        return len(self._nodes)

    def reduce(self, assumptions: Dict[BoolVar, Formula]) -> Expr:
        """The walked expression rebuilt under one case's assumptions."""
        nodes = self._nodes
        values = list(nodes)
        position, stop = self._position, self._stop
        for var, value in assumptions.items():
            index = position.get(var.uid)
            if (index is not None and var.uid not in stop
                    and isinstance(var, BoolVar)):
                values[index] = value
        for key, value in self._seam.items():
            index = position.get(key.uid)
            if index is not None:
                values[index] = value
        for index, children in self._inner:
            for child in children:
                if values[child] is not nodes[child]:
                    values[index] = _rebuild_from(
                        nodes[index], [values[c] for c in children]
                    )
                    break
        return values[-1]


def reduce_under(
    expr: Expr,
    assumptions: Dict[BoolVar, Formula],
    stop_nodes: Optional[Set[Expr]] = None,
) -> Expr:
    """Rebuild ``expr`` with Boolean variables fixed to constants.

    ``stop_nodes`` are treated as opaque leaves: the walk neither descends
    into nor rewrites them.  A one-case :class:`CaseWalk`.
    """
    for value in assumptions.values():
        if value is not TRUE and value is not FALSE:
            raise ValueError("assumptions must map variables to constants")
    return CaseWalk(expr, stop_nodes or ()).reduce(assumptions)


def substitute_opaque(root: Expr, mapping: Dict[Expr, Expr]) -> Expr:
    """Substitution that treats the mapped nodes as opaque leaves.

    Unlike :func:`repro.eufm.traversal.substitute`, the walk does not
    descend into the replaced sub-DAGs, so replacing a large preceding
    chain state costs only the size of the logic *above* it.
    """
    return CaseWalk(root, seam=mapping).reduce({})


def split_on_guard(
    formula: Formula, guard: Formula
) -> Optional[Tuple[Formula, Formula]]:
    """View ``formula`` as ``ITE(guard, then, els)``.

    Handles the normal forms the builder produces for formula ITEs:

    * ``ITE(guard, t, e)`` itself,
    * ``(NOT guard) OR t``      — an ITE whose else-branch is TRUE,
    * ``guard OR e``            — an ITE whose then-branch is TRUE,
    * ``guard AND t``           — an ITE whose else-branch is FALSE,
    * ``(NOT guard) AND e``     — an ITE whose then-branch is FALSE.

    Returns ``(then, els)`` or ``None`` when the shape does not match.
    """
    if isinstance(formula, FormulaITE) and formula.cond is guard:
        return formula.then, formula.els
    negated = builder.not_(guard)
    if isinstance(formula, Or):
        args = set(formula.args)
        if negated in args:
            rest = [a for a in formula.args if a is not negated]
            return builder.or_(*rest), TRUE
        if guard in args:
            rest = [a for a in formula.args if a is not guard]
            return TRUE, builder.or_(*rest)
    if isinstance(formula, And):
        args = set(formula.args)
        if guard in args:
            rest = [a for a in formula.args if a is not guard]
            return builder.and_(*rest), FALSE
        if negated in args:
            rest = [a for a in formula.args if a is not negated]
            return FALSE, builder.and_(*rest)
    return None


def prove_forwarding_matches_read(
    forwarded: Term,
    spec_read: Term,
    availability: Formula,
) -> None:
    """Rule 3, subcase 2.1: the forwarded operand equals the spec-side read.

    ``forwarded`` is the implementation's forwarding chain
    ``ITE(match_j, Result_j, ...)`` falling through to a read of the
    initial Register File; ``spec_read`` is the specification-side read of
    the same source register, pushed through the preceding updates (same
    ``match_j`` guards, data ``SpecData_j``); ``availability`` mirrors the
    chain, yielding ``ValidResult_j`` on a match.

    The three chains are walked in lockstep.  At each level the guard must
    coincide; the implementation leaf ``Result_j`` must be the
    specification leaf's ``ValidResult_j``-branch, and availability must
    yield exactly ``ValidResult_j`` (so the operand is only consumed once
    the producer has a result).  Raises :class:`RuleViolation` with the
    offending level otherwise.
    """
    deadline = current_deadline()
    level = 0
    fwd, spec, avail = forwarded, spec_read, availability
    while True:
        deadline.tick("rewrite")
        if fwd is spec:
            # Bottomed out at the same initial Register-File read (or the
            # chains collapsed early).
            return
        if not (isinstance(fwd, TermITE) and isinstance(spec, TermITE)):
            raise RuleViolation(
                f"forwarding level {level}: chain shapes diverge "
                f"({fwd.kind} vs {spec.kind})"
            )
        if fwd.cond is not spec.cond:
            raise RuleViolation(
                f"forwarding level {level}: guards differ — the comparator "
                "does not match the specification-side write condition"
            )
        guard = fwd.cond
        split = split_on_guard(avail, guard)
        if split is None:
            raise RuleViolation(
                f"forwarding level {level}: availability does not test the "
                "same producer"
            )
        avail_hit, avail_miss = split
        # On a match: the forwarded value must be the producer's Result and
        # the spec-side data must select exactly that value when the
        # producer's ValidResult (the availability condition) is true.
        spec_hit = spec.then
        hit_ok = False
        if spec_hit is fwd.then:
            hit_ok = True
        elif (
            isinstance(spec_hit, TermITE)
            and spec_hit.cond is avail_hit
            and spec_hit.then is fwd.then
        ):
            hit_ok = True
        if not hit_ok:
            raise RuleViolation(
                f"forwarding level {level}: forwarded value is not the "
                "producer's Result under its ValidResult condition"
            )
        fwd, spec, avail = fwd.els, spec.els, avail_miss
        level += 1
        if avail is TRUE and fwd is spec:
            return
        if level > 100_000:
            raise RuleViolation("forwarding chain does not terminate")
