"""DAG traversal utilities for EUFM expressions.

All walks are iterative so that deeply nested expressions (e.g. ITE chains
over hundreds of reorder-buffer entries) never hit Python's recursion limit.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from .ast import (
    And,
    BoolConst,
    BoolVar,
    Eq,
    Expr,
    Formula,
    FormulaITE,
    Not,
    Or,
    Read,
    Term,
    TermITE,
    TermVar,
    UFApp,
    UPApp,
    Write,
)
from . import builder
from ..guard.deadline import current_deadline

__all__ = [
    "iter_dag",
    "iter_unique",
    "node_count",
    "dag_depth",
    "term_variables",
    "bool_variables",
    "function_symbols",
    "predicate_symbols",
    "equations",
    "memory_nodes",
    "substitute",
    "rewrite_dag",
    "map_dag",
    "expression_stats",
]


def iter_dag(*roots: Expr) -> Iterator[Expr]:
    """Yield every distinct node reachable from ``roots`` in post-order.

    Children are always yielded before their parents, so a single pass can
    compute bottom-up attributes.
    """
    deadline = current_deadline()
    seen: Set[Expr] = set()
    for root in roots:
        if root in seen:
            continue
        stack: List[Tuple[Expr, bool]] = [(root, False)]
        while stack:
            deadline.tick("eufm")
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for child in node.children:
                if child not in seen:
                    stack.append((child, False))


def iter_unique(*roots: Expr) -> Iterator[Expr]:
    """Alias of :func:`iter_dag`; exists for call-site readability."""
    return iter_dag(*roots)


def node_count(*roots: Expr) -> int:
    """Number of distinct DAG nodes reachable from ``roots``."""
    return sum(1 for _ in iter_dag(*roots))


def dag_depth(root: Expr) -> int:
    """Length of the longest root-to-leaf path (a leaf has depth 1)."""
    depth: Dict[Expr, int] = {}
    for node in iter_dag(root):
        children = node.children
        if children:
            depth[node] = 1 + max(depth[child] for child in children)
        else:
            depth[node] = 1
    return depth[root]


def term_variables(*roots: Expr) -> List[TermVar]:
    """All distinct term variables, in first-encountered (post-order) order."""
    return [node for node in iter_dag(*roots) if isinstance(node, TermVar)]


def bool_variables(*roots: Expr) -> List[BoolVar]:
    """All distinct propositional variables, in post-order."""
    return [node for node in iter_dag(*roots) if isinstance(node, BoolVar)]


def function_symbols(*roots: Expr) -> List[str]:
    """Distinct UF symbols, in order of first appearance."""
    symbols: List[str] = []
    seen: Set[str] = set()
    for node in iter_dag(*roots):
        if isinstance(node, UFApp) and node.symbol not in seen:
            seen.add(node.symbol)
            symbols.append(node.symbol)
    return symbols


def predicate_symbols(*roots: Expr) -> List[str]:
    """Distinct UP symbols, in order of first appearance."""
    symbols: List[str] = []
    seen: Set[str] = set()
    for node in iter_dag(*roots):
        if isinstance(node, UPApp) and node.symbol not in seen:
            seen.add(node.symbol)
            symbols.append(node.symbol)
    return symbols


def equations(*roots: Expr) -> List[Eq]:
    """All distinct equations in the DAG."""
    return [node for node in iter_dag(*roots) if isinstance(node, Eq)]


def memory_nodes(*roots: Expr) -> List[Expr]:
    """All distinct ``read``/``write`` nodes in the DAG."""
    return [node for node in iter_dag(*roots) if isinstance(node, (Read, Write))]


def map_dag(root: Expr, leaf_fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``root`` bottom-up, replacing each leaf-level node.

    ``leaf_fn`` is consulted for *every* node before its reconstruction; if
    it returns a non-``None`` expression, that expression replaces the node
    (and its subtree is not visited further from this occurrence — but note
    the walk is over the DAG, so sharing is preserved).  Reconstruction goes
    through the smart constructors, so local simplification is re-applied.
    """
    rebuilt: Dict[Expr, Expr] = {}
    for node in iter_dag(root):
        replacement = leaf_fn(node)
        if replacement is not None:
            rebuilt[node] = replacement
            continue
        rebuilt[node] = _rebuild(node, rebuilt)
    return rebuilt[root]


def _rebuild(node: Expr, rebuilt: Dict[Expr, Expr]) -> Expr:
    """Reconstruct ``node`` from already-rebuilt children."""
    return _rebuild_from(node, [rebuilt[child] for child in node.children])


def _rebuild_from(node: Expr, children: Sequence[Expr]) -> Expr:
    """Reconstruct ``node`` over ``children`` (in ``node.children`` order)."""
    kind = node.kind
    if kind in ("tvar", "bvar", "const"):
        return node
    if kind == "uf":
        return builder.uf(node.symbol, children)
    if kind == "up":
        return builder.up(node.symbol, children)
    if kind == "tite":
        return builder.ite_term(*children)
    if kind == "fite":
        return builder.ite_formula(*children)
    if kind == "read":
        return builder.read(*children)
    if kind == "write":
        return builder.write(*children)
    if kind == "eq":
        return builder.eq(*children)
    if kind == "not":
        return builder.not_(*children)
    if kind == "and":
        return builder.and_(*children)
    if kind == "or":
        return builder.or_(*children)
    raise TypeError(f"unknown node kind {kind!r}")


def rewrite_dag(root: Expr, rewrite_fn: Callable[[Expr, Expr], Expr]) -> Expr:
    """Rebuild ``root`` bottom-up with a rewrite applied at every node.

    ``rewrite_fn(original, rebuilt)`` receives the original node and its
    reconstruction from already-rewritten children; returning a non-``None``
    expression replaces the rebuilt node.  Unlike :func:`map_dag`, the
    rewrite sees children that have themselves been rewritten, so nested
    redexes are handled in a single pass.
    """
    rebuilt: Dict[Expr, Expr] = {}
    for node in iter_dag(root):
        candidate = _rebuild(node, rebuilt)
        replacement = rewrite_fn(node, candidate)
        rebuilt[node] = candidate if replacement is None else replacement
    return rebuilt[root]


def substitute(root: Expr, mapping: Dict[Expr, Expr]) -> Expr:
    """Simultaneously replace occurrences of the keys of ``mapping``.

    Replacement is non-recursive (the substituted expressions are not
    themselves rewritten), matching standard simultaneous substitution.
    """
    for old, new in mapping.items():
        if old.is_term() != new.is_term():
            raise TypeError(f"substitution changes sort of {old!r}")

    def leaf_fn(node: Expr):
        return mapping.get(node)

    return map_dag(root, leaf_fn)


def expression_stats(*roots: Expr) -> Dict[str, int]:
    """Counts of node kinds — handy for reporting formula sizes."""
    stats: Dict[str, int] = {}
    for node in iter_dag(*roots):
        stats[node.kind] = stats.get(node.kind, 0) + 1
    stats["total"] = sum(stats.values())
    return stats
