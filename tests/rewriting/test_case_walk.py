"""Parity of the rule-3 case split: one walk per data expression, rebuilt
once per case (:class:`CaseWalk`), against reference walks.

The reference walks run one full walk per case and reconstruct every node
reached through the builder, with no unchanged-node shortcut.
"""

from typing import Dict, List, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.eufm import FALSE, TRUE, bvar, tvar
from repro.eufm.ast import BoolVar, Expr
from repro.eufm.traversal import _rebuild, iter_dag
from repro.processor import Bug, ProcessorConfig, run_diagram
from repro.processor.families import get_family
from repro.rewriting import engine, rewrite_diagram
from repro.rewriting.rules import CaseWalk, reduce_under, substitute_opaque

from ..eufm.test_properties import BOOL_NAMES, formula_strategy, term_strategy


def _post_order(root: Expr, opaque) -> List[Expr]:
    order: List[Expr] = []
    seen: Set[Expr] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        if node in opaque:
            continue
        for child in node.children:
            if child not in seen:
                stack.append((child, False))
    return order


def reference_reduce_under(expr, assumptions, stop_nodes=None):
    stop = stop_nodes or set()
    rebuilt: Dict[Expr, Expr] = {}
    for node in _post_order(expr, stop):
        if node in stop:
            rebuilt[node] = node
        elif isinstance(node, BoolVar) and node in assumptions:
            rebuilt[node] = assumptions[node]
        else:
            rebuilt[node] = _rebuild(node, rebuilt)
    return rebuilt[expr]


def reference_substitute_opaque(root, mapping):
    rebuilt: Dict[Expr, Expr] = {}
    for node in _post_order(root, mapping):
        replacement = mapping.get(node)
        rebuilt[node] = (
            replacement if replacement is not None else _rebuild(node, rebuilt)
        )
    return rebuilt[root]


def _beneath(node: Expr) -> Set[Expr]:
    """Nodes strictly below ``node``."""
    return set(iter_dag(*node.children))


BOOLS = [bvar(name) for name in BOOL_NAMES]


#: node kinds the builder never merges into a parent (no And/Or
#: flattening, double negation, term-ITE collapse or read-over-write
#: folding can expose their children).
OPAQUE_SAFE = {"tvar", "bvar", "const", "uf", "up", "eq", "read", "fite"}


@st.composite
def case_splits(draw):
    """A random DAG, a seam (leaf map) and a stop set meeting CaseWalk's
    conditions, and a few constant-assumption cases.

    As at the engine's prefix seam, the seam values are variables that
    are stop nodes, no seam key lies beneath a stop node, and no stop node
    can be merged into a parent."""
    root = draw(st.one_of(formula_strategy(), term_strategy()))
    nodes = list(iter_dag(root))
    keys = draw(st.lists(st.sampled_from(nodes), max_size=3, unique=True))
    seam = {
        key: tvar(f"seam{i}") if key.is_term() else bvar(f"seam{i}")
        for i, key in enumerate(keys)
    }
    candidates = [
        n for n in nodes
        if n.kind in OPAQUE_SAFE and not (_beneath(n) & set(keys))
    ]
    stop = set(seam.values())
    if candidates:
        stop |= set(draw(st.lists(st.sampled_from(candidates), max_size=3)))
    cases = draw(st.lists(
        st.dictionaries(st.sampled_from(BOOLS),
                        st.sampled_from([TRUE, FALSE])),
        min_size=1, max_size=3,
    ))
    return root, seam, stop, cases


@settings(max_examples=300, deadline=None)
@given(case_splits())
def test_one_walk_many_cases_matches_composed_primitives(problem):
    root, seam, stop, cases = problem
    walk = CaseWalk(root, stop, seam=seam)
    substituted = substitute_opaque(root, seam)
    old_substituted = reference_substitute_opaque(root, seam)
    assert substituted is old_substituted
    for assumptions in cases:
        reduced = walk.reduce(assumptions)
        assert reduced is reduce_under(substituted, assumptions, stop)
        assert reduced is reference_reduce_under(
            old_substituted, assumptions, stop
        )
    assert walk.nodes_visited == len(_post_order(root, stop | set(seam)))


@settings(max_examples=150, deadline=None)
@given(case_splits())
def test_reduce_under_matches_full_rebuild(problem):
    root, _, stop, cases = problem
    for assumptions in cases:
        assert reduce_under(root, assumptions, stop) is reference_reduce_under(
            root, assumptions, stop
        )


def test_stop_node_wins_over_assumption():
    p = bvar("p")
    assert reduce_under(p, {p: TRUE}, stop_nodes={p}) is p
    assert CaseWalk(p, seam={p: bvar("q")}).reduce({p: TRUE}) is bvar("q")


class _PerCaseWalks:
    """Reference rule-3 walks: substitute the seam once, then one full
    reference ``reduce_under`` walk per case."""

    nodes_visited = 0

    def __init__(self, root, stop_nodes=(), seam=None):
        self.stop = set(stop_nodes)
        self.root = reference_substitute_opaque(root, seam) if seam else root

    def reduce(self, assumptions):
        return reference_reduce_under(self.root, assumptions, self.stop)


def _placements(family):
    yield None
    for kind in get_family(family).bug_kinds:
        yield Bug(kind, entry=2, operand=1)
        yield Bug(kind, entry=6, operand=2)


@pytest.mark.parametrize("family", ["reg-reg", "mem"])
def test_engine_matches_per_case_walks(family, monkeypatch):
    config = ProcessorConfig(n_rob=8, issue_width=2, family=family)
    for bug in _placements(family):
        artifacts = run_diagram(config, bug=bug)
        new = rewrite_diagram(artifacts)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "CaseWalk", _PerCaseWalks)
            old = rewrite_diagram(artifacts)
        assert new.proved_entries == old.proved_entries, bug
        assert new.failure == old.failure, bug
        assert new.rules_applied == old.rules_applied, bug
        assert new.reduction == old.reduction, bug
