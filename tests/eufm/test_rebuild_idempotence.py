"""Builder output is a fixed point of reconstruction: rebuilding any node
from its own children returns the node itself.

The rewriting case split (:class:`repro.rewriting.rules.CaseWalk`) relies
on this to keep a node whose children are unchanged without calling the
builder again.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.eufm.traversal import _rebuild, iter_dag
from repro.processor import (
    ProcessorConfig,
    build_correctness_formula,
    run_diagram,
)

from .test_properties import formula_strategy, term_strategy


def _assert_fixed_points(root):
    identity = {}
    for node in iter_dag(root):
        identity[node] = node
        assert _rebuild(node, identity) is node


@settings(max_examples=200, deadline=None)
@given(st.one_of(formula_strategy(depth=4), term_strategy(depth=4)))
def test_random_dags_rebuild_to_themselves(root):
    _assert_fixed_points(root)


@pytest.mark.parametrize("family", ["reg-reg", "mem", "branch"])
def test_correctness_formulas_rebuild_to_themselves(family):
    config = ProcessorConfig(n_rob=8, issue_width=2, family=family)
    _assert_fixed_points(build_correctness_formula(run_diagram(config)))
