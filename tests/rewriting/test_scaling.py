"""Scaling guard for the paper's flow: simulation and rewriting work grow
no faster than the DAG (about N^2 for the fully built forwarding logic).

The measures are deterministic counters from the trace — TLSim component
evaluations and the nodes walked by the rewriting case splits — so the
guard is immune to host speed.
"""

import math

from repro.core.verifier import verify
from repro.processor import ProcessorConfig

SIZES = (32, 64, 128)
MAX_EXPONENT = 2.05


def _slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / sum((a - mx) ** 2 for a in lx)


def test_simulate_and_rewrite_counters_scale_at_most_quadratically():
    evaluations, visited = [], []
    for n in SIZES:
        result = verify(ProcessorConfig(n_rob=n, issue_width=2), trace=True)
        assert result.correct
        simulate = result.trace.find("simulate")
        rewrite = result.trace.find("rewrite")
        evaluations.append(simulate.total("tlsim.component_evaluations"))
        visited.append(rewrite.total("rewrite.nodes_visited"))
    assert _slope(SIZES, evaluations) <= MAX_EXPONENT, evaluations
    assert _slope(SIZES, visited) <= MAX_EXPONENT, visited
