"""Per-layer spans, recorded from outside the program.

:func:`install` wraps each layer's public entry point, at the name its
caller looks it up by, with a recorder that opens a span (name, start,
end, parent) around the call and copies the counts the call returns onto
the span.  Nothing under ``src/`` changes, and the untraced benchmark
passes never call :func:`install`, so they run the program untouched.

Layers and their entry points:

* ``tlsim`` (processor + TLSim): ``processor.correctness.run_diagram``,
  as ``core.verifier`` calls it;
* ``rewrite``: ``rewriting.engine.rewrite_diagram``, as ``core.verifier``
  calls it;
* ``encode``: ``encode.evc.encode_validity``, as ``check_validity`` calls
  it;
* ``sat``: ``sat.solver.solve_cnf`` and ``sat.incremental.SessionPool.
  solve``, as ``encode.evc`` calls them;
* ``witness``: ``witness.certify.certify_result``;
* ``verify`` (core): ``core.verifier.verify``.  Campaigns built after
  :func:`install` pick the wrapper up as their default ``verify_fn``, so
  the same span is the campaign's verify seam;
* ``campaign``: ``campaign.runner.CampaignRunner.run``.

Spans live in memory on a :class:`Recorder`; the benchmark writes them
out once the pass ends.  All spans of one job carry the job's id.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Recorder", "import_layers", "install"]


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "counts", "later")

    def __init__(self, name: str, job: Optional[str],
                 parent: Optional["Span"]) -> None:
        self.name = name
        self.job = job
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.counts: Dict[str, Any] = {}
        #: counts computed at export, so their cost falls outside the pass.
        self.later: Dict[str, Callable[[], Any]] = {}

    def to_dict(self, index: Dict[int, int]) -> Dict[str, Any]:
        for key, compute in self.later.items():
            self.counts[key] = compute()
        return {
            "name": self.name,
            "job": self.job,
            "parent": index.get(id(self.parent)),
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Recorder:
    """In-memory span store for one single-threaded benchmark pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.job: Optional[str] = None
        self._stack: List[Span] = []

    def span(self, name: str) -> "_Open":
        return _Open(self, name)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.job, parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - wrapper bug
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def export(self) -> List[Dict[str, Any]]:
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [span.to_dict(index) for span in self.spans]


class _Open:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self.recorder.open(self.name)
        return self.span

    def __exit__(self, *exc_info) -> bool:
        self.recorder.close(self.span)
        return False


def _wrap(recorder: Recorder, name: str, fn: Callable,
          count: Optional[Callable[[Span, Any], None]] = None) -> Callable:
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
        if count is not None:
            count(span, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _count_tlsim(span, _artifacts) -> None:
    # run_diagram publishes TLSim's work counters on the "simulate" span
    # it just closed under verify()'s own tracer.
    from repro.obs.tracer import current_tracer

    parent = current_tracer().current()
    if parent is None or not parent.children:
        return
    simulate = parent.children[-1]
    for name in ("tlsim.component_evaluations", "tlsim.cycles",
                 "tlsim.nodes_built"):
        span.counts[name] = simulate.total(name)


def _count_rewrite(span, result) -> None:
    span.counts["rule_firings"] = sum(result.rules_applied.values())
    span.counts["entries_proved"] = len(result.proved_entries)
    span.counts["full_reduction"] = int(
        result.succeeded and result.reduction == "full"
    )
    span.counts["succeeded"] = int(result.succeeded)


def _count_encode(span, encoded) -> None:
    from repro.sat.incremental import cnf_digest

    span.counts["cnf_vars"] = encoded.stats.cnf_vars
    span.counts["cnf_clauses"] = encoded.stats.cnf_clauses
    span.counts["eij_vars"] = len(encoded.eij.eij_vars)
    span.counts["transitivity_constraints"] = len(
        encoded.transitivity.constraints
    )
    cnf = encoded.cnf
    span.later["cnf_digest"] = lambda: cnf_digest(cnf)


def _count_sat(span, result) -> None:
    span.counts["status"] = result.status
    span.counts["conflicts"] = result.conflicts
    span.counts["decisions"] = result.decisions
    span.counts["propagations"] = result.propagations


def _count_witness(span, witness) -> None:
    span.counts["kind"] = witness.kind
    span.counts["validated"] = int(witness.validated)
    span.counts["proof_steps"] = (
        len(witness.proof.steps) if witness.proof is not None else 0
    )
    span.counts["replays"] = int(witness.counterexample is not None)


def _count_verify(span, result) -> None:
    span.counts["correct"] = int(result.correct)
    span.counts["timings"] = dict(result.timings)


def import_layers():
    """Import every module :func:`install` patches.

    Traced and untraced passes both call this before their first job, so
    both build the same intern-table history (node uids) during imports.
    """
    from repro.campaign import runner
    from repro.core import verifier
    from repro.encode import evc
    from repro.sat import incremental
    from repro.witness import certify

    return runner, verifier, evc, incremental, certify


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point so calls record spans on ``recorder``."""
    runner, verifier, evc, incremental, certify = import_layers()

    verifier.run_diagram = _wrap(recorder, "tlsim", verifier.run_diagram,
                                 _count_tlsim)
    verifier.rewrite_diagram = _wrap(recorder, "rewrite",
                                     verifier.rewrite_diagram, _count_rewrite)
    evc.encode_validity = _wrap(recorder, "encode", evc.encode_validity,
                                _count_encode)
    evc.solve_cnf = _wrap(recorder, "sat", evc.solve_cnf, _count_sat)
    certify.certify_result = _wrap(recorder, "witness", certify.certify_result,
                                   _count_witness)
    verifier.verify = _wrap(recorder, "verify", verifier.verify,
                            _count_verify)
    runner.CampaignRunner.run = _wrap(recorder, "campaign",
                                      runner.CampaignRunner.run)

    pool_solve = incremental.SessionPool.solve

    def session_solve(pool, *args, **kwargs):
        hits = pool.hits
        with recorder.span("sat") as span:
            result = pool_solve(pool, *args, **kwargs)
        _count_sat(span, result)
        span.counts["session_hit"] = pool.hits - hits
        return result

    session_solve.__wrapped__ = pool_solve
    incremental.SessionPool.solve = session_solve
