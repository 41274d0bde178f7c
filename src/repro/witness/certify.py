"""Turning a finished verification run into a :class:`Witness`.

:func:`certify_result` inspects a :class:`~repro.core.results.
VerificationResult` and produces the matching evidence kind:

* UNSAT verdict → wrap the solver's DRUP step log and run the
  independent checker of :mod:`repro.witness.drup` against the exact CNF
  the solver decided (``validity.encoded.cnf``);
* SAT verdict → reconstruct, replay and minimize the counterexample
  (:mod:`repro.witness.reconstruct`);
* constant collapse / rewriting flag → a structural witness (nothing
  propositional ran, which the witness says rather than papers over).

Certification cost shows up in traces: this module runs under
``witness.*`` spans on the ambient tracer (``witness.check_proof``,
``witness.reconstruct``, ``witness.minimize``, ``witness.diagnose``), so
``python -m repro perf record`` makes the overhead visible.
"""

from __future__ import annotations

from ..errors import WitnessError
from ..obs.tracer import current_tracer
from .drup import DrupProof, check_drup
from .reconstruct import reconstruct_counterexample
from .types import Witness

__all__ = ["certify_result"]


def certify_result(result) -> Witness:
    """Produce a :class:`Witness` for one verification result.

    Raises :class:`~repro.errors.WitnessError` when the result carries a
    SAT verdict but no certifiable artifact — in particular when the run
    was made without ``certify=True`` so no DRUP proof was logged.
    """
    tracer = current_tracer()

    if result.validity is None:
        # The rewriting rules flagged a defective slice before any SAT
        # run; there is no propositional artifact.
        return Witness(
            kind="rewrite-flag",
            validated=False,
            detail=(
                "rewriting rules flagged computation slice "
                f"{result.suspected_entry} ({result.failure_detail}); no SAT "
                "artifact exists to certify — re-run with "
                "method='positive_equality' for a propositional witness"
            ),
        )

    encoded = result.validity.encoded
    if encoded.constant_validity is not None:
        return Witness(
            kind="trivial",
            validated=True,
            detail=(
                "the correctness formula collapsed to the constant "
                f"{encoded.constant_validity} during encoding; no CNF was "
                "produced and no SAT run happened"
            ),
        )

    sat_result = result.validity.sat_result
    if sat_result is None:  # pragma: no cover - guarded by constant path
        raise WitnessError("validity result carries no SAT outcome")

    if sat_result.is_unsat:
        if sat_result.proof is None:
            raise WitnessError(
                "the UNSAT verdict carries no DRUP proof; re-run with "
                "verify(..., certify=True) so the solver logs one"
            )
        with tracer.span("witness.check_proof") as span:
            proof = DrupProof.from_solver_steps(sat_result.proof)
            check = check_drup(encoded.cnf, proof)
            span.add("witness.proof_steps", len(proof.steps))
            span.add("witness.proof_ok", 1 if check.ok else 0)
            span.add("witness.rup_assignments", check.assignments)
        return Witness(
            kind="unsat-proof",
            validated=check.ok,
            detail=check.detail,
            proof=proof,
            check=check,
            cnf_vars=encoded.cnf.num_vars,
            cnf_clauses=encoded.cnf.num_clauses,
        )

    # SAT: reconstruct the term-level counterexample and replay it.
    if result.counterexample is None:
        raise WitnessError(
            "the SAT verdict carries no decoded counterexample to lift"
        )
    cex = reconstruct_counterexample(encoded, result.counterexample)
    validated = cex.replayed_false
    detail = (
        f"counterexample replays to {cex.replay_value}; minimized "
        f"{cex.raw_size} -> {cex.minimized_size} variables"
        if validated
        else (
            "counterexample failed to replay the formula to False "
            f"(raw replay {cex.replay_value}, minimized "
            f"{cex.minimized_replay_value})"
        )
    )
    return Witness(
        kind="counterexample",
        validated=validated,
        detail=detail,
        counterexample=cex,
    )
