"""Regenerate ``expected_verdicts.json``: the verdict of every placement.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_table.py

For every (kind, entry, operand) placement of the placement grids the
certified-bugs workload draws from, it verifies the planted-bug design with ``certify=True`` and records
the verdict and the kind of certificate that backs it:

* ``unsat-proof``: PROVED, with a DRUP proof the independent checker
  accepted;
* ``counterexample``: BUG_FOUND, with a counterexample that replays the
  correctness formula to False;
* ``rewrite-flag``: BUG_FOUND because the rewriting rules flagged the
  entry's slice.  No propositional certificate exists for these.

On the Positive Equality grid (reg-reg, N=3, k=1) each placement is also
verified with the rewriting method at the same config, and the two
verdicts must agree.  At N=16, k=2 Positive Equality alone does not
finish (more than 100 s in SAT on a single placement, the blow-up of the
paper's Table 2), so there a verdict is backed by its certificate alone.

The script exits 1, writing nothing, when a certificate fails to check or
the methods disagree.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import (
    EXPECTED_PATH,
    PE_BUGS,
    RW_BUGS,
    RW_MEM_BUGS,
    placement_key,
    placement_space,
    table_section,
)


def _verify(method, family, n, k, placement):
    from repro.core.verifier import verify
    from repro.processor.bugs import Bug
    from repro.processor.params import ProcessorConfig

    result = verify(
        ProcessorConfig(n_rob=n, issue_width=k, family=family),
        method=method,
        bug=Bug(*placement),
        certify=True,
    )
    verdict = "PROVED" if result.correct else "BUG_FOUND"
    return verdict, result.witness


def build_section(grid, log):
    method, family, n, k = grid
    rows = {}
    problems = []
    for placement in placement_space(family, n, k):
        started = time.perf_counter()
        verdict, witness = _verify(method, family, n, k, placement)
        row = {"verdict": verdict, "certificate": witness.kind}
        if witness.kind != "rewrite-flag" and not witness.validated:
            problems.append(f"{placement}: certificate failed: {witness.detail}")
        if method == "positive_equality":
            other, _ = _verify("rewriting", family, n, k, placement)
            row["rewriting_verdict"] = other
            if other != verdict:
                problems.append(
                    f"{placement}: positive_equality {verdict} but "
                    f"rewriting {other}"
                )
        rows[placement_key(*placement)] = row
        log(f"{table_section(*grid)} {placement_key(*placement)} "
            f"{verdict} {witness.kind} {time.perf_counter() - started:.3f}s")
    return rows, problems


def main() -> int:
    sections = {}
    problems = []
    for grid in (RW_BUGS, RW_MEM_BUGS, PE_BUGS):
        rows, found = build_section(grid, lambda line: print(line, flush=True))
        sections[table_section(*grid)] = rows
        problems += found
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"sections": sections}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
