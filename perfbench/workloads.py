"""Job lists of the three benchmark workloads, drawn from a seed.

Each job is a plain JSON-serialisable dict, so the benchmark can hand the
verifier the generated jobs and nothing else (the seed never reaches the
program).  A job dict has:

* ``id``: unique within the workload;
* ``n``, ``k``, ``family``, ``method``: the processor config and method;
* ``bug``: ``[kind, entry, operand]`` or ``None``;
* ``max_conflicts``: base SAT budget of the first campaign attempt, or
  ``None`` for the campaign default;
* ``expect``: ``"PROVED"`` or ``"BUG_FOUND"``;
* ``certificate``: the kind of certificate the verdict must carry:
  ``"unsat-proof"``, ``"counterexample"``, ``"rewrite-flag"`` or
  ``"none"`` (jobs run without ``certify``);
* ``sweep``: the name of the N-sweep the job belongs to (jobs of one sweep
  differ only in ``n``), or ``None``;
* ``headline``: true for the workload's largest config, whose time to
  verdict is reported as ``largest_job_s``;
* ``repeat``: true for the repeats of an earlier job (rob-sweep).

Workloads:

* ``rob-sweep`` -- the paper's traffic: the rewriting flow on the correct
  design over a sweep of ROB sizes.  Simulation and rewriting do nearly
  all the work.
* ``speculation`` -- branch families, where the rewriting engine declines
  (``reduction="none"``) and SAT does nearly all the work.
* ``certified-bugs`` -- one certified, incremental campaign over
  seed-drawn planted-bug placements, ending in correct Positive Equality
  jobs whose small conflict budget forces escalation retries.  Witness
  checking does most of the work.

The rob-sweep and speculation job lists are fixed; the seed draws the
certified-bugs placements.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional, Tuple

__all__ = [
    "WORKLOADS",
    "DOMINANT",
    "build_jobs",
    "placement_space",
    "placement_key",
    "table_section",
    "load_expected",
    "CERTIFICATES",
]

WORKLOADS = ("rob-sweep", "speculation", "certified-bugs")
#: the layers each workload is built to load; the traced run reports
#: their share of the traced wall time as ``dominant.share``.
DOMINANT = {
    "rob-sweep": ("tlsim", "rewrite"),
    "speculation": ("sat",),
    "certified-bugs": ("witness",),
}

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected_verdicts.json")
#: certificate kinds an independent check can accept or reject.
CERTIFICATES = ("unsat-proof", "counterexample")

#: bug kinds whose defect sits on one data operand of one entry.
OPERAND_KINDS = (
    "forward-wrong-source",
    "forward-stale-result",
    "execute-ignores-hazard",
)
#: bug kinds whose defect sits on one ROB entry.
ENTRY_KINDS = (
    "retire-without-result",
    "retire-out-of-order",
    "retire-ignores-valid",
    "stale-load-forward",
)
#: bug kinds per family, as ``repro.processor.families`` lists them.
REG_REG_BUG_KINDS = OPERAND_KINDS + (
    "retire-without-result",
    "retire-out-of-order",
    "retire-ignores-valid",
    "pc-single-increment",
)
FAMILY_BUG_KINDS = {
    "reg-reg": REG_REG_BUG_KINDS,
    "mem": REG_REG_BUG_KINDS + ("stale-load-forward", "store-order"),
}

#: the two certified-bugs placement grids: (method, family, N, k).
RW_BUGS = ("rewriting", "reg-reg", 16, 2)
RW_MEM_BUGS = ("rewriting", "mem", 16, 2)
PE_BUGS = ("positive_equality", "reg-reg", 3, 1)
#: rewriting placements drawn per bug kind and family.
RW_DRAWS_PER_KIND = 2
#: Positive Equality placements drawn per run, without replacement, from
#: the placements the table answers BUG_FOUND.  A PROVED placement costs
#: 2-4x a BUG_FOUND one (a DRUP check instead of a counterexample replay),
#: so mixing the two would make the workload's cost depend on the seed.
PE_DRAWS = 4
#: base conflict budget of the correct Positive Equality jobs: small
#: enough that the campaign must escalate and resume their SAT sessions.
ESCALATION_CONFLICTS = 256


def placement_space(family: str, n: int, k: int) -> List[Tuple[str, int, int]]:
    """Every (kind, entry, operand) placement a seed can draw.

    The entry ranges only where the defect logic reads it: ``store-order``
    needs ``2 <= entry <= k`` and ``pc-single-increment`` ignores it.
    """
    space: List[Tuple[str, int, int]] = []
    for kind in FAMILY_BUG_KINDS[family]:
        space.extend(_kind_placements(kind, n, k))
    return space


def _kind_placements(kind: str, n: int, k: int) -> List[Tuple[str, int, int]]:
    if kind in OPERAND_KINDS:
        return [(kind, e, o) for e in range(1, n + 1) for o in (1, 2)]
    if kind in ENTRY_KINDS:
        return [(kind, e, 1) for e in range(1, n + 1)]
    if kind == "store-order":
        return [(kind, e, 1) for e in range(2, k + 1)]
    return [(kind, 1, 1)]


def placement_key(kind: str, entry: int, operand: int) -> str:
    return f"{kind}@{entry}.{operand}"


def table_section(method: str, family: str, n: int, k: int) -> str:
    return f"{method}/{family}/N{n}/k{k}"


def load_expected() -> Dict[str, Dict[str, Dict]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["sections"]


def _job(
    job_id: str,
    n: int,
    k: int,
    family: str = "reg-reg",
    method: str = "rewriting",
    bug: Optional[Tuple[str, int, int]] = None,
    expect: str = "PROVED",
    certificate: str = "none",
    sweep: Optional[str] = None,
    max_conflicts: Optional[int] = None,
    headline: bool = False,
    repeat: bool = False,
) -> Dict:
    return {
        "id": job_id,
        "n": n,
        "k": k,
        "family": family,
        "method": method,
        "bug": list(bug) if bug is not None else None,
        "max_conflicts": max_conflicts,
        "expect": expect,
        "certificate": certificate,
        "sweep": sweep,
        "headline": headline,
        "repeat": repeat,
    }


def _rob_sweep() -> List[Dict]:
    jobs = [
        _job(f"rw-N{n}-k2", n, 2, sweep="reg-reg/k2", headline=(n == 192))
        for n in (32, 64, 128, 192)
    ]
    jobs += [_job(f"rw-N{n}-k4", n, 4, sweep="reg-reg/k4") for n in (32, 64, 128)]
    jobs += [
        _job(f"rw-N{n}-k2-mem", n, 2, family="mem", sweep="mem/k2")
        for n in (32, 64)
    ]
    jobs += [
        _job(f"rw-N32-k2-repeat{i}", 32, 2, sweep="reg-reg/k2", repeat=True)
        for i in (1, 2, 3)
    ]
    return jobs


def _speculation() -> List[Dict]:
    jobs = [
        _job(f"rw-N{n}-k1-branch", n, 1, family="branch", sweep="branch/k1",
             headline=(n == 4))
        for n in (2, 3, 4)
    ]
    jobs.append(_job("rw-N2-k1-mixed", 2, 1, family="mixed"))
    return jobs


def _bug_job(grid, placement, expected) -> Dict:
    method, family, n, k = grid
    kind, entry, operand = placement
    row = expected[table_section(*grid)][placement_key(*placement)]
    abbrev = "rw" if method == "rewriting" else "pe"
    suffix = "" if family == "reg-reg" else f"-{family}"
    return _job(
        f"{abbrev}-N{n}-k{k}{suffix}-{kind}@{entry}.{operand}",
        n, k, family=family, method=method, bug=placement,
        expect=row["verdict"], certificate=row["certificate"],
    )


def _certified_bugs(seed: int) -> List[Dict]:
    expected = load_expected()
    rng = random.Random(seed)
    jobs = []
    # Rewriting placements are drawn per bug kind of each family, so every
    # run covers every kind and only entries/operands vary with the seed.
    for grid in (RW_BUGS, RW_MEM_BUGS):
        _, family, n, k = grid
        for kind in FAMILY_BUG_KINDS[family]:
            space = _kind_placements(kind, n, k)
            for placement in rng.sample(space, min(RW_DRAWS_PER_KIND, len(space))):
                jobs.append(_bug_job(grid, placement, expected))
    rows = expected[table_section(*PE_BUGS)]
    _, family, n, k = PE_BUGS
    bugs = [
        placement for placement in placement_space(family, n, k)
        if rows[placement_key(*placement)]["verdict"] == "BUG_FOUND"
    ]
    for placement in rng.sample(bugs, PE_DRAWS):
        jobs.append(_bug_job(PE_BUGS, placement, expected))
    jobs += [
        _job(f"pe-N{n}-k1", n, 1, method="positive_equality",
             certificate="unsat-proof", sweep="pe/reg-reg/k1",
             max_conflicts=ESCALATION_CONFLICTS, headline=(n == 3))
        for n in (2, 3)
    ]
    return jobs


def build_jobs(workload: str, seed: int) -> List[Dict]:
    """The job list of ``workload`` for ``seed``, in its fixed run order."""
    if workload == "rob-sweep":
        return _rob_sweep()
    if workload == "speculation":
        return _speculation()
    if workload == "certified-bugs":
        return _certified_bugs(seed)
    raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")
