"""One benchmark pass: run a workload's jobs in this (fresh) interpreter.

Started by ``run.py``, never imported by it::

    python3 perfbench/worker.py JOBS_JSON OUT_JSON [--trace] [--setup-only]

``JOBS_JSON`` holds the generated job list (see ``workloads.py``); the
worker never sees the seed.  The worker runs the jobs one after another in
this single-threaded process, in list order, and writes to ``OUT_JSON``:

* ``ready``: ``time.monotonic()`` when the first job starts, so the parent
  can time interpreter start, imports and job-list building;
* ``started`` / ``ready_pc``: ``time.perf_counter()`` when the worker began
  and when the first job starts;
* ``cpu_s``: process CPU seconds from the first job to the last verdict;
* ``peak_rss_mb``: the process's ``ru_maxrss``;
* ``jobs``: per job its verdict, start and end (``perf_counter``), the
  certificate it carries, the deterministic counts its result returns and
  the intern table growth it caused;
* ``spans``: with ``--trace``, the per-layer spans of ``spans.py``;
* ``samples``: the host-speed samples of ``speed.py``, taken throughout.

With ``--setup-only`` the worker stops once the job list is built.
Workloads whose jobs carry a ``max_conflicts`` budget run as one
``CampaignRunner`` batch (``certify=True``, ``incremental_sat=True``,
``workers=1``); the others call ``verify()`` once per job.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from spans import Recorder, import_layers, install
from speed import SpeedProbe
from workloads import CERTIFICATES


def _status(correct: bool) -> str:
    return "PROVED" if correct else "BUG_FOUND"


def _config_and_bug(job):
    from repro.processor.bugs import Bug
    from repro.processor.params import ProcessorConfig

    config = ProcessorConfig(n_rob=job["n"], issue_width=job["k"],
                             family=job["family"])
    bug = Bug(*job["bug"]) if job["bug"] is not None else None
    return config, bug


def _result_counts(result) -> dict:
    """Deterministic counts a ``VerificationResult`` returns."""
    from repro.sat.incremental import cnf_digest

    counts = {}
    if result.rewrite is not None:
        counts["rewrite.rules"] = dict(sorted(result.rewrite.rules_applied.items()))
        counts["rewrite.entries_proved"] = len(result.rewrite.proved_entries)
    if result.validity is not None:
        encoded = result.validity.encoded
        counts["encode.cnf_vars"] = encoded.stats.cnf_vars
        counts["encode.cnf_clauses"] = encoded.stats.cnf_clauses
        counts["encode.cnf_digest"] = cnf_digest(encoded.cnf)
        sat = result.validity.sat_result
        if sat is not None:
            counts["sat.conflicts"] = sat.conflicts
            counts["sat.decisions"] = sat.decisions
            counts["sat.propagations"] = sat.propagations
    return counts


def _certificate(kind: str, validated: bool) -> dict:
    carries = kind in CERTIFICATES
    return {"certificate": kind, "carries": carries,
            "checks": carries and validated}


def run_direct(jobs, prepared, recorder):
    from repro.core import verifier
    from repro.eufm.ast import interned_count

    records = []
    for job, (config, bug) in zip(jobs, prepared):
        recorder.job = job["id"]
        nodes_before = interned_count()
        record = {"id": job["id"], "attempts": 1, "counts": {},
                  "start": time.perf_counter()}
        try:
            result = verifier.verify(config, method=job["method"], bug=bug)
        except Exception as exc:
            record["end"] = time.perf_counter()
            # A job that raises counts as failed; the pass goes on.
            traceback.print_exc()
            record["status"] = f"ERROR {type(exc).__name__}"
        else:
            record["end"] = time.perf_counter()
            record.update(status=_status(result.correct),
                          counts=_result_counts(result))
        record["nodes"] = interned_count() - nodes_before
        record.update(_certificate("none", False))
        records.append(record)
    return records, {}


def _campaign_job(job):
    from repro.campaign.jobs import Job

    fields = dict(n_rob=job["n"], issue_width=job["k"], family=job["family"],
                  method=job["method"], max_conflicts=job["max_conflicts"])
    if job["bug"] is not None:
        kind, entry, operand = job["bug"]
        fields.update(bug_kind=kind, bug_entry=entry, bug_operand=operand)
    return Job(job_id=job["id"], **fields)


def run_campaign(jobs, campaign_jobs, recorder, journal_path):
    from repro.campaign.runner import CampaignRunner
    from repro.eufm.ast import interned_count

    order = [job["id"] for job in jobs]
    records = []
    mark = {"t": 0.0, "nodes": 0}

    def on_result(job, result):
        now = time.perf_counter()
        nodes = interned_count()
        witness = result.witness or {}
        record = {
            "id": job.job_id,
            "status": result.status,
            "start": mark["t"],
            "end": now,
            "attempts": result.attempts,
            "nodes": nodes - mark["nodes"],
            "counts": {
                name: value for name, value in sorted(result.metrics.items())
                if not name.startswith(("timings.", "sat.cpu", "encode.translate"))
            },
            "witness_digest": witness.get("digest"),
        }
        record.update(_certificate(witness.get("kind", "none"),
                                   bool(witness.get("validated"))))
        records.append(record)
        mark["nodes"] = nodes
        mark["t"] = time.perf_counter()
        if len(records) < len(order):
            recorder.job = order[len(records)]

    runner = CampaignRunner(
        journal_path,
        on_result=on_result,
        certify=True,
        incremental_sat=True,
        workers=1,
    )
    recorder.job = order[0]
    mark["nodes"] = interned_count()
    mark["t"] = time.perf_counter()
    report = runner.run(campaign_jobs)
    recorder.job = None
    extra = {"journal_bytes": os.path.getsize(journal_path)}
    missing = set(order) - {record["id"] for record in records}
    if missing or report.replayed:
        raise RuntimeError(f"campaign left jobs unrun: {sorted(missing)}")
    return records, extra


def main(argv) -> int:
    probe = SpeedProbe()
    probe.start()
    started = time.perf_counter()
    jobs_path, out_path = argv[0], argv[1]
    flags = set(argv[2:])
    with open(jobs_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    jobs = spec["jobs"]
    recorder = Recorder()
    import_layers()
    if "--trace" in flags:
        install(recorder)
    campaign = any(job["max_conflicts"] is not None for job in jobs)
    prepared = [(_campaign_job if campaign else _config_and_bug)(job)
                for job in jobs]
    out = {"ready": time.monotonic(), "started": started,
           "ready_pc": time.perf_counter()}
    if "--setup-only" not in flags:
        cpu0 = time.process_time()
        if campaign:
            records, extra = run_campaign(jobs, prepared, recorder,
                                          spec["journal"])
        else:
            records, extra = run_direct(jobs, prepared, recorder)
        out.update(
            cpu_s=time.process_time() - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            jobs=records,
            spans=recorder.export(),
            **extra,
        )
    probe.stop()
    out["samples"] = probe.samples
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
