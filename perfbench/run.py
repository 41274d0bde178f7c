"""The repository benchmark: time to verdict on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload rob-sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``rob-sweep``, ``speculation`` and
``certified-bugs``.  The benchmark draws the workload's jobs from
``--seed`` and hands only the job list to the verifier, which runs them in
a fresh interpreter per pass (``worker.py``): one process, no threads,
campaign ``workers=1``.  It runs whole passes until ``--seconds`` of
measurement have gone by (at least one), and reports medians over passes.
Set-up is timed over several fresh interpreters.

Times are reference seconds: host seconds scaled by the host speed that
``speed.py`` samples throughout each pass, because the shared host's
speed drifts by up to 2x.  Each pass prints its raw host wall time and
mean host speed next to the converted figures.  The per-layer
cross-check against ``verify()``'s own timings compares host seconds.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs one untraced pass and two traced passes (layer entry
points wrapped by ``spans.py``) and prints the per-layer metrics.  It also
guards determinism: every deterministic count (TLSim, rewriting, encoding
and SAT counts, CNF digests, certificate digests, intern-table growth)
must repeat exactly across the three passes.  It prints each fitted
exponent next to the baseline recorded in ``baseline.json``.

Every verdict is compared with the job's expected verdict and certificate
kind (``expected_verdicts.json`` for planted bugs, PROVED for the correct
design), and every certificate a verdict carries must check.  A job whose
verdict or certificate kind differs counts as a verdict mismatch.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
``correct`` is true.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from speed import Clock
from workloads import CERTIFICATES, DOMINANT, WORKLOADS, build_jobs

HERE = os.path.dirname(os.path.abspath(__file__))

#: scratch space inside the checkout for job lists, pass outputs and
#: campaign journals, one directory per run; removed when the run ends.
WORK_DIR = ".perfbench"
#: fresh interpreters started only to time set-up, besides the passes.
SETUP_PROBES = 5
#: a run must end within this many seconds.
RUN_LIMIT_S = 170.0
#: layer spans and the ``verify()`` timings key each one is checked
#: against.
CROSSCHECK = {"tlsim": "simulate", "rewrite": "rewrite",
              "encode": "translate", "sat": "sat"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# running passes


def _spawn(root: str, jobs_path: str, out_path: str, flags: List[str],
           deadline: float) -> Dict:
    """Run one worker pass; returns its output plus ``setup_s``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               jobs_path, out_path] + flags
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before a pass could start")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=root, env=env, timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded the {RUN_LIMIT_S:.0f}s run limit") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-3000:]}"
        )
    with open(out_path, encoding="utf-8") as handle:
        out = json.load(handle)
    os.remove(out_path)
    clock = Clock(out["samples"])
    out["clock"] = clock
    # Interpreter start precedes the first probe sample; it is converted
    # at the speed the probe saw during the rest of set-up.
    host = out["ready"] - spawned
    out["setup_host_s"] = host
    out["setup_s"] = (
        host - clock.probe_seconds(out["started"], out["ready_pc"])
    ) * clock.speed(out["started"], out["ready_pc"])
    return out


class Runner:
    def __init__(self, root: str, jobs: List[Dict], deadline: float) -> None:
        self.root = root
        self.deadline = deadline
        self.work = os.path.join(root, WORK_DIR, f"run-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.jobs_path = os.path.join(self.work, "jobs.json")
        self.journal = os.path.join(self.work, "campaign.jsonl")
        with open(self.jobs_path, "w", encoding="utf-8") as handle:
            json.dump({"jobs": jobs, "journal": self.journal}, handle)
        self.setups: List[float] = []
        self.host_setups: List[float] = []

    def run_pass(self, trace: bool = False, setup_only: bool = False) -> Dict:
        if os.path.exists(self.journal):
            os.remove(self.journal)
        flags = (["--trace"] if trace else []) + (
            ["--setup-only"] if setup_only else [])
        out = _spawn(self.root, self.jobs_path,
                     os.path.join(self.work, "pass.json"), flags,
                     self.deadline)
        self.setups.append(out["setup_s"])
        self.host_setups.append(out["setup_host_s"])
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run still uses it


# ---------------------------------------------------------------------------
# checks


def check_pass(jobs: List[Dict], out: Dict) -> Dict[str, int]:
    """Verdict, failure and certificate tallies of one pass.

    ``due`` counts the jobs expected to carry a checkable certificate,
    ``carries`` those that carry one and ``checks`` those whose
    certificate checks.
    """
    by_id = {record["id"]: record for record in out["jobs"]}
    tally = {"attempted": len(jobs), "mismatches": 0, "failed": 0,
             "due": 0, "carries": 0, "checks": 0}
    for job in jobs:
        tally["due"] += int(job["certificate"] in CERTIFICATES)
        record = by_id.get(job["id"])
        if record is None or record["status"] not in ("PROVED", "BUG_FOUND"):
            tally["failed"] += 1
            tally["mismatches"] += 1
            continue
        if (record["status"] != job["expect"]
                or record["certificate"] != job["certificate"]):
            tally["mismatches"] += 1
        tally["carries"] += int(record["carries"])
        tally["checks"] += int(record["checks"])
    return tally


def _job_fingerprints(out: Dict) -> Dict[str, Dict]:
    """Deterministic per-job facts every pass reports."""
    return {
        record["id"]: {
            "status": record["status"],
            "attempts": record["attempts"],
            "nodes": record["nodes"],
            "counts": record["counts"],
            "witness": record.get("witness_digest"),
            "certificate": record["certificate"],
        }
        for record in out["jobs"]
    }


def _span_fingerprints(out: Dict) -> List:
    """Deterministic counts of every traced span, in call order."""
    return [
        (span["name"], span["job"],
         {key: value for key, value in sorted(span["counts"].items())
          if key != "timings"})
        for span in out["spans"]
    ]


def determinism_problems(passes: List[Dict]) -> List[str]:
    """Differences in deterministic counts between same-seed passes."""
    problems = []
    first = _job_fingerprints(passes[0])
    for index, out in enumerate(passes[1:], start=2):
        other = _job_fingerprints(out)
        for job_id, facts in first.items():
            if other.get(job_id) != facts:
                problems.append(f"pass 1 vs pass {index}: job {job_id} differs")
    traced = [out for out in passes if out["spans"]]
    for out in traced[1:]:
        if _span_fingerprints(out) != _span_fingerprints(traced[0]):
            problems.append("traced passes recorded different span counts")
    return problems


# ---------------------------------------------------------------------------
# metrics


def loglog_slope(points: Dict[str, List[tuple]]) -> float:
    """Pooled least-squares slope of log(value) on log(N).

    ``points`` maps a sweep name to its (N, value) pairs; each sweep keeps
    its own intercept.  Sweeps with fewer than two distinct N, and
    non-positive values, are skipped.  Returns 0.0 when nothing remains.
    """
    num = den = 0.0
    for pairs in points.values():
        pairs = [(math.log(n), math.log(v)) for n, v in pairs if v > 0]
        if len({x for x, _ in pairs}) < 2:
            continue
        mx = statistics.fmean(x for x, _ in pairs)
        my = statistics.fmean(y for _, y in pairs)
        num += sum((x - mx) * (y - my) for x, y in pairs)
        den += sum((x - mx) ** 2 for x, _ in pairs)
    return num / den if den else 0.0


def _sweep_points(jobs: List[Dict], per_job: Dict[str, float]) -> Dict:
    points: Dict[str, List[tuple]] = {}
    for job in jobs:
        if job["sweep"] and not job["repeat"] and job["id"] in per_job:
            points.setdefault(job["sweep"], []).append(
                (job["n"], per_job[job["id"]]))
    return points


def job_seconds(out: Dict) -> Dict[str, float]:
    """Reference seconds to verdict of every job of a pass."""
    clock = out["clock"]
    return {record["id"]: clock.seconds(record["start"], record["end"])
            for record in out["jobs"]}


def end_to_end(jobs: List[Dict], out: Dict) -> Dict[str, float]:
    clock = out["clock"]
    seconds = job_seconds(out)
    headline = [job["id"] for job in jobs if job["headline"]]
    first = out["jobs"][0]["start"]
    last = out["jobs"][-1]["end"]
    return {
        "wall_s": clock.seconds(first, last),
        "cpu_s": (out["cpu_s"] - clock.probe_seconds(first, last))
        * clock.speed(first, last),
        "largest_job_s": seconds[headline[0]],
        "rob_exponent": loglog_slope(_sweep_points(jobs, seconds)),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def host_wall(out: Dict) -> float:
    """Host seconds from the first job to the last verdict."""
    return out["jobs"][-1]["end"] - out["jobs"][0]["start"]


def _self_seconds(spans: List[Dict], index: int, clock: Clock) -> float:
    children = sum(clock.seconds(s["start"], s["end"])
                   for s in spans if s["parent"] == index)
    return clock.seconds(spans[index]["start"], spans[index]["end"]) - children


def per_layer(jobs: List[Dict], out: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, times in reference seconds."""
    spans = out["spans"]
    clock = out["clock"]
    seconds: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    per_job: Dict[str, Dict[str, float]] = {}
    for span in spans:
        name = span["name"]
        took = clock.seconds(span["start"], span["end"])
        seconds[name] = seconds.get(name, 0.0) + took
        calls[name] = calls.get(name, 0) + 1
        for key, value in span["counts"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if span["job"] is not None:
            job = per_job.setdefault(span["job"], {})
            job[f"{name}.s"] = job.get(f"{name}.s", 0.0) + took
            for key in ("tlsim.component_evaluations", "rule_firings"):
                if key in span["counts"]:
                    job[f"{name}.{key}"] = (
                        job.get(f"{name}.{key}", 0) + span["counts"][key])

    def layer_points(key):
        return _sweep_points(jobs, {job: values[key]
                                    for job, values in per_job.items()
                                    if key in values})

    def get(key):
        return counts.get(key, 0.0)

    sat_s = seconds.get("sat", 0.0)
    verify_self = sum(_self_seconds(spans, i, clock)
                      for i, s in enumerate(spans) if s["name"] == "verify")
    campaign_self = sum(_self_seconds(spans, i, clock)
                        for i, s in enumerate(spans) if s["name"] == "campaign")
    records = out["jobs"]
    repeats = {job["id"] for job in jobs if job["repeat"]}
    firsts = [r["nodes"] for r in records if r["id"] not in repeats]
    retained = [r["nodes"] for r in records if r["id"] in repeats]
    pool_calls = sum(1 for s in spans
                     if s["name"] == "sat" and "session_hit" in s["counts"])
    metrics = {
        "tlsim.s": seconds.get("tlsim", 0.0),
        "tlsim.evaluations": get("tlsim.tlsim.component_evaluations"),
        "tlsim.cycles": get("tlsim.tlsim.cycles"),
        "tlsim.nodes_built": get("tlsim.tlsim.nodes_built"),
        "tlsim.exponent": loglog_slope(layer_points("tlsim.s")),
        "tlsim.count_exponent": loglog_slope(
            layer_points("tlsim.tlsim.component_evaluations")),
        "rewrite.s": seconds.get("rewrite", 0.0),
        "rewrite.rule_firings": get("rewrite.rule_firings"),
        "rewrite.entries_proved": get("rewrite.entries_proved"),
        "rewrite.exponent": loglog_slope(layer_points("rewrite.s")),
        "rewrite.count_exponent": loglog_slope(
            layer_points("rewrite.rule_firings")),
        "rewrite.full_reduction_ratio": (
            get("rewrite.full_reduction") / calls["rewrite"]
            if calls.get("rewrite") else 0.0),
        "encode.s": seconds.get("encode", 0.0),
        "encode.cnf_vars": get("encode.cnf_vars"),
        "encode.cnf_clauses": get("encode.cnf_clauses"),
        "encode.eij_vars": get("encode.eij_vars"),
        "encode.transitivity_constraints": get(
            "encode.transitivity_constraints"),
        "sat.s": sat_s,
        "sat.conflicts": get("sat.conflicts"),
        "sat.decisions": get("sat.decisions"),
        "sat.propagations": get("sat.propagations"),
        "sat.propagations_per_s": (
            get("sat.propagations") / sat_s if sat_s > 0 else 0.0),
        "sat.session_hit_ratio": (
            get("sat.session_hit") / pool_calls if pool_calls else 0.0),
        "witness.s": seconds.get("witness", 0.0),
        "witness.proof_steps": get("witness.proof_steps"),
        "witness.replays": get("witness.replays"),
        "campaign.self_s": campaign_self,
        "campaign.attempts_per_job": statistics.fmean(
            r["attempts"] for r in records),
        "campaign.journal_bytes": float(out.get("journal_bytes", 0)),
        "verify.self_s": verify_self,
        "eufm.nodes_per_job": statistics.fmean(firsts) if firsts else 0.0,
        "eufm.retained_nodes_per_repeat": (
            statistics.fmean(retained) if retained else 0.0),
    }
    # Host seconds the outside spans and verify()'s own timings disagree
    # by, over the outside spans' total; per-layer figures are printed.
    pairs = crosscheck(spans).values()
    outside_total = sum(outside for outside, _ in pairs)
    metrics["trace.crosscheck_rel_diff"] = (
        sum(abs(outside - inside) for outside, inside in pairs) / outside_total
        if outside_total else 0.0)
    return metrics


def crosscheck(spans: List[Dict]) -> Dict[str, float]:
    """Outside-timed layer seconds and ``verify()``'s own
    ``result.timings`` seconds, per layer, summed over every verify call."""
    outside = {layer: 0.0 for layer in CROSSCHECK}
    inside = {layer: 0.0 for layer in CROSSCHECK}
    for index, span in enumerate(spans):
        if span["name"] != "verify" or "timings" not in span["counts"]:
            continue
        timings = span["counts"]["timings"]
        for child in spans:
            if child["parent"] == index and child["name"] in CROSSCHECK:
                outside[child["name"]] += child["end"] - child["start"]
        for layer, key in CROSSCHECK.items():
            inside[layer] += timings.get(key, 0.0)
    return {layer: (outside[layer], inside[layer])
            for layer in CROSSCHECK if outside[layer] > 0}


def _median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}


# ---------------------------------------------------------------------------
# the run


def _passes(runner: Runner, seconds: float) -> List[Dict]:
    """Untraced passes until ``seconds`` of measurement have gone by.

    A pass is not started when, judged by the last one, it would end more
    than a quarter of ``seconds`` late, so a run lasts about ``seconds``
    whatever the pass length.
    """
    passes = []
    started = time.monotonic()
    while True:
        pass_started = time.monotonic()
        passes.append(runner.run_pass())
        took = time.monotonic() - pass_started
        elapsed = time.monotonic() - started
        if (elapsed >= seconds or elapsed + took > 1.25 * seconds
                or time.monotonic() + 1.5 * took > runner.deadline):
            return passes


def measure(root: str, workload: str, seed: int, seconds: float,
            trace: bool) -> Dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    jobs = build_jobs(workload, seed)
    runner = Runner(root, jobs, deadline)
    try:
        for _ in range(SETUP_PROBES):
            runner.run_pass(setup_only=True)
        if trace:
            passes = [runner.run_pass(), runner.run_pass(trace=True),
                      runner.run_pass(trace=True)]
        else:
            passes = _passes(runner, seconds)
    finally:
        runner.close()

    tallies = [check_pass(jobs, out) for out in passes]
    total = {key: sum(t[key] for t in tallies) for key in tallies[0]}
    problems = determinism_problems(passes) if len(passes) > 1 else []
    untraced = [out for out in passes if not out["spans"]]
    e2e = _median_metrics([end_to_end(jobs, out) for out in untraced])
    e2e["setup_s"] = statistics.median(runner.setups)
    report_setup = (statistics.median(runner.host_setups), len(runner.setups))
    e2e["verdict_match_ratio"] = 1 - total["mismatches"] / total["attempted"]
    e2e["completed_ratio"] = 1 - total["failed"] / total["attempted"]
    # Where no job is due a certificate there is nothing to check; where
    # some are but none carries one, the answers are unbacked.
    if total["carries"]:
        e2e["certified_ratio"] = total["checks"] / total["carries"]
    else:
        e2e["certified_ratio"] = 0.0 if total["due"] else 1.0
    correct = (total["mismatches"] == 0 and total["failed"] == 0
               and e2e["certified_ratio"] == 1.0 and not problems)
    report = {
        "jobs": jobs, "passes": passes, "tally": total,
        "problems": problems, "end_to_end": e2e, "correct": correct,
        "setup": report_setup,
    }
    if trace:
        traced = [out for out in passes if out["spans"]]
        layers = _median_metrics([per_layer(jobs, out) for out in traced])
        traced_wall = statistics.median(
            end_to_end(jobs, out)["wall_s"] for out in traced)
        layers["trace.overhead_ratio"] = traced_wall / e2e["wall_s"]
        layers["dominant.share"] = sum(
            layers[f"{layer}.s"] for layer in DOMINANT[workload]
        ) / traced_wall
        layers["verdict_mismatches"] = float(total["mismatches"])
        layers["failed_ratio"] = total["failed"] / total["attempted"]
        report["per_layer"] = layers
        report["crosscheck"] = crosscheck(traced[0]["spans"])
    return report


def _declared(root: str, report: Dict, trace: bool) -> Dict[str, Dict]:
    """The run's metrics with their units: exactly the set BENCHMARK.json
    declares for the mode, in its order."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    metrics = report["per_layer"] if trace else report["end_to_end"]
    names = [metric["name"] for metric in declared]
    if set(metrics) != set(names):
        raise BenchError(f"metrics differ from the declared set: "
                         f"{sorted(set(metrics) ^ set(names))}")
    return {metric["name"]: {"value": metrics[metric["name"]],
                             "unit": metric["unit"]} for metric in declared}


def _print_report(workload: str, seed: int, report: Dict, trace: bool,
                  metrics: Dict[str, Dict]) -> None:
    passes = report["passes"]
    print(f"workload {workload}, seed {seed}: {len(report['jobs'])} jobs, "
          f"{len(passes)} pass(es)")
    seconds = job_seconds(passes[0])
    for record in passes[0]["jobs"]:
        print(f"  {record['id']:<44} {record['status']:<10} "
              f"{seconds[record['id']]:8.3f}s  tries {record['attempts']}"
              f"  cert {record['certificate']}")
    expected = {job["id"]: (job["expect"], job["certificate"])
                for job in report["jobs"]}
    for record in passes[0]["jobs"]:
        if (record["status"], record["certificate"]) != expected[record["id"]]:
            print(f"  mismatch {record['id']}: expected "
                  f"{' with '.join(expected[record['id']])}")
    for index, out in enumerate(passes, start=1):
        values = end_to_end(report["jobs"], out)
        print(f"  pass {index}{' (traced)' if out['spans'] else ''}: "
              f"host wall {host_wall(out):.3f}s  host speed "
              f"{out['clock'].mean_speed:.3f}  " + "  ".join(
                  f"{name} {value:.4f}" for name, value in values.items()))
    host_setup, samples = report["setup"]
    print(f"  set-up: {samples} fresh interpreters, median host {host_setup:.3f}s")
    tally = report["tally"]
    print(f"  verdict_mismatches {tally['mismatches']}  failed {tally['failed']}"
          f"  certificates {tally['checks']}/{tally['carries']} checked,"
          f" {tally['due']} due")
    for problem in report["problems"]:
        print(f"  determinism: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:14.6g} {metric['unit']}")
    if trace:
        for layer, (outside, inside) in sorted(report["crosscheck"].items()):
            print(f"  crosscheck {layer:<8} host seconds: spans "
                  f"{outside:10.4f}  verify() timings {inside:10.4f}")
        layers = report["per_layer"]
        largest = max(("tlsim", "rewrite", "encode", "sat", "witness"),
                      key=lambda layer: layers[f"{layer}.s"])
        print(f"  dominant layer: {largest}; {'+'.join(DOMINANT[workload])} "
              f"take {layers['dominant.share']:.1%} of traced wall time")
        with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as handle:
            recorded = json.load(handle)["exponents"].get(workload, {})
        for name, (development, held_out) in recorded.items():
            value = (report["end_to_end"] if name == "rob_exponent"
                     else layers)[name]
            print(f"  {name:<24} {value:8.3f}  recorded baseline "
                  f"{development:.3f} / {held_out:.3f} (development / "
                  "held-out seed; not gated)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root; src/repro is missing",
              file=sys.stderr)
        return 2
    try:
        report = measure(root, args.workload, args.seed, args.seconds,
                         bool(args.trace))
        metrics = _declared(root, report, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_report(args.workload, args.seed, report, bool(args.trace), metrics)
    tally = report["tally"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
