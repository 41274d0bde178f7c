"""The shared run-spec flags (repro.campaign.args) and the CLIs that use them."""

import pytest

from repro.__main__ import build_parser as single_run_parser
from repro.campaign.args import jobs_from_args, policies_from_args
from repro.campaign.cli import _collect_jobs
from repro.campaign.cli import build_parser as campaign_parser
from repro.campaign.jobs import Job
from repro.obs.cli import (
    build_perf_parser,
    build_trace_parser,
    perf_main,
    trace_main,
)
from repro.service.cli import build_parser as serve_parser
from repro.service.protocol import SubmitRequest
from repro.witness.cli import build_parser as witness_parser
from repro.witness.cli import main as witness_main

#: argparse destinations of the config, job and solver flag groups.
RUN_SPEC_DESTS = (
    "rob", "width", "retire_width", "family", "method", "criterion",
    "bug", "entry", "operand", "max_conflicts", "max_seconds", "deadline",
    "max_memory", "sat_backend",
)

SINGLE_RUN_PARSES = {
    "python -m repro": lambda argv: single_run_parser().parse_args(argv),
    "witness certify": lambda argv: witness_parser().parse_args(
        ["certify", *argv]
    ),
    "witness explain": lambda argv: witness_parser().parse_args(
        ["explain", *argv]
    ),
    "perf record": lambda argv: build_perf_parser().parse_args(
        ["record", *argv]
    ),
    "trace": lambda argv: build_trace_parser().parse_args(argv),
}


def _spec(args):
    return {dest: getattr(args, dest) for dest in RUN_SPEC_DESTS}


def _without_id(job):
    fields = job.to_dict()
    del fields["job_id"]
    return fields


class TestSingleRunDefaults:
    @pytest.mark.parametrize("command", sorted(SINGLE_RUN_PARSES))
    def test_empty_argv_gives_the_same_run_spec(self, command):
        reference = SINGLE_RUN_PARSES["python -m repro"]([])
        args = SINGLE_RUN_PARSES[command]([])
        assert _spec(args) == _spec(reference)
        assert (args.rob, args.width) == (16, 4)
        (job,) = jobs_from_args(args)
        assert job == Job.build(16, 4)


BUG_AND_BUDGET_FLAGS = [
    "--method", "positive_equality", "--criterion", "case_split",
    "--bug", "forward-wrong-source", "--entry", "3", "--operand", "2",
    "--max-conflicts", "500", "--max-seconds", "1.5",
    "--deadline", "30", "--max-memory", "256",
]


class TestOneJobThreeRoutes:
    def test_cli_campaign_and_service_build_equal_jobs(self, tmp_path):
        (single,) = jobs_from_args(single_run_parser().parse_args(
            ["--rob", "4", "--width", "2", *BUG_AND_BUDGET_FLAGS]
        ))
        (campaign,) = _collect_jobs(campaign_parser().parse_args(
            ["--journal", str(tmp_path / "c.jsonl"), "--grid", "4x2",
             *BUG_AND_BUDGET_FLAGS]
        ))
        (service,) = SubmitRequest.parse({
            "grid": "4x2",
            "method": "positive_equality",
            "criterion": "case_split",
            "bug": {"kind": "forward-wrong-source", "entry": 3, "operand": 2},
            "budgets": {
                "max_conflicts": 500, "max_seconds": 1.5,
                "max_wall_seconds": 30, "max_memory_mb": 256,
            },
        }).jobs
        assert single.bug_operand == 2
        assert _without_id(single) == _without_id(campaign)
        assert _without_id(single) == _without_id(service)

    def test_verify_kwargs_carry_the_spec(self):
        (job,) = jobs_from_args(single_run_parser().parse_args(
            ["--rob", "4", "--width", "2", *BUG_AND_BUDGET_FLAGS]
        ))
        kwargs = job.verify_kwargs()
        assert kwargs["bug"].operand == 2
        assert (kwargs["max_conflicts"], kwargs["max_wall_seconds"]) == \
            (500, 30.0)


class TestTraceFamilies:
    def test_trace_runs_a_speculation_design(self, capsys):
        assert trace_main(["--rob", "2", "--width", "1",
                           "--family", "branch"]) == 0
        assert "verify" in capsys.readouterr().out


#: Flags the witness, trace and perf-record CLIs share with
#: ``python -m repro``; each run exits 0 without its flag.
GAINED_FLAG_RUNS = [
    (witness_main, ["explain", "--rob", "4", "--width", "2",
                    "--bug", "pc-single-increment", "--deadline", "1e-9"], 2),
    (witness_main, ["certify", "--rob", "2", "--width", "1",
                    "--max-memory", "1e-6"], 2),
    (witness_main, ["certify", "--rob", "2", "--width", "1",
                    "--sat-backend", "nosuch"], 3),
    (trace_main, ["--rob", "4", "--width", "2",
                  "--bug", "pc-single-increment"], 1),
    (trace_main, ["--rob", "3", "--width", "3", "--method",
                  "positive_equality", "--max-conflicts", "1"], 2),
    (trace_main, ["--rob", "2", "--width", "1",
                  "--sat-backend", "nosuch"], 2),
    (perf_main, ["record", "--rob", "3", "--width", "3", "--method",
                 "positive_equality", "--max-conflicts", "1"], 2),
]


class TestGainedFlagsReachTheRun:
    @pytest.mark.parametrize(
        "main, argv, code", GAINED_FLAG_RUNS,
        ids=[" ".join(argv) for _, argv, _ in GAINED_FLAG_RUNS],
    )
    def test_flag_changes_the_exit_code(self, main, argv, code, tmp_path,
                                        capsys):
        if main is perf_main:
            argv = [*argv, "--out", str(tmp_path / "perf.json")]
        assert main(argv) == code


class TestPolicyFlags:
    def test_serve_budgets_land_in_the_retry_policy(self):
        retry, degrade = policies_from_args(serve_parser().parse_args(
            ["--max-conflicts", "7", "--deadline", "3", "--max-memory", "64",
             "--max-attempts", "5", "--no-degrade"]
        ))
        assert (retry.base_conflicts, retry.base_wall_seconds,
                retry.base_memory_mb, retry.max_attempts) == (7, 3.0, 64.0, 5)
        assert retry.base_seconds is None
        assert degrade.fallback_method is None

    def test_serve_takes_no_sat_time_budget(self, capsys):
        # Clients set it per request, as budgets.max_seconds.
        with pytest.raises(SystemExit):
            serve_parser().parse_args(["--max-seconds", "2"])

    def test_campaign_sat_time_budget_lands_in_the_retry_policy(
        self, tmp_path
    ):
        retry, _ = policies_from_args(campaign_parser().parse_args(
            ["--journal", str(tmp_path / "c.jsonl"), "--max-seconds", "2"]
        ))
        assert retry.base_seconds == 2.0
