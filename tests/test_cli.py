"""Tests for the CLI entry point."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.harness.runner as runner_mod
from repro.harness.cli import EXPERIMENTS, main
from repro.harness.runner import clear_cache


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch, tmp_path):
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", False)
    # an experiment command writes .campaign_flight.json in its cwd
    monkeypatch.chdir(tmp_path)
    clear_cache()
    yield
    clear_cache()


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["figure99"])


def test_fig4_runs(capsys):
    assert main(["fig4"]) == 0
    out = capsys.readouterr().out
    assert "double<=68" in out
    assert "soplex" in out


def test_speedup_experiment_with_tiny_budget(capsys):
    assert main(["fig13", "--accesses", "100"]) == 0
    out = capsys.readouterr().out
    assert "gmean" in out
    assert "povray" in out


def test_every_key_maps_to_callable_or_fig4():
    for key, (title, fn) in EXPERIMENTS.items():
        assert title
        assert fn is not None or key == "fig4"


def test_unknown_experiment_exit_code_is_usage():
    with pytest.raises(SystemExit) as exc_info:
        main(["figure99"])
    assert exc_info.value.code == 2


def test_bad_ecc_choice_is_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["fig13", "--ecc", "chipkill"])
    assert exc_info.value.code == 2


def test_negative_retries_rejected():
    with pytest.raises(SystemExit) as exc_info:
        main(["fig13", "--retries", "-1"])
    assert exc_info.value.code == 2


def test_simulation_failure_exit_code(capsys, monkeypatch):
    from repro.harness.runner import set_run_executor

    def doomed(workload, config, params=None, **kwargs):
        raise RuntimeError("all retries spent")

    set_run_executor(doomed)
    try:
        assert main(["fig13", "--accesses", "100"]) == 3
    finally:
        set_run_executor(None)
    assert "all retries spent" in capsys.readouterr().err


def test_fault_rate_flag_reaches_results(capsys):
    assert main(
        ["faults", "--accesses", "100", "--fault-rate", "0", "--ecc", "none"]
    ) == 0
    out = capsys.readouterr().out
    assert "retained@maxrate" in out
    assert "ecc_corrected" in out


def test_zero_jobs_is_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["fig13", "--jobs", "0"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize("accesses", ["-5", "0"])
def test_accesses_below_one_is_usage_error(accesses):
    """0 is an error, not the default: only an absent --accesses means
    ``REPRO_ACCESSES``."""
    with pytest.raises(SystemExit) as exc_info:
        main(["fig13", "--accesses", accesses])
    assert exc_info.value.code == 2


def _cli(args, env=None, **kwargs):
    """``python -m repro.harness.cli ARGS`` in a fresh interpreter, so
    the environment defaults are read at import as a user's shell sets
    them."""
    src = Path(__file__).resolve().parents[1] / "src"
    environ = {
        **os.environ, "PYTHONPATH": str(src), "REPRO_DISK_CACHE": "0",
        **(env or {}),
    }
    return subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", *args],
        env=environ, stderr=subprocess.PIPE, timeout=120, **kwargs,
    )


@pytest.mark.parametrize(
    "env, args",
    [
        ({"REPRO_ACCESSES": "-5"}, ["fig13"]),
        ({"REPRO_ACCESSES": "0"}, ["all"]),
        ({"REPRO_ACCESSES": "-5"}, ["chaos"]),
        ({"REPRO_ACCESSES": "-5"}, ["manifest", "show", "mcf", "dice"]),
        ({"REPRO_ACCESSES": "-5"}, ["report", "--flight"]),
        ({"REPRO_ACCESSES": "0"}, ["serve", "--port", "0"]),
        ({"REPRO_SCALE": "0"}, ["fig13", "--accesses", "100"]),
        ({"REPRO_SCALE": "-1"}, ["serve", "--port", "0"]),
        ({"REPRO_ACCESSES": "abc"}, ["fig13"]),
        ({"REPRO_ACCESSES": "1.5"}, ["serve", "--port", "0"]),
        ({"REPRO_SCALE": "x"}, ["fig13", "--accesses", "100"]),
        ({"REPRO_SCALE": "x"}, ["serve", "--port", "0"]),
    ],
)
def test_environment_default_below_one_is_usage_error(env, args):
    """A default taken from the environment is checked like the flag:
    exit 2 naming the variable, before anything is planned or served.
    A value that is not an integer is treated like one below 1."""
    proc = _cli(args, env, stdout=subprocess.PIPE)
    (variable, value), = env.items()
    assert proc.returncode == 2, proc.stderr.decode()
    assert f"{variable} must be >= 1, got {value}" in proc.stderr.decode()
    assert b"Traceback" not in proc.stderr


def test_environment_default_unused_by_the_command_is_not_checked():
    for env in ({"REPRO_ACCESSES": "-5"}, {"REPRO_ACCESSES": "abc"},
                {"REPRO_SCALE": "x"}):
        proc = _cli(["list"], env, stdout=subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr.decode()
        assert b"fig13" in proc.stdout


def test_closed_stdout_exits_quietly():
    """``cli list | head -0``: the reader is gone before anything is
    written, so the write fails with EPIPE; no traceback, exit 1."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli(["list"], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_parallel_stdout_identical_to_serial(capsys):
    assert main(["fig13", "--accesses", "100", "--jobs", "1"]) == 0
    serial_out = capsys.readouterr().out
    clear_cache()
    assert main(["fig13", "--accesses", "100", "--jobs", "2"]) == 0
    parallel = capsys.readouterr()
    assert parallel.out == serial_out  # tables byte-identical
    assert "jobs" in parallel.err  # progress went to stderr only


def test_all_stdout_does_not_depend_on_earlier_runs(
    tmp_path, monkeypatch, capsys
):
    """`all` renders every experiment on every run: a step checkpoint left
    in the working directory (older versions wrote one) neither hides a
    table nor adds a "resumed" line."""
    monkeypatch.chdir(tmp_path)
    argv = ["all", "--experiments", "fig13,fig15", "--accesses", "100",
            "--jobs", "2"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    (tmp_path / ".campaign_checkpoint.json").write_text(json.dumps({
        "version": 1,
        "context": "accesses=100 seed=7 fault_rate=0.0 ecc=secded "
                   "experiments=fig13,fig15",
        "completed": ["fig13"],
    }))
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh


def test_no_resume_is_a_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["all", "--no-resume"])
    assert exc_info.value.code == 2


def test_parallel_failure_names_job_drains_and_exits_3(capsys):
    from repro.harness.runner import set_run_executor
    from repro.sim.engine import run_workload

    def doomed(workload, config, params=None, **kwargs):
        if workload == "povray" and config.name == "dice":
            raise RuntimeError("injected failure")
        return run_workload(workload, config, params, **kwargs)

    set_run_executor(doomed)
    try:
        assert main(["fig13", "--accesses", "100", "--jobs", "2"]) == 3
    finally:
        set_run_executor(None)
    err = capsys.readouterr().err
    assert "simulation failed for povray × dice" in err
    assert "injected failure" in err
    assert "drained" in err  # the rest of the campaign was not aborted
    # drained-and-cached means a retry only repeats the one failure
    assert main(["fig13", "--accesses", "100", "--jobs", "2"]) == 0


class TestTraceCommandRobustness:
    """`trace summarize` must exit 2 with a message, never traceback."""

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_empty_file_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 2
        assert "holds no trace events" in capsys.readouterr().err

    def test_meta_only_file_is_usage_error(self, tmp_path, capsys):
        meta_only = tmp_path / "meta.jsonl"
        meta_only.write_text('{"meta": {"run": "mcf"}}\n')
        assert main(["trace", "summarize", str(meta_only)]) == 2
        assert "holds no trace events" in capsys.readouterr().err

    def test_truncated_jsonl_is_usage_error(self, tmp_path, capsys):
        truncated = tmp_path / "cut.jsonl"
        truncated.write_text(
            '{"meta": {"run": "mcf"}}\n'
            '{"name": "l4.read", "cat": "l4", "ph": "i", "ts":'  # killed writer
        )
        assert main(["trace", "summarize", str(truncated)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_non_trace_json_is_usage_error(self, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        other.write_text('{"some": "dict"}\n')
        assert main(["trace", "summarize", str(other)]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestManifestCommandRobustness:
    """`manifest show --shard` must exit 2 with a message, never traceback."""

    def test_missing_shard_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["manifest", "show", "--shard", str(missing)]) == 2
        assert "cannot read shard" in capsys.readouterr().err

    def test_corrupt_shard_is_usage_error(self, tmp_path, capsys):
        corrupt = tmp_path / "shard.json"
        corrupt.write_text("{truncated")
        assert main(["manifest", "show", "--shard", str(corrupt)]) == 2
        assert "cannot read shard" in capsys.readouterr().err

    def test_non_object_shard_is_usage_error(self, tmp_path, capsys):
        wrong = tmp_path / "shard.json"
        wrong.write_text("[1, 2, 3]")
        assert main(["manifest", "show", "--shard", str(wrong)]) == 2
        assert "not a cache shard" in capsys.readouterr().err

    def test_uncached_lookup_is_usage_error(self, capsys):
        assert main(["manifest", "show", "mcf", "dice",
                     "--accesses", "12345"]) == 2
        assert "no cached result" in capsys.readouterr().err

    def test_unknown_config_is_usage_error_naming_known_ones(self, capsys):
        assert main(["manifest", "show", "mcf", "warp-drive"]) == 2
        err = capsys.readouterr().err
        assert "unknown config 'warp-drive'" in err
        assert "dice-nextline" in err and "Traceback" not in err


class TestReportCommand:
    def test_report_requires_flight_mode(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["report"])
        assert exc_info.value.code == 2
        assert "--flight" in capsys.readouterr().err

    def test_unknown_experiment_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([
                "report", "--flight", "--experiments", "fig99",
                "--out", str(tmp_path / "r.md"),
            ])
        assert exc_info.value.code == 2
        assert "fig99" in capsys.readouterr().err

    def test_check_without_baseline_is_usage_error(self, tmp_path, capsys):
        assert main([
            "report", "--flight", "--check",
            "--experiments", "fig13", "--accesses", "100",
            "--baseline", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "r.md"),
        ]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_update_then_check_roundtrip(self, tmp_path, capsys):
        baseline = tmp_path / "FIDELITY_baseline.json"
        out = tmp_path / "r.md"
        assert main([
            "report", "--flight", "--experiments", "fig13",
            "--accesses", "100", "--baseline", str(baseline),
            "--update-baseline", "--out", str(out),
        ]) == 0
        assert baseline.exists()
        # deterministic sims: the re-scored run is in-band by construction
        assert main([
            "report", "--flight", "--check", "--experiments", "fig13",
            "--accesses", "100", "--baseline", str(baseline),
            "--out", str(out),
        ]) == 0
        text = out.read_text()
        assert "Flight recorder report" in text
        assert "gmean" in text
        assert "all rows in-band" in capsys.readouterr().out


class TestSeedDefaults:
    """Satellite: every subcommand's --seed shares one documented default.

    `submit` used to default its seed to None while the rest defaulted
    to the engine's seed — a campaign submitted over HTTP could silently
    grade against different physics than one run locally.
    """

    def test_default_seed_is_the_engine_default(self):
        from repro.harness import cli
        from repro.sim.engine import SimulationParams

        assert cli.DEFAULT_SEED == SimulationParams().seed

    def test_every_seed_flag_uses_the_shared_default(self):
        import inspect
        import re

        from repro.harness import cli

        source = inspect.getsource(cli)
        seed_args = re.findall(r'add_argument\("--seed"[^)]*\)', source)
        # chaos, manifest, report, submit, and the main parser
        assert len(seed_args) == 5
        for call in seed_args:
            assert "default=DEFAULT_SEED" in call, call


class TestRepetitionsFlag:
    def test_zero_repetitions_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["fig13", "--repetitions", "0"])
        assert exc_info.value.code == 2

    def test_single_rep_run_writes_no_run_table(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig13", "--accesses", "100"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "run_table.csv").exists()

    def test_statistical_campaign_emits_a_lint_clean_run_table(
        self, tmp_path, capsys
    ):
        import csv
        import os
        import sys

        sys.path.insert(
            0, os.path.join(os.path.dirname(__file__), "..", "scripts")
        )
        from runtable_lint import lint_rows

        table = tmp_path / "rt.csv"
        assert main([
            "fig13", "--accesses", "100", "--repetitions", "2",
            "--run-table", str(table),
        ]) == 0
        err = capsys.readouterr().err
        assert "run table: " in err and str(table) in err
        with table.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = [dict(zip(header, cells)) for cells in reader]
        assert lint_rows(header, rows, expect_reps=2) == []
        reps = {row["rep"] for row in rows}
        assert reps == {"0", "1"}
        seeds = {row["seed"] for row in rows}
        assert len(seeds) == 2  # base seed + one derived seed

    def test_run_table_without_repetitions_still_writes(self, tmp_path,
                                                        capsys):
        table = tmp_path / "rt1.csv"
        assert main([
            "fig13", "--accesses", "100", "--run-table", str(table),
        ]) == 0
        capsys.readouterr()
        text = table.read_text()
        assert text.splitlines()[0].startswith("workload,design,seed,rep")
        assert all(
            line.split(",")[3] == "0" for line in text.splitlines()[1:]
        )
