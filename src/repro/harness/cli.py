"""Command-line entry point: regenerate any paper figure/table.

Usage::

    python -m repro.harness.cli list
    python -m repro.harness.cli fig10
    python -m repro.harness.cli table4 --accesses 8000
    python -m repro.harness.cli faults --fault-rate 3e13 --ecc secded
    python -m repro.harness.cli all --jobs 8 --deadline 900
    python -m repro.harness.cli fig10 --trace /tmp/dice-trace.jsonl
    python -m repro.harness.cli fig10 --profile /tmp/dice.prof.json
    python -m repro.harness.cli trace summarize /tmp/dice-trace.jsonl
    python -m repro.harness.cli trace stitch client.jsonl trace.daemon.jsonl trace.w*.jsonl
    python -m repro.harness.cli manifest show mcf dice
    python -m repro.harness.cli report --flight --check
    python -m repro.harness.cli serve --port 7414 --jobs 4 --trace /tmp/svc.jsonl
    python -m repro.harness.cli submit fig13 --port 7414 --trace /tmp/client.jsonl
    python -m repro.harness.cli slo check --port 7414
    python -m repro.harness.cli cache-info

Results are cached on disk, so regenerating a second figure that shares
configurations with the first is nearly instant.  An experiment command,
or ``all``, runs as one campaign, and the cache is how it resumes: a
killed or stopped campaign re-runs only the simulations that had not
finished, then renders every table again from the cache, so its output
is the same as an uninterrupted run's.

Every simulation runs on one supervised worker pool: ``--jobs N``
(default: the ``REPRO_JOBS`` environment variable, else the machine's CPU
count) runs the planned simulations N-wide before the tables are
rendered from the result cache, so the output is bit-identical whatever
N is.  ``--deadline S`` bounds each job's wall clock: the watchdog kills
a job that overstays it and retries it, quarantining it after repeated
offences.  A progress line (jobs done/running/failed plus ETA) is
written to stderr.

``cli chaos`` runs the self-verifying chaos campaign: seeded faults are
injected at every exec seam and the final results asserted bit-identical
to a fault-free run (see ``--chaos-seed`` / ``--chaos-rate``, or the
``REPRO_CHAOS`` environment variable for arming chaos on any command).

``cli serve`` turns the harness into a persistent sim-as-a-service
daemon (one worker pool, one shared cache, many clients); ``cli submit``
sends a campaign to a running daemon and streams its NDJSON progress;
``cli cache-info`` prints result-cache and content-store statistics.

Two switches turn observability on: ``--trace PATH`` (an event trace,
its Chrome companion and a metrics export beside it, sampled by
``--trace-every N``) and ``--profile PATH`` (a self-profile).  The
telemetry plane rides on the same commands: ``submit --trace`` mints a
trace context that the daemon and its workers join, ``trace stitch``
merges their per-process JSONL files into one chrome://tracing document,
and ``cli slo check`` judges the daemon's service-level objectives
against its current metrics (exit 6 when one is failing).

Exit codes: 0 success, 2 usage error (unknown experiment/flag), 3 a
simulation failed or was quarantined (remaining jobs are still drained
and cached, so a re-run only repeats the failures), 4 the fidelity
scoreboard drifted out of its tolerance band (``report --flight
--check``), 5 the campaign was interrupted (SIGTERM/SIGINT) and stopped
gracefully (finished simulations are cached, so a re-run resumes), 6 an
SLO check failed (``slo check``).  ``cli serve`` exits 1 when its
supervisor thread failed (it drains and checkpoints first).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.harness.campaign import Campaign, prefetch_experiments
from repro.harness import experiments
from repro.harness.experiments import EXPERIMENTS  # re-exported for callers
from repro.harness.report import format_table
from repro.resilience.ecc import SCHEMES
from repro.sim.engine import SimulationParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIM_FAILURE = 3
EXIT_DRIFT = 4
EXIT_INTERRUPTED = 5
EXIT_SLO = 6

# The one documented default every subcommand's --seed shares (it is also
# SimulationParams.seed).  tests/test_cli.py asserts no parser drifts.
DEFAULT_SEED = SimulationParams().seed


def _accesses(text: str) -> int:
    """``--accesses``: L3 accesses per core, at least 1 (absent means the
    ``REPRO_ACCESSES`` default; 0 is an error, not the default)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _experiment_keys(text: str) -> List[str]:
    """A comma-separated list of experiment keys (empty items dropped);
    an unknown key is a usage error."""
    keys = [key for key in text.split(",") if key]
    unknown = [key for key in keys if key not in EXPERIMENTS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown experiment(s): {', '.join(unknown)}"
        )
    return keys


def _accesses_or_default(
    parser: argparse.ArgumentParser, accesses: Optional[int]
) -> int:
    """``--accesses``, else the ``REPRO_ACCESSES`` default.

    The defaults are read from the environment at import, so an
    environment value below 1 or not an integer (``REPRO_SCALE`` always,
    ``REPRO_ACCESSES`` when the flag is absent) is a usage error here, as
    the flag's is.
    """
    from repro.harness.runner import DEFAULT_ACCESSES, DEFAULT_SCALE

    def check(name: str, value: int) -> int:
        if value < 1:
            parser.error(f"{name} must be >= 1, got {os.environ.get(name)}")
        return value

    check("REPRO_SCALE", DEFAULT_SCALE)
    if accesses is not None:
        return accesses
    return check("REPRO_ACCESSES", DEFAULT_ACCESSES)


def run_one(key: str, params: SimulationParams) -> None:
    """Render one experiment's table (from the result cache once its
    simulations were prefetched)."""
    title, fn = EXPERIMENTS[key]
    if key == "fig4":
        headers, rows, summary = experiments.fig04_compressibility()
    else:
        headers, rows, summary = fn(params)
    print(format_table(headers, rows, title=title))
    print()
    for name, value in summary.items():
        print(f"  {name:28s} {value:8.3f}")
    print()


def _prefetch(
    keys: List[str],
    params: SimulationParams,
    jobs: Optional[int],
    supervisor=None,
    chaos=None,
    shutdown=None,
    repetitions: int = 1,
    run_table: Optional[str] = None,
) -> int:
    """Fan the experiments' simulations out; report failures. 0, 3, or 5.

    With ``repetitions > 1`` every planned job runs once per derived-seed
    repetition; ``run_table`` (a path) additionally writes the campaign's
    tidy per-(workload, design, rep) CSV from the outcomes.
    """
    outcomes, failures = prefetch_experiments(
        keys, params, jobs=jobs,
        supervisor=supervisor, chaos=chaos, shutdown=shutdown,
        repetitions=repetitions,
    )
    if run_table and not (shutdown is not None and shutdown.requested):
        from repro.analysis.runtable import write_run_table

        n_rows = write_run_table(outcomes, run_table)
        print(f"run table: {n_rows} row(s) -> {run_table}", file=sys.stderr)
    if shutdown is not None and shutdown.requested:
        print(
            "interrupted: completed simulations are cached; re-run to "
            "resume",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    if not failures:
        return EXIT_OK
    for outcome in failures:
        print(
            f"error: simulation failed for {outcome.job.describe()}: "
            f"{outcome.error}",
            file=sys.stderr,
        )
    print(
        f"{len(failures)} simulation(s) failed; every other job was drained "
        f"and cached, so a re-run only repeats the failures",
        file=sys.stderr,
    )
    return EXIT_SIM_FAILURE


def _chaos_command(argv: List[str]) -> int:
    """``repro chaos`` — a self-verifying campaign under fault injection.

    Four phases over isolated throwaway cache stores:

    1. **reference** — the planned jobs run fault-free;
    2. **chaotic** — the same jobs run with seeded faults injected at
       every exec seam (worker crash, hang, torn shard write, failed
       shard write, corrupted payload) under the supervised scheduler;
    3. **cold resume** — chaos off, memory state dropped, the chaotic
       cache is read back through its torn/missing shards;
    4. **daemon** — the same jobs submitted to an in-process campaign
       daemon on a fresh store, with the same faults and deadline.

    Exit 0 requires every fault class to have fired at least once in
    both chaotic phases, no job to be quarantined, *and* the chaotic,
    resumed and daemon results to be bit-identical to the reference run.
    This is the executable proof behind the robustness claims: the
    harness survives the failure taxonomy it documents, on every path
    that executes jobs.
    """
    import dataclasses
    import json
    import shutil
    import tempfile
    import time
    from pathlib import Path

    from repro.chaos import ChaosPolicy, class_counts
    from repro.exec import SupervisorPolicy, build_plan, last_report, run_jobs
    from repro.harness import runner as runner_mod

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli chaos",
        description="Run a campaign under deterministic fault injection "
        "and verify results are bit-identical to a fault-free run.",
    )
    parser.add_argument("--chaos-seed", type=int, default=7)
    parser.add_argument(
        "--chaos-rate",
        type=float,
        default=0.2,
        help="per-(fault, job, attempt) injection probability",
    )
    parser.add_argument(
        "--experiments",
        type=_experiment_keys,
        default="fig13",
        help="comma-separated experiment keys to plan jobs from "
        "(default: fig13 — the smoke campaign)",
    )
    parser.add_argument("--accesses", type=_accesses, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-job watchdog deadline in seconds (default: sized from "
        "the reference run's slowest job)",
    )
    parser.add_argument(
        "--keep-workdir",
        action="store_true",
        help="keep the throwaway cache/ledger directory for inspection",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record the chaotic phase's job-lifecycle events "
        "(crashes, watchdog kills, requeues, quarantines) to "
        "PATH-derived <stem>.exec.jsonl",
    )
    parser.add_argument("--trace-every", type=int, default=16, metavar="N")
    args = parser.parse_args(argv)
    if not 0.0 <= args.chaos_rate <= 1.0:
        parser.error("--chaos-rate must be in [0, 1]")

    keys = args.experiments
    params = SimulationParams(
        accesses_per_core=_accesses_or_default(parser, args.accesses),
        seed=args.seed,
    )
    plan = build_plan(keys, params)
    if not plan.jobs:
        print("error: the selected experiments plan no jobs", file=sys.stderr)
        return EXIT_USAGE
    job_ids = [job.job_id for job in plan.jobs]

    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos."))
    original_cache = runner_mod._CACHE_PATH
    original_env = os.environ.get("REPRO_CACHE_PATH")
    try:
        # Phase 1: fault-free reference in its own store.
        print(f"chaos: phase 1/4 — reference run ({len(plan.jobs)} jobs)")
        runner_mod.set_cache_path(workdir / "reference.sim_cache.json")
        phase_started = time.monotonic()
        reference_outcomes = run_jobs(plan.jobs, max_workers=args.jobs)
        reference_wall = time.monotonic() - phase_started
        bad = [o for o in reference_outcomes if not o.ok]
        if bad or len(reference_outcomes) != len(plan.jobs):
            for outcome in bad:
                print(
                    f"error: reference run failed for "
                    f"{outcome.job.describe()}: {outcome.error}",
                    file=sys.stderr,
                )
            return EXIT_SIM_FAILURE
        reference = {o.job.job_id: o.result for o in reference_outcomes}

        deadline = args.deadline
        if deadline is None:
            per_job = max(
                [
                    (o.result.manifest or {}).get("elapsed_s", 0.0)
                    for o in reference_outcomes
                    if o.result is not None
                ]
                + [reference_wall * max(1, args.jobs) / len(plan.jobs)]
            )
            deadline = max(2.0, 8.0 * float(per_job))

        # Phase 2: the same jobs, chaos armed, supervised.
        policy = ChaosPolicy(
            seed=args.chaos_seed,
            rate=args.chaos_rate,
            hang_seconds=deadline * 4,  # always past the watchdog
            ledger_path=str(workdir / "chaos_ledger.jsonl"),
        ).ensure_coverage(job_ids)
        print(
            f"chaos: phase 2/4 — chaotic run ({policy.describe()}, "
            f"deadline {deadline:.1f}s)"
        )
        runner_mod.set_cache_path(workdir / "chaotic.sim_cache.json")
        # Trace only the chaotic phase: the exec tracer derives
        # <stem>.exec.jsonl from REPRO_TRACE, and the failure events
        # (crashes, watchdog kills, requeues) all happen here.
        trace_env = {
            key: os.environ.get(key)
            for key in ("REPRO_TRACE", "REPRO_TRACE_EVERY")
        }
        if args.trace:
            os.environ["REPRO_TRACE"] = args.trace
            os.environ["REPRO_TRACE_EVERY"] = str(max(1, args.trace_every))
        try:
            chaotic_outcomes = run_jobs(
                plan.jobs,
                max_workers=args.jobs,
                supervisor=SupervisorPolicy(deadline=deadline),
                chaos=policy,
            )
        finally:
            if args.trace:
                for key, value in trace_env.items():
                    if value is None:
                        os.environ.pop(key, None)
                    else:
                        os.environ[key] = value
        report = last_report()
        chaotic = {o.job.job_id: o.result for o in chaotic_outcomes if o.ok}

        # Phase 3: cold resume through the chaotic store (torn shards
        # quarantine on read; missing entries re-simulate).
        print("chaos: phase 3/4 — cold resume on the chaotic cache")
        runner_mod.drop_memory_state()
        resumed_outcomes = run_jobs(plan.jobs, max_workers=args.jobs)
        resumed = {o.job.job_id: o.result for o in resumed_outcomes if o.ok}

        # Phase 4: the daemon path, same faults and deadline, fresh store.
        daemon_policy = dataclasses.replace(
            policy, ledger_path=str(workdir / "daemon_ledger.jsonl")
        )
        print("chaos: phase 4/4 — daemon run under the same faults")
        runner_mod.set_cache_path(workdir / "daemon.sim_cache.json")
        served = _serve_in_process(
            plan.jobs, workdir,
            workers=args.jobs,
            supervisor=SupervisorPolicy(deadline=deadline),
            chaos=daemon_policy,
        )

        def canonical(payload):
            payload = {k: v for k, v in payload.items() if k != "manifest"}
            return json.dumps(payload, sort_keys=True)

        failures: List[str] = []
        for phase, chaos_policy in (("", policy), ("daemon ", daemon_policy)):
            coverage = class_counts(chaos_policy.ledger_path)
            for fault in chaos_policy.classes:
                if coverage.get(fault, 0) < 1:
                    failures.append(f"{phase}fault class never fired: {fault}")
            injected = ", ".join(
                f"{fault}×{coverage.get(fault, 0)}"
                for fault in chaos_policy.classes
            )
            print(f"chaos: {phase}injected {injected}")
        quarantined = [o for o in chaotic_outcomes if o.source == "quarantined"]
        for outcome in quarantined:
            failures.append(
                f"job quarantined under chaos: {outcome.job.describe()} "
                f"({outcome.error})"
            )
        for jid, error in sorted(served["errors"].items()):
            failures.append(f"daemon job failed under chaos: {jid} ({error})")
        for jid in job_ids:
            if chaotic.get(jid) != reference.get(jid):
                failures.append(f"chaotic result differs from reference: {jid}")
            if resumed.get(jid) != reference.get(jid):
                failures.append(f"resumed result differs from reference: {jid}")
            payload = served["results"].get(jid)
            if payload is None or canonical(payload) != canonical(
                dataclasses.asdict(reference[jid])
            ):
                failures.append(f"daemon result differs from reference: {jid}")

        if report is not None:
            print(f"chaos: supervisor saw {report.describe()}")
        if failures:
            for failure in failures:
                print(f"error: {failure}", file=sys.stderr)
            print(
                f"chaos: FAILED — {len(failures)} problem(s) across "
                f"{len(plan.jobs)} jobs",
                file=sys.stderr,
            )
            return EXIT_SIM_FAILURE
        print(
            f"chaos: OK — {len(plan.jobs)} jobs bit-identical to the "
            f"fault-free reference, through every injected fault class, "
            f"in the CLI and the daemon"
        )
        return EXIT_OK
    finally:
        runner_mod.set_cache_path(original_cache)
        if original_env is None:
            os.environ.pop("REPRO_CACHE_PATH", None)
        else:
            os.environ["REPRO_CACHE_PATH"] = original_env
        if args.keep_workdir:
            print(f"chaos: workdir kept at {workdir}", file=sys.stderr)
        else:
            shutil.rmtree(workdir, ignore_errors=True)


def _serve_in_process(jobs, workdir, **config) -> dict:
    """Run ``jobs`` as one campaign on an in-process daemon; the
    campaign's ``/results`` document."""
    import asyncio
    import threading

    from repro.service import ServiceConfig, run_service
    from repro.service.client import ServiceClient
    from repro.service.state import job_to_spec

    ready = threading.Event()
    box = {}

    def on_ready(service) -> None:
        box["port"] = service.port
        ready.set()

    service_config = ServiceConfig(
        port=0, max_queue=len(jobs), resume=False, promote=False,
        checkpoint=workdir / "daemon.checkpoint.json", **config,
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(run_service(service_config, ready=on_ready)),
        daemon=True,
    )
    thread.start()
    if not ready.wait(60):
        raise RuntimeError("the in-process daemon did not start")
    client = ServiceClient("127.0.0.1", box["port"], timeout=600.0)
    try:
        return client.run_campaign(
            client="chaos", jobs=[job_to_spec(job) for job in jobs]
        )
    finally:
        client.drain()
        thread.join(60)


def _trace_command(argv: List[str]) -> int:
    """``repro trace summarize PATH`` / ``repro trace stitch PATHS...``.

    ``summarize`` aggregates one recorded event trace; ``stitch`` merges the
    per-process files of one distributed campaign — client, daemon, and
    worker JSONL — into a single chrome://tracing document keyed on
    their shared trace id.
    """
    import json
    from pathlib import Path

    import repro.obs as obs

    parser = argparse.ArgumentParser(prog="repro.harness.cli trace")
    parser.add_argument("action", choices=["summarize", "stitch"])
    parser.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="JSONL trace file(s) written by --trace",
    )
    parser.add_argument(
        "--trace-id", default=None,
        help="stitch: target trace id (default: the most common one "
        "across the inputs)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="stitch: where to write the merged chrome trace "
        "(default: <first input>.stitched.json)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="stitch: print the machine-readable span/file table on stdout",
    )
    args = parser.parse_args(argv)

    if args.action == "summarize":
        if len(args.paths) != 1:
            parser.error("summarize takes exactly one PATH")
        try:
            summary = obs.summarize_trace(args.paths[0])
        except (OSError, ValueError) as exc:
            print(f"error: cannot read trace: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if summary["events"] == 0:
            print(
                f"error: {args.paths[0]} holds no trace events (empty or "
                f"meta-only file — did the traced run execute?)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        print(obs.format_summary(summary))
        return EXIT_OK

    try:
        stitched = obs.stitch_traces(args.paths, trace_id=args.trace_id)
    except (OSError, ValueError) as exc:
        print(f"error: cannot stitch traces: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if stitched["events"] == 0:
        wanted = f" for trace {args.trace_id}" if args.trace_id else ""
        print(
            f"error: no events{wanted} across {len(args.paths)} file(s) — "
            f"were the daemon and workers run with tracing on?",
            file=sys.stderr,
        )
        return EXIT_USAGE
    out = Path(args.out or f"{args.paths[0]}.stitched.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(stitched["chrome"], sort_keys=True))
    table = {
        "trace_id": stitched["trace_id"],
        "events": stitched["events"],
        "files": stitched["files"],
        "out": str(out),
    }
    if args.json:
        print(json.dumps(table, sort_keys=True, indent=2))
    else:
        print(
            f"trace {stitched['trace_id']}: {stitched['events']} events "
            f"from {len(stitched['files'])} file(s) → {out}"
        )
        for record in stitched["files"]:
            root = record.get("root_span") or "-"
            print(
                f"  pid {record['pid']:<7} {record['scope']:<10} "
                f"{record['events']:>5} events · root span {root} "
                f"({Path(record['path']).name})"
            )
    return EXIT_OK


def _manifest_command(argv: List[str]) -> int:
    """``repro manifest show WORKLOAD CONFIG`` — provenance of a cached run."""
    import json

    import repro.obs as obs
    from repro.harness.runner import peek_cached

    parser = argparse.ArgumentParser(prog="repro.harness.cli manifest")
    parser.add_argument("action", choices=["show"])
    parser.add_argument("workload", nargs="?")
    parser.add_argument("config", nargs="?")
    parser.add_argument("--accesses", type=_accesses, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--fault-rate", type=float, default=0.0)
    parser.add_argument("--ecc", choices=SCHEMES, default="secded")
    parser.add_argument(
        "--shard",
        default=None,
        help="read one cache-shard JSON file directly instead of a lookup",
    )
    args = parser.parse_args(argv)
    if args.shard is not None:
        try:
            entry = json.loads(open(args.shard).read())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read shard: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(entry, dict) and set(entry) == {"key", "result"}:
            entry = entry["result"]  # a shard wraps the result with its key
        if not isinstance(entry, dict):
            print(
                f"error: {args.shard} is not a cache shard (expected a "
                f"JSON object, got {type(entry).__name__})",
                file=sys.stderr,
            )
            return EXIT_USAGE
        print(obs.format_manifest(entry.get("manifest")))
        return EXIT_OK
    if not args.workload or not args.config:
        parser.error("manifest show needs WORKLOAD CONFIG (or --shard PATH)")
    params = SimulationParams(
        accesses_per_core=_accesses_or_default(parser, args.accesses),
        seed=args.seed,
        fault_rate=args.fault_rate,
        ecc=args.ecc,
    )
    try:
        result = peek_cached(args.workload, args.config, params=params)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    if result is None:
        print(
            f"no cached result for {args.workload} × {args.config} at these "
            f"parameters (run it first)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    print(obs.format_manifest(result.manifest))
    return EXIT_OK


def _report_command(argv: List[str]) -> int:
    """``repro report --flight`` — the flight-recorder report.

    Joins the fidelity scoreboard (graded against the committed
    ``FIDELITY_baseline.json``), campaign timings, top self-profile
    frames, a metrics snapshot, and a trace summary into one document.
    ``--check`` exits :data:`EXIT_DRIFT` when any figure moved out of the
    tolerance band; ``--update-baseline`` re-records the baseline at the
    current parameters instead.
    """
    import json
    from pathlib import Path

    from repro.analysis import flight
    from repro.obs import fidelity
    from repro.obs.prof import read_profile

    parser = argparse.ArgumentParser(prog="repro.harness.cli report")
    parser.add_argument(
        "--flight",
        action="store_true",
        help="render the flight-recorder report (the only report mode)",
    )
    parser.add_argument("--out", default="FLIGHT_report.md")
    parser.add_argument(
        "--format",
        choices=["md", "html"],
        default=None,
        help="output format (default: inferred from --out suffix)",
    )
    parser.add_argument("--baseline", default="FIDELITY_baseline.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit {EXIT_DRIFT} when any figure drifted out of band",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-record the baseline from this run's scoreboard",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="drift tolerance band (default: the baseline's recorded one)",
    )
    parser.add_argument("--trace", default=None, metavar="PATH")
    parser.add_argument("--metrics", default=None, metavar="PATH")
    parser.add_argument("--profile", default=None, metavar="PATH")
    parser.add_argument(
        "--slo",
        default=None,
        metavar="PATH",
        help="a `cli slo check --json` (or `GET /slo`) verdict document "
        "to include in the report's SLO section",
    )
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument("--accesses", type=_accesses, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--repetitions",
        type=int,
        default=1,
        metavar="N",
        help="grade against N derived-seed repetitions: drift verdicts "
        "become mean Δ with a bootstrap 95%% CI and a sign-flip p-value "
        "(run the campaign with the same --repetitions first so results "
        "come from the cache)",
    )
    parser.add_argument(
        "--experiments",
        type=_experiment_keys,
        default=None,
        help="comma-separated experiment keys (default: all)",
    )
    args = parser.parse_args(argv)
    if not args.flight:
        parser.error("report currently supports --flight only")
    if args.repetitions < 1:
        parser.error("--repetitions must be >= 1")

    experiments = args.experiments or None

    params = SimulationParams(
        accesses_per_core=_accesses_or_default(parser, args.accesses),
        seed=args.seed,
    )
    context = fidelity.params_context(params)
    distributions = None
    if args.repetitions > 1:
        summaries, distributions = fidelity.collect_summaries_repeated(
            params, experiments, repetitions=args.repetitions
        )
    else:
        summaries = fidelity.collect_summaries(params, experiments)
    scoreboard = fidelity.build_scoreboard(summaries)

    if args.update_baseline:
        path = fidelity.write_baseline(
            args.baseline, scoreboard, context,
            tolerance=args.tolerance or fidelity.DEFAULT_TOLERANCE,
        )
        print(f"baseline updated: {path} ({len(scoreboard)} experiments)")

    flags: List = []
    baseline_used = None
    key_stats = None
    if Path(args.baseline).exists():
        try:
            baseline = fidelity.load_baseline(args.baseline)
            flags = fidelity.detect_drift(
                scoreboard, baseline,
                tolerance=args.tolerance, context=context,
                distributions=distributions,
            )
            if distributions is not None:
                key_stats = fidelity.compute_key_stats(
                    distributions, baseline
                )
        except fidelity.BaselineContextMismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return EXIT_USAGE
        baseline_used = args.baseline
    elif args.check:
        print(
            f"error: --check needs a baseline, and {args.baseline} does "
            f"not exist (generate one with --update-baseline)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    elif distributions is not None:
        # no baseline to move against: describe the distributions themselves
        key_stats = fidelity.compute_key_stats(distributions)

    def _load(path, loader, what):
        if path is None:
            return None
        try:
            return loader(path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {what}: {exc}", file=sys.stderr)
            return exc

    import repro.obs as obs

    profile = _load(args.profile, read_profile, "profile")
    trace_summary = _load(args.trace, obs.summarize_trace, "trace")
    metrics = _load(
        args.metrics, lambda p: json.loads(Path(p).read_text()), "metrics"
    )
    slo = _load(
        args.slo, lambda p: json.loads(Path(p).read_text()), "slo verdicts"
    )
    for loaded in (profile, trace_summary, metrics, slo):
        if isinstance(loaded, Exception):
            return EXIT_USAGE

    data = flight.build_flight_data(
        scoreboard,
        flags,
        context=context,
        baseline_path=baseline_used,
        campaign=flight.load_campaign_flight(),
        profile=profile,
        metrics=metrics,
        trace_summary=trace_summary,
        slo=slo,
        top=args.top,
        key_stats=key_stats,
    )
    fmt = args.format or (
        "html" if Path(args.out).suffix in (".html", ".htm") else "md"
    )
    out = flight.write_flight_report(args.out, data, fmt)
    print(f"wrote {out}")
    if key_stats:
        # one line per fidelity target: mean Δ, 95% CI, p-value
        for experiment in sorted(key_stats):
            for key in sorted(key_stats[experiment]):
                ks = key_stats[experiment][key]
                print(f"stats: {experiment}/{key}: {ks.describe()}")
    if flags:
        for flag in flags:
            print(f"drift: {flag.describe()}", file=sys.stderr)
        if args.check:
            return EXIT_DRIFT
    elif baseline_used:
        print(f"fidelity: all rows in-band against {baseline_used}")
    return EXIT_OK


def _serve_command(argv: List[str]) -> int:
    """``repro serve`` — run the persistent campaign-service daemon.

    The daemon owns one supervised worker pool and the shared result
    cache; clients submit campaigns over HTTP (``cli submit``, or plain
    ``curl``) and stream NDJSON progress back.  SIGTERM drains
    gracefully: in-flight jobs get a grace window (then their workers
    are terminated), unfinished campaigns checkpoint, and a restart
    resumes them bit-identically from cache.  ``REPRO_CHAOS`` arms fault
    injection in the daemon's workers, as it does for any command.
    """
    import asyncio
    from pathlib import Path

    from repro.chaos import from_env as chaos_from_env
    from repro.exec import SupervisorPolicy
    from repro.obs import slo as slo_mod
    from repro.service import DEFAULT_CHECKPOINT, ServiceConfig, run_service

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli serve",
        description="Run the sim-as-a-service campaign daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=7414,
        help="listen port (0 picks an ephemeral port, announced on stderr)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS or the CPU count)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="pending-job bound; submissions past it get 429 + Retry-After",
    )
    parser.add_argument(
        "--grace",
        type=float,
        default=10.0,
        help="drain: seconds in-flight jobs may finish in before their "
        "workers are terminated and the rest checkpointed",
    )
    parser.add_argument(
        "--checkpoint",
        default=str(DEFAULT_CHECKPOINT),
        help="where drained campaigns checkpoint for resume",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore an existing checkpoint instead of resuming it",
    )
    parser.add_argument(
        "--no-promote",
        action="store_true",
        help="skip promoting the shard cache into the content store",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="trace the daemon (<stem>.daemon.jsonl) and every worker "
        "simulation (exported so pool workers inherit it); stitch the "
        "set with `cli trace stitch`",
    )
    parser.add_argument("--trace-every", type=int, default=None, metavar="N")
    parser.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="add a service-level objective (e.g. "
        "'p99_submit: p99(service.submit.wall_us{kind=warm}) <= 500000'); "
        "repeatable, on top of the built-in set",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.max_queue < 0:
        parser.error("--max-queue must be >= 0")
    if args.trace_every is not None and args.trace_every < 1:
        parser.error("--trace-every must be >= 1")
    # the daemon applies both defaults to every submission that omits them
    _accesses_or_default(parser, None)
    if args.slo:
        try:
            slo_mod.parse_slos(args.slo)
        except slo_mod.SLOParseError as exc:
            parser.error(f"bad --slo spec: {exc}")
    if args.trace:
        # Export through the environment (not just obs.configure) so the
        # worker pool — fork or spawn — inherits the trace destination.
        os.environ["REPRO_TRACE"] = args.trace
        if args.trace_every is not None:
            os.environ["REPRO_TRACE_EVERY"] = str(args.trace_every)
        import repro.obs as obs

        obs.configure(trace=args.trace, every=args.trace_every)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.jobs,
        max_queue=args.max_queue,
        supervisor=SupervisorPolicy(grace=args.grace),
        chaos=chaos_from_env(),
        checkpoint=Path(args.checkpoint),
        resume=not args.no_resume,
        promote=not args.no_promote,
        slos=args.slo,
    )
    try:
        return asyncio.run(run_service(config))
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED


def _submit_command(argv: List[str]) -> int:
    """``repro submit KEYS`` — send a campaign to a running daemon.

    Streams the daemon's NDJSON events and renders them through the same
    :func:`repro.exec.progress.format_progress` line the local scheduler
    prints — remote progress and local progress are one code path.
    """
    from repro.exec.progress import ProgressSnapshot, format_progress
    from repro.service.client import ServiceClient, ServiceError

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli submit",
        description="Submit a campaign to a running `cli serve` daemon.",
    )
    parser.add_argument(
        "experiments",
        type=_experiment_keys,
        help="comma-separated experiment keys (e.g. fig13 or fig10,table4)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7414)
    parser.add_argument("--accesses", type=_accesses, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--fault-rate", type=float, default=None)
    parser.add_argument("--ecc", choices=SCHEMES, default=None)
    parser.add_argument(
        "--repetitions",
        type=int,
        default=1,
        metavar="N",
        help="run every simulation N times at derived per-rep seeds "
        "(the daemon plans one job per repetition)",
    )
    parser.add_argument(
        "--run-table",
        default=None,
        metavar="PATH",
        help="after completion, fetch the campaign's per-(workload, "
        "design, rep) CSV from GET /campaigns/{id}/run_table to PATH "
        "(default run_table.csv when --repetitions > 1)",
    )
    parser.add_argument(
        "--client",
        default="cli",
        help="client name for the daemon's per-client fair scheduling",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the final results document as JSON on stdout",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record this submission's client-side span to PATH and "
        "propagate its trace context to the daemon (stitch the daemon "
        "and worker files with `cli trace stitch`)",
    )
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args(argv)
    keys = args.experiments
    if not keys:
        parser.error("no experiment keys given")
    if args.repetitions < 1:
        parser.error("--repetitions must be >= 1")
    run_table = args.run_table
    if run_table is None and args.repetitions > 1:
        from repro.analysis.runtable import DEFAULT_RUN_TABLE

        run_table = DEFAULT_RUN_TABLE

    ctx = None
    if args.trace:
        from repro.obs import telemetry

        ctx = telemetry.TraceContext.new()

    client = ServiceClient(args.host, args.port, timeout=args.timeout)

    def on_event(event):
        kind = event.get("event")
        if kind == "progress":
            snap = ProgressSnapshot.from_dict(event)
            print(f"\r\x1b[2K{format_progress(snap)}", end="", file=sys.stderr)
        elif kind == "job" and event.get("status") == "failed":
            print(
                f"\nerror: {event.get('label')}: {event.get('error')}",
                file=sys.stderr,
            )
        elif kind == "done":
            print(file=sys.stderr)

    import time as time_mod

    request_started = time_mod.monotonic()
    try:
        doc = client.run_campaign(
            experiments=keys,
            client=args.client,
            accesses=args.accesses,
            seed=args.seed,
            fault_rate=args.fault_rate,
            ecc=args.ecc,
            repetitions=(
                args.repetitions if args.repetitions > 1 else None
            ),
            on_event=on_event,
            trace=ctx,
        )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.status == 429 and exc.retry_after:
            print(
                f"the daemon's queue is full; retry in ~{exc.retry_after}s",
                file=sys.stderr,
            )
        return EXIT_SIM_FAILURE if exc.status >= 500 else EXIT_USAGE
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach the daemon at "
            f"{args.host}:{args.port}: {exc} (is `cli serve` running?)",
            file=sys.stderr,
        )
        return EXIT_USAGE

    if ctx is not None:
        # One span covering the whole request: submit → stream → results.
        # Its span_id is the daemon campaign span's parent, which is what
        # makes `trace stitch` root the distributed trace at the client.
        from repro.obs.tracer import Tracer

        elapsed_us = int((time_mod.monotonic() - request_started) * 1e6)
        tracer = Tracer(
            args.trace, meta={"scope": "client", **ctx.to_meta()}
        )
        tracer.span(
            "client.request", "client", ts=0, dur=max(1, elapsed_us),
            trace_id=ctx.trace_id, span_id=ctx.span_id,
            campaign=str(doc.get("id")), experiments=",".join(keys),
        )
        tracer.close()
        print(
            f"trace: {ctx.trace_id} → {args.trace} (merge the daemon and "
            f"worker files with `cli trace stitch`)",
            file=sys.stderr,
        )

    if run_table:
        try:
            csv_text = client.run_table(str(doc.get("id")))
        except (ServiceError, ConnectionError, OSError) as exc:
            print(
                f"error: cannot fetch run table: {exc}", file=sys.stderr
            )
        else:
            with open(run_table, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_text)
            rows = max(0, csv_text.count("\n") - 1)
            print(
                f"run table: {rows} row(s) -> {run_table}", file=sys.stderr
            )

    final = doc.get("final") or {}
    status = final.get("status") or doc.get("status")
    submitted = doc.get("submitted") or {}
    print(
        f"campaign {doc.get('id')}: {status} — "
        f"{final.get('done', 0)}/{final.get('total', '?')} jobs "
        f"({submitted.get('cached', 0)} cached at submit, "
        f"{submitted.get('deduped', 0)} deduped, "
        f"{final.get('failed', 0)} failed)",
        file=sys.stderr,
    )
    if args.json:
        import json

        print(json.dumps(doc, sort_keys=True, indent=2))
    if status == "drained":
        return EXIT_INTERRUPTED
    return EXIT_OK if status == "completed" else EXIT_SIM_FAILURE


def _slo_command(argv: List[str]) -> int:
    """``repro slo check`` — judge service-level objectives.

    Live mode (default) evaluates the built-in service SLOs — plus any
    ``--slo`` extras — against a running daemon's current registry.
    ``--metrics FILE`` instead judges the ``<stem>.metrics.json`` export a
    traced run writes, offline (``--slo`` is then required: a run export
    has no service metrics for the built-ins to see).  Exit
    :data:`EXIT_SLO` when any objective is failing.
    """
    import json
    from pathlib import Path

    from repro.obs import slo as slo_mod

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli slo",
        description="Check service-level objectives against a daemon "
        "or an exported metrics file.",
    )
    parser.add_argument("action", choices=["check"])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7414)
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="judge this metrics export (a traced run's "
        "<stem>.metrics.json) instead of a live daemon",
    )
    parser.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="add an objective, e.g. 'p99_submit: "
        "p99(service.submit.wall_us{kind=warm}) <= 500000'; repeatable",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the verdicts as JSON instead of the table",
    )
    args = parser.parse_args(argv)
    try:
        extra = slo_mod.parse_slos(args.slo or [])
    except slo_mod.SLOParseError as exc:
        parser.error(f"bad --slo spec: {exc}")

    if args.metrics is not None:
        if not extra:
            parser.error("--metrics needs at least one --slo objective")
        try:
            payload = json.loads(Path(args.metrics).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read metrics: {exc}", file=sys.stderr)
            return EXIT_USAGE
        metrics = payload.get("metrics") if isinstance(payload, dict) else None
        if not isinstance(metrics, dict):
            print(
                f"error: {args.metrics} is not a metrics export",
                file=sys.stderr,
            )
            return EXIT_USAGE
        specs = extra
    else:
        from repro.service.client import ServiceClient, ServiceError

        client = ServiceClient(args.host, args.port, timeout=10.0)
        try:
            health = client.healthz()
            metrics = client.metrics()
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (ConnectionError, OSError) as exc:
            print(
                f"error: cannot reach the daemon at "
                f"{args.host}:{args.port}: {exc} (is `cli serve` running?)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        specs = slo_mod.default_service_slos(
            int(health.get("max_queue", 256) or 256)
        ) + extra

    statuses = slo_mod.evaluate(specs, metrics)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": slo_mod.healthy(statuses),
                    "results": [s.to_dict() for s in statuses],
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        print(slo_mod.format_statuses(statuses))
    return EXIT_OK if slo_mod.healthy(statuses) else EXIT_SLO


def _cache_info_command(argv: List[str]) -> int:
    """``repro cache-info`` — result-cache and content-store statistics."""
    import json

    from repro.harness import runner as runner_mod
    from repro.service.store import ContentStore

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli cache-info",
        description="Print result-cache and content-store statistics.",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    cache = runner_mod.cache_stats()
    cas = ContentStore(runner_mod._CACHE_PATH.with_suffix(".cas")).stats()
    if args.json:
        print(json.dumps({"cache": cache, "content_store": cas}, indent=2,
                         sort_keys=True))
        return EXIT_OK
    print("result cache (sharded):")
    for name in ("root", "shards", "bytes", "quarantined_files", "hits",
                 "misses", "quarantined", "write_errors", "skipped_writes",
                 "open_breakers", "memory_entries", "disk_cache_enabled",
                 "model_digest"):
        if name in cache:
            print(f"  {name:20s} {cache[name]}")
    print("content store (CAS):")
    for name in ("root", "objects", "refs", "bytes", "quarantined"):
        print(f"  {name:20s} {cas[name]}")
    return EXIT_OK


# Subcommands with parsers of their own, dispatched before experiment
# parsing: observability, the chaos campaign, the service and its client,
# and cache introspection.
_SUBCOMMANDS = {
    "trace": _trace_command,
    "manifest": _manifest_command,
    "report": _report_command,
    "chaos": _chaos_command,
    "serve": _serve_command,
    "submit": _submit_command,
    "slo": _slo_command,
    "cache-info": _cache_info_command,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate DICE (ISCA 2017) figures and tables.",
    )
    parser.add_argument(
        "experiment",
        help="experiment key (see `list`), or `all`, or `list`, or the "
        "`trace summarize` / `manifest show` / `report --flight` "
        "observability subcommands",
    )
    parser.add_argument(
        "--accesses",
        type=_accesses,
        default=None,
        help="L3 accesses per core (default: REPRO_ACCESSES or 6000)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--repetitions",
        type=int,
        default=1,
        metavar="N",
        help="run every simulation N times at derived per-rep seeds "
        "(seed_rep = f(--seed, rep); rep 0 is --seed itself) so the "
        "campaign yields distributions instead of point estimates",
    )
    parser.add_argument(
        "--run-table",
        default=None,
        metavar="PATH",
        help="write the tidy per-(workload, design, rep) campaign CSV to "
        "PATH (default run_table.csv when --repetitions > 1; see "
        "RUN_TABLE_COLUMNS.md for the schema)",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="injected DRAM faults per GB-hour (0 disables injection; "
        "the `faults` experiment sweeps its own rates on top of this)",
    )
    parser.add_argument(
        "--ecc",
        choices=SCHEMES,
        default="secded",
        help="ECC model applied to injected faults (default: secded)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="simulation worker processes "
        "(default: REPRO_JOBS or the CPU count)",
    )
    parser.add_argument(
        "--experiments",
        type=_experiment_keys,
        default=None,
        metavar="KEYS",
        help="with `all`: restrict the campaign to these comma-separated "
        "experiment keys",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock deadline; jobs past it are watchdog-killed "
        "and retried (quarantined after repeated offences)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="arm deterministic fault injection with this seed "
        "(see `chaos` for the self-verifying campaign)",
    )
    parser.add_argument(
        "--chaos-rate",
        type=float,
        default=None,
        help="per-(fault, job, attempt) injection probability "
        "(implies --chaos-seed 0 when given alone)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a structured event trace (JSONL + Chrome trace_event "
        "companion + <stem>.metrics.json export) for every simulation "
        "this command executes",
    )
    parser.add_argument(
        "--trace-every",
        type=int,
        default=None,
        metavar="N",
        help="sample 1-in-N high-frequency trace events (default 1)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="record a component self-profile (*.prof.json + collapsed "
        "stacks for flamegraph tools) for every simulation this command "
        "executes",
    )
    args = parser.parse_args(argv)
    if args.trace_every is not None and args.trace_every < 1:
        parser.error("--trace-every must be >= 1")
    if args.trace or args.trace_every or args.profile:
        import repro.obs as obs

        obs.configure(
            trace=args.trace, every=args.trace_every, profile=args.profile
        )

    if args.experiment == "list":
        for key, (title, _fn) in EXPERIMENTS.items():
            print(f"  {key:8s} {title}")
        return EXIT_OK

    params = SimulationParams(
        accesses_per_core=_accesses_or_default(parser, args.accesses),
        seed=args.seed,
        fault_rate=args.fault_rate,
        ecc=args.ecc,
    )
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.repetitions < 1:
        parser.error("--repetitions must be >= 1")
    run_table = args.run_table
    if run_table is None and args.repetitions > 1:
        from repro.analysis.runtable import DEFAULT_RUN_TABLE

        run_table = DEFAULT_RUN_TABLE

    # Chaos arms from the flags, else from REPRO_CHAOS (so any command can
    # run under injection); the supervisor deadline from --deadline.
    from repro.chaos import ChaosPolicy, from_env as chaos_from_env
    from repro.exec import ShutdownFlag, SupervisorPolicy, graceful_signals

    if args.chaos_rate is not None and not 0.0 <= args.chaos_rate <= 1.0:
        parser.error("--chaos-rate must be in [0, 1]")
    chaos: Optional[ChaosPolicy] = None
    if args.chaos_seed is not None or args.chaos_rate is not None:
        chaos = ChaosPolicy(
            seed=args.chaos_seed or 0,
            **({"rate": args.chaos_rate} if args.chaos_rate is not None else {}),
        )
    else:
        chaos = chaos_from_env()
    if args.deadline is not None and args.deadline <= 0:
        parser.error("--deadline must be positive")
    supervisor = SupervisorPolicy(deadline=args.deadline)

    # One experiment, or `all` (restricted by --experiments), runs as one
    # campaign: prefetch every simulation, then render each table, with
    # SIGTERM/SIGINT stopping it gracefully (exit 5) at either stage.
    if args.experiment == "all":
        keys = args.experiments or list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        keys = [args.experiment]
    else:
        parser.error(f"unknown experiment {args.experiment!r}; try `list`")
    shutdown = ShutdownFlag()
    with graceful_signals(shutdown):
        status = _prefetch(
            keys, params, args.jobs,
            supervisor=supervisor, chaos=chaos, shutdown=shutdown,
            repetitions=args.repetitions, run_table=run_table,
        )
        if status != EXIT_OK:
            return status
        campaign = Campaign(
            [(key, lambda k=key: run_one(k, params)) for key in keys],
            repetitions=(
                {key: args.repetitions for key in keys}
                if args.repetitions > 1
                else None
            ),
        )
        campaign.run(should_stop=lambda: shutdown.requested)
        if campaign.interrupted:
            print(
                f"interrupted: campaign stopped after "
                f"{len(campaign.completed)} of {len(campaign.steps)} "
                f"experiments; re-run to resume",
                file=sys.stderr,
            )
            return EXIT_INTERRUPTED
        # per-step timings feed `report --flight`'s campaign section
        campaign.write_flight_data()
    return EXIT_OK


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``cli list | head -1``).  Point
        # stdout at /dev/null so the interpreter's final flush cannot raise
        # again; SIG_DFL for SIGPIPE would instead let a dropped client
        # socket kill ``cli serve``.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
