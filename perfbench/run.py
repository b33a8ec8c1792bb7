#!/usr/bin/env python3
"""Benchmark of the DICE reproduction: simulator throughput, campaign latency.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-read --seed 7 --seconds 15 --trace 0

Every workload is a set of simulation cells that one closed-loop client
runs three ways, waiting for each reply before sending the next request:

* in this process, through ``repro.sim.engine.run_workload`` (``sim-*``
  workloads only; the campaign's cells are timed inside its workers);
* through a ``cli serve --jobs 2`` daemon: one cold submission, then
  resubmissions answered from its store;
* through fresh processes, one cold at a second seed, then warm ones back
  at the first: ``cli fig10 --jobs 2`` for ``campaign``,
  ``perfbench/cells.py`` (the executor ``cli`` runs its prefetch through)
  for the ``sim-*`` cell sets, which ``cli`` cannot name.

The warm passes and the in-process rounds take turns; ``--seconds`` sets
how many turns a run makes.

Each run works in a fresh directory under ``.perfbench_work/`` (result
store, working directory, temp files) and deletes it at the end; the
repository's own result caches are never read or written.  Every output is
checked: cells must repeat bit for bit across rounds and front ends, warm
answers must equal cold ones, and at the default seed everything must equal
``perfbench/reference.json``.  Each violation is one failed op.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer split (see ``perfbench/spans.py``) with
``--trace 1``.  ``--record-reference`` rewrites the reference file from a
default-seed run instead.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, Iterable, List, Optional, Tuple  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 7  # SimulationParams().seed
SEED_B_OFFSET = 1000  # the second seed of every run is seed + this
JOBS = 2  # workers for the daemon and every fresh process: one per core of a 2-core host
SIM_ACCESSES = 800  # accesses per core for every sim-* cell
WARMUP_ACCESSES = 200  # the untimed warm-up cell
CAMPAIGN_EXPERIMENT = "fig10"
CAMPAIGN_ACCESSES = 100
MIN_WARM_SUBMISSIONS = 200  # p95 leaves ten samples beyond it
MIN_FRESH_WARM = 6
MIN_TURNS = 2
# nominal seconds per turn on a 2-core Xeon VM: --seconds / this = turns
TURN_SECONDS = {"sim-read": 5.0, "sim-write": 3.0, "sim-uncompressed": 2.0, "campaign": 2.5}
TRACED_WARM_SUBMISSIONS = 20
DAEMON_STARTS = 3  # set-up is repeated and its median reported
WARM_RESULT_CHECK_EVERY = 10  # full result comparison on every n-th resubmission
PROCESS_TIMEOUT_S = 170

# (designs, traces) of each workload; None: the campaign's fig10 plan
WORKLOADS: Dict[str, Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]] = {
    "sim-read": (("dice", "bai", "scc"), ("mcf", "pr_twi")),
    "sim-write": (("dice", "bai", "scc"), ("lbm",)),
    "sim-uncompressed": (("base",), ("mcf", "pr_twi", "lbm")),
    "campaign": None,
}

END_TO_END = {
    "sim_acc_per_s": "acc/s",
    "sim_min_cell_acc_per_s": "acc/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "svc_cold_s": "s",
    "svc_warm_p50_ms": "ms",
    "cli_cold_s": "s",
    "cli_warm_s": "s",
}
# Printed on every run, but not a bounded metric: on a 2-3 ms warm answer
# the p95 flips between ~1.1x and ~4x the median with the hypervisor's
# steal rate (ten-run spreads of 0.5-1.3 on the sim-* workloads).
PRINTED_ONLY = {"svc_warm_p95_ms": "ms"}

_HITS = re.compile(r"jobs: (\d+) total · (\d+) from cache")
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


# -- outputs and their checks ------------------------------------------------


def canonical(result) -> dict:
    """A SimResult (or its JSON form) as plain JSON values, manifest dropped.

    ``SimResult.__eq__`` ignores the manifest too: it records the execution
    (host, wall clock), not the result.
    """
    data = dataclasses.asdict(result) if dataclasses.is_dataclass(result) else dict(result)
    data.pop("manifest", None)
    return json.loads(json.dumps(data, sort_keys=True))


def first_difference(got, want, path: str = "") -> str:
    """'' when equal, else where they first differ (cell, field or line)
    and both values there."""
    if got == want:
        return ""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                return first_difference(got.get(key), want.get(key), f"{path}{key}.")
    where = path.rstrip(".") or "value"
    if isinstance(got, str) and isinstance(want, str):
        got_lines, want_lines = got.splitlines(), want.splitlines()
        for number, (a, b) in enumerate(zip(got_lines, want_lines), 1):
            if a != b:
                return f"{where} line {number}: {a.strip()!r} != {b.strip()!r}"
        return f"{where}: {len(got_lines)} lines != {len(want_lines)} lines"
    return f"{where}: {got!r} != {want!r}"


class Ledger:
    """Ops attempted and failed; every violation is printed with its op."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def op(self, name: str, problems: Iterable[str]) -> None:
        problems = [p for p in problems if p]
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {self.workload} {name}: {problem}", flush=True)


def expect(got, want, what: str) -> str:
    diff = first_difference(got, want)
    return f"{what}: {diff}" if diff else ""


def cell_name(design: str, trace: str) -> str:
    return f"{design}:{trace}"


# -- isolation -----------------------------------------------------------------


class Sandbox:
    """A fresh result store, working directory and temp dir for one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.dir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.cwd = self.dir / "cwd"
        self.tmp = self.dir / "tmp"
        for path in (self.dir / "store", self.cwd, self.tmp):
            path.mkdir(parents=True)
        self.cache_path = self.dir / "store" / ".sim_cache.json"
        # Nothing the caller exported reaches the program: tracing,
        # profiling, metrics, chaos, memo size, scale, access count, job
        # count and cache location all come from here.
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        os.environ["REPRO_CACHE_PATH"] = str(self.cache_path)
        os.environ["TMPDIR"] = str(self.tmp)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        tempfile.tempdir = str(self.tmp)
        sys.path.insert(0, str(SRC))
        runner = sys.modules.get("repro.harness.runner")
        if runner is not None:  # an earlier run in this process imported it
            runner.set_cache_path(self.cache_path)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run_process(argv: List[str], cwd: Path) -> Tuple[float, subprocess.CompletedProcess]:
    """Wall seconds from start to exit, and the finished process."""
    started = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=cwd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    return time.perf_counter() - started, proc


class Daemon:
    """A ``cli serve`` process on an ephemeral port, in its own session."""

    def __init__(self, sandbox: Sandbox, index: int) -> None:
        self.sandbox = sandbox
        self.log = sandbox.dir / f"daemon{index}.log"
        self.checkpoint = sandbox.dir / f"daemon{index}.checkpoint.json"
        self.proc: Optional[subprocess.Popen] = None
        self.client = None

    def start(self) -> float:
        """Start it; the seconds until ``/healthz`` answers."""
        from repro.service.client import ServiceClient

        started = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.harness.cli", "serve",
                 "--port", "0", "--jobs", str(JOBS),
                 "--checkpoint", str(self.checkpoint), "--no-resume"],
                cwd=self.sandbox.cwd, stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True,
            )
        deadline = started + 60
        port = None
        while port is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"daemon did not start: {self.log.read_text()}")
            found = _LISTENING.search(self.log.read_text(errors="replace"))
            if found:
                port = int(found.group(2))
            else:
                time.sleep(0.005)
        self.client = ServiceClient("127.0.0.1", port, timeout=PROCESS_TIMEOUT_S)
        while True:
            try:
                if self.client.healthz().get("status") == "ok":
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon never answered /healthz")
            time.sleep(0.005)
        return time.perf_counter() - started

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                try:
                    self.client.drain()
                except (OSError, RuntimeError):
                    self.proc.terminate()
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            try:  # pool workers the daemon left behind
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass


class InProcessDaemon:
    """The daemon on a thread of this process, so its calls can be traced."""

    def __init__(self, sandbox: Sandbox) -> None:
        self.sandbox = sandbox
        self.thread: Optional[threading.Thread] = None
        self.client = None

    def start(self) -> None:
        import asyncio

        from repro.service import ServiceConfig, run_service
        from repro.service.client import ServiceClient

        config = ServiceConfig(
            host="127.0.0.1", port=0, workers=JOBS, resume=False,
            checkpoint=self.sandbox.dir / "daemon.checkpoint.json",
        )
        ready = threading.Event()
        box = {}

        def on_ready(service) -> None:
            box["port"] = service.port
            ready.set()

        self.thread = threading.Thread(
            target=lambda: asyncio.run(run_service(config, ready=on_ready)),
            daemon=True,
        )
        self.thread.start()
        if not ready.wait(60):
            raise RuntimeError("in-process daemon did not start")
        self.client = ServiceClient("127.0.0.1", box["port"], timeout=PROCESS_TIMEOUT_S)

    def stop(self) -> None:
        if self.thread is None:
            return
        self.client.drain()
        self.thread.join(60)
        if self.thread.is_alive():
            raise RuntimeError("in-process daemon did not drain")


# -- the model: cells, accesses, throughput -----------------------------------


def simulated_accesses(workload: str, accesses_per_core: int, num_cores: int) -> int:
    """L3 accesses one run simulates on all cores, warm-up included.

    Mirrors the instruction-matched quotas of ``sim/engine.run_workload``:
    a mix's low-intensity cores serve proportionally fewer accesses.
    """
    from repro.workloads.registry import get_profile, is_mix, mix_members

    names = mix_members(workload) if is_mix(workload) else [workload] * num_cores
    apki = [get_profile(name).l3_apki for name in names]
    peak = max(apki)
    return sum(max(64, int(accesses_per_core * a / peak)) for a in apki)


def sim_params(accesses: int, seed: int):
    from repro.sim.engine import SimulationParams

    return SimulationParams(accesses_per_core=accesses, seed=seed)


def run_cells(cells, configs, params, ledger, label, want, engine_mod):
    """One round: every cell once.  Returns ({cell: seconds}, {cell: result}).

    The seconds are this thread's CPU time: the simulation is
    single-threaded and nothing else runs beside it, and on a shared VM CPU
    time leaves out the time the hypervisor gives to other guests.
    """
    times, results = {}, {}
    for design, trace in cells:
        name = cell_name(design, trace)
        started = time.thread_time()
        result = engine_mod.run_workload(trace, configs[design], params)
        times[name] = time.thread_time() - started
        results[name] = canonical(result)
        ledger.op(f"{name} {label}",
                  [expect(results[name], want.get(name), "result") if want is not None else ""])
    return times, results


# -- the daemon and fresh-process passes ---------------------------------------


def submission(workload: str, seed: int) -> dict:
    cells = WORKLOADS[workload]
    if cells is None:
        return {"experiments": [CAMPAIGN_EXPERIMENT], "accesses": CAMPAIGN_ACCESSES, "seed": seed}
    designs, traces = cells
    return {
        "jobs": [{"workload": t, "config": d} for d in designs for t in traces],
        "accesses": SIM_ACCESSES, "seed": seed,
    }


def results_by_cell(doc: dict) -> Tuple[Dict[str, dict], Dict[str, dict], List[str]]:
    """A ``/results`` document as ({cell: result}, {cell: manifest}, errors)."""
    results, manifests = {}, {}
    errors = [f"{jid}: {err}" for jid, err in (doc.get("errors") or {}).items()]
    for jid, payload in (doc.get("results") or {}).items():
        if payload is None:
            errors.append(f"{jid}: no result")
            continue
        name = cell_name(payload["config_name"], payload["workload"])
        results[name] = canonical(payload)
        manifests[name] = payload.get("manifest") or {}
    return results, manifests, errors


def service_cold(client, body: dict, ledger: Ledger, want: Optional[Dict[str, dict]]):
    """Pass 1: submit, follow the stream to ``done``.  (seconds, results, manifests)."""
    started = time.perf_counter()
    doc = client.submit(client="perfbench", **body)
    final = {}
    for event in client.events(str(doc["id"])):
        if event.get("event") == "done":
            final = event
            break
    elapsed = time.perf_counter() - started
    results, manifests, errors = results_by_cell(client.results(str(doc["id"])))
    if final.get("status") != "completed" or errors:
        ledger.op("daemon cold", [f"campaign {final.get('status')}: {errors[:3]}"])
    for name, result in sorted(results.items()):
        problems = []
        if want is not None and name in want:
            problems.append(expect(result, want[name], "daemon result"))
        elif want is not None:
            problems.append("not in the reference")
        ledger.op(f"{name} daemon cold", problems)
    if want is not None:
        for name in sorted(set(want) - set(results)):
            ledger.op(f"{name} daemon cold", ["missing from the daemon's results"])
    return elapsed, results, manifests


def service_warm(client, body: dict, count: int, cold: Dict[str, dict], ledger: Ledger,
                 recorder=None, first: int = 0) -> List[float]:
    """Pass 2: ``count`` resubmissions, one at a time.  Latencies in ms."""
    from repro.service.client import ServiceError

    latencies = []
    for i in range(first, first + count):
        span = recorder.span(f"svc-warm-{i}", "service.warm") if recorder else contextlib.nullcontext()
        with span:
            started = time.perf_counter()
            try:
                doc = client.submit(client="perfbench", **body)
            except ServiceError as exc:
                ledger.op(f"warm submission {i}", [f"HTTP {exc.status}: {exc}"])
                continue
            latencies.append((time.perf_counter() - started) * 1e3)
        problems = []
        if doc.get("queued") or doc.get("cached") != doc.get("jobs"):
            problems.append(
                f"not answered from the store: {doc.get('cached')}/{doc.get('jobs')} "
                f"cached, {doc.get('queued')} queued"
            )
        if i % WARM_RESULT_CHECK_EVERY == 0 or i == first + count - 1:
            results, _manifests, errors = results_by_cell(client.results(str(doc["id"])))
            problems.extend(errors[:3])
            problems.append(expect(results, cold, "warm result differs from cold"))
        ledger.op(f"warm submission {i}", problems)
    return latencies


def hits_from_stderr(stderr: str) -> Tuple[int, int]:
    found = _HITS.findall(stderr)
    if not found:
        return 0, -1
    total, cached = found[-1]
    return int(cached), int(total)


def fresh_process_argv(workload: str, seed: int) -> List[str]:
    cells = WORKLOADS[workload]
    if cells is None:
        return [sys.executable, "-m", "repro.harness.cli", CAMPAIGN_EXPERIMENT,
                "--jobs", str(JOBS), "--accesses", str(CAMPAIGN_ACCESSES), "--seed", str(seed)]
    designs, traces = cells
    return [sys.executable, str(BENCH / "cells.py"),
            "--cells", ",".join(cell_name(d, t) for d in designs for t in traces),
            "--accesses", str(SIM_ACCESSES), "--seed", str(seed), "--jobs", str(JOBS)]


def check_fresh_process(workload: str, proc, label: str, warm: bool, want, ledger: Ledger):
    """Checks one fresh-process pass; returns what it produced (or None)."""
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    produced = None
    if WORKLOADS[workload] is None:
        produced = proc.stdout
        if warm:
            cached, total = hits_from_stderr(proc.stderr)
            if cached != total:
                problems.append(f"warm pass hit the store for {cached} of {total} jobs")
    elif proc.returncode == 0:
        doc = json.loads(proc.stdout.splitlines()[-1])
        produced = {name: canonical(r) for name, r in doc["results"].items()}
        misses = [c for c, source in doc["sources"].items() if source != "cache"]
        if warm and misses:
            problems.append(f"warm pass missed the store for {misses}")
    if want is not None and produced is not None:
        problems.append(expect(produced, want, "output"))
    ledger.op(label, problems)
    return produced


def render_expected(params) -> Optional[str]:
    """``cli fig10``'s stdout rendered here from the store, or None if a
    planned job is missing from it."""
    from repro.exec import build_plan
    from repro.harness import cli, runner

    runner.drop_memory_state()
    if any(job.peek() is None for job in build_plan([CAMPAIGN_EXPERIMENT], params).jobs):
        return None
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli.run_one(CAMPAIGN_EXPERIMENT, params)
    runner.drop_memory_state()
    return buffer.getvalue()


# -- reference ---------------------------------------------------------------


def load_reference(workload: str, seed: int) -> Optional[dict]:
    """This workload's reference outputs when ``seed`` is the default one."""
    if seed != DEFAULT_SEED:
        return None
    doc = json.loads(REFERENCE.read_text())
    entry = doc["workloads"].get(workload)
    if entry is None or doc.get("seed") != DEFAULT_SEED:
        raise SystemExit(f"{REFERENCE} has no default-seed entry for {workload}")
    return entry


# -- untraced runs: end-to-end metrics -----------------------------------------


def measure(workload: str, seed: int, seconds: int, sandbox: Sandbox, ledger: Ledger,
            reference: Optional[dict]) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Every end-to-end metric of one run, and the outputs it checked.

    The cold passes run once each.  The warm passes and the in-process
    rounds then take turns, so each of them samples the whole measured
    window rather than a few seconds of it: the speed of a shared 2-core
    VM drifts by tens of percent over seconds.  The number of turns comes
    from ``seconds`` and the workload's nominal turn time, so a run does
    the same work on every commit (the daemon keeps every campaign it
    served, so its latency depends on how many came before).
    """
    from repro.harness.runner import make_config
    from repro.sim import engine

    cells_spec = WORKLOADS[workload]
    seed_b = seed + SEED_B_OFFSET
    num_cores = make_config("base").core.num_cores
    notes: Dict[str, object] = {}
    outputs: Dict[str, object] = {}

    # set-up: configs, an untimed warm-up cell, then the daemon
    if cells_spec is not None:
        designs, traces = cells_spec
        cells = [(d, t) for d in designs for t in traces]
        configs = {d: make_config(d) for d in designs}
        engine.run_workload(traces[0], configs[designs[0]], sim_params(WARMUP_ACCESSES, seed))
    own_setup = time.perf_counter() - T_START
    starts = []
    daemon = None
    cell_time: Dict[str, float] = {}
    cell_acc: Dict[str, int] = {}
    try:
        for index in range(DAEMON_STARTS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(sandbox, index)
            starts.append(daemon.start())
        setup_s = own_setup + statistics.median(starts)
        notes["setup"] = (f"{own_setup:.3f} s in-process + median of {len(starts)} "
                          f"daemon starts {[round(s, 3) for s in starts]}")

        # pass 1: cold through the daemon, at seed A
        body = submission(workload, seed)
        key = "daemon" if cells_spec is None else "cells"
        svc_cold_s, cold, manifests = service_cold(
            daemon.client, body, ledger, reference[key] if reference else None)
        outputs[key] = cold
        if cells_spec is None:
            # the campaign's cells are timed in the daemon's workers
            for name, manifest in manifests.items():
                design, trace = name.split(":")
                cell_acc[design] = cell_acc.get(design, 0) + simulated_accesses(
                    trace, CAMPAIGN_ACCESSES, num_cores)
                cell_time[design] = cell_time.get(design, 0.0) + float(manifest.get("elapsed_s") or 0.0)
            notes["sim"] = f"{len(manifests)} daemon jobs at {CAMPAIGN_ACCESSES} acc/core, timed in the workers"

        # pass 3: cold, fresh process, at seed B
        cli_cold_s, proc = run_process(fresh_process_argv(workload, seed_b), sandbox.cwd)
        outputs["fresh_cold"] = check_fresh_process(
            workload, proc, "fresh process cold", False,
            reference["fresh_cold"] if reference else None, ledger)

        # what every warm fresh process must print
        if cells_spec is None:
            want_warm = render_expected(sim_params(CAMPAIGN_ACCESSES, seed))
            problems = [] if want_warm is not None else ["a planned job is missing from the store"]
            if reference:
                problems.append(expect(want_warm, reference["fresh_warm"], "rendered tables"))
            ledger.op("render from the daemon's results", problems)
        else:
            want_warm = cold

        # passes 2 and 4, taking turns with the in-process rounds (sim-*);
        # the amount of work follows from --seconds alone, never from speed
        params = sim_params(SIM_ACCESSES, seed)
        turns = max(MIN_TURNS, round(seconds / TURN_SECONDS[workload]))
        block = -(-MIN_WARM_SUBMISSIONS // turns)
        fresh_per_turn = -(-MIN_FRESH_WARM // turns)
        latencies: List[float] = []
        warm_times: List[float] = []
        for turn in range(turns):
            if cells_spec is not None:
                times, _results = run_cells(cells, configs, params, ledger,
                                            f"round {turn + 1}", cold, engine)
                for name, spent in times.items():
                    cell_time[name] = cell_time.get(name, 0.0) + spent
                    cell_acc[name] = cell_acc.get(name, 0) + simulated_accesses(
                        name.split(":")[1], SIM_ACCESSES, num_cores)
            latencies += service_warm(daemon.client, body, block, cold, ledger, first=turn * block)
            for _ in range(fresh_per_turn):
                elapsed, proc = run_process(fresh_process_argv(workload, seed), sandbox.cwd)
                warm_times.append(elapsed)
                outputs["fresh_warm"] = check_fresh_process(
                    workload, proc, f"fresh process warm {len(warm_times)}", True, want_warm, ledger)
        if cells_spec is not None:
            notes["sim"] = f"{turns} in-process rounds of {len(cells)} cells at {SIM_ACCESSES} acc/core"
        daemon.stop()
        daemon = None
    finally:
        if daemon is not None:
            daemon.stop()

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "sim_acc_per_s": sum(cell_acc.values()) / sum(cell_time.values()),
        "sim_min_cell_acc_per_s": min(cell_acc[c] / cell_time[c] for c in cell_time),
        "setup_s": setup_s,
        "peak_rss_mb": usage / 1024.0,
        "svc_cold_s": svc_cold_s,
        "svc_warm_p50_ms": statistics.median(latencies),
        "svc_warm_p95_ms": statistics.quantiles(latencies, n=20)[-1],
        "cli_cold_s": cli_cold_s,
        "cli_warm_s": statistics.median(warm_times),
    }
    notes["svc_warm"] = f"{len(latencies)} resubmissions of {len(cold)} jobs"
    notes["cli_warm"] = f"median of {len(warm_times)} fresh processes"
    for key, value in notes.items():
        print(f"# {key}: {value}")
    return metrics, outputs


# -- traced runs: per-layer metrics ------------------------------------------

PER_LAYER_EXTRA = {
    "compression.memo.hit_ratio": "fraction",
    "compression.memo.lookups": "count",
    "compression.pair.hit_ratio": "fraction",
    "compression.pair.lookups": "count",
    "exec.pool.overhead_s": "s",
    "exec.jobs.retried": "count",
    "service.submit.server_ms": "ms",
    "service.jobs.cached": "count",
    "service.jobs.executed": "count",
    "service.jobs.deduped": "count",
    "service.rejected": "count",
    "obs.trace_on_slowdown": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    from spans import CAMPAIGN_LAYERS, SIM_LAYERS, layer_names

    units = {}
    for metric in layer_names(SIM_LAYERS) + layer_names(CAMPAIGN_LAYERS):
        units[f"{metric}.calls"] = "count"
        units[f"{metric}.self_s"] = "s"
    units.update(PER_LAYER_EXTRA)
    return units


@contextlib.contextmanager
def captured_systems(into: list):
    """Collect every MemorySystem built while the block runs."""
    from repro.sim.system import MemorySystem

    original = MemorySystem.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        into.append(self)

    MemorySystem.__init__ = init
    try:
        yield
    finally:
        MemorySystem.__init__ = original


def traced_sim(workload: str, seed: int, sandbox: Sandbox, ledger: Ledger,
               reference: Optional[dict], recorder) -> Dict[str, float]:
    from repro.harness.runner import make_config
    from repro.sim import engine
    from spans import SIM_LAYERS, patched

    designs, traces = WORKLOADS[workload]
    cells = [(d, t) for d in designs for t in traces]
    configs = {d: make_config(d) for d in designs}
    params = sim_params(SIM_ACCESSES, seed)
    engine.run_workload(traces[0], configs[designs[0]], sim_params(WARMUP_ACCESSES, seed))

    want = reference["cells"] if reference else None
    plain_times, plain = run_cells(cells, configs, params, ledger, "untraced", want, engine)
    systems: list = []
    memo = {"hits": 0, "misses": 0}
    pair = {"hits": 0, "misses": 0}
    traced_times = {}
    with patched(recorder, SIM_LAYERS), captured_systems(systems):
        for design, trace in cells:
            name = cell_name(design, trace)
            with recorder.span(name, "sim.cell"):
                times, _results = run_cells([(design, trace)], configs, params, ledger,
                                            "traced", plain, engine)
            traced_times.update(times)
            l4 = systems[-1].l4
            compressor = getattr(l4, "compressor", None)
            if compressor is not None:
                stats = compressor.memo_stats()
                memo["hits"] += stats["hits"]
                memo["misses"] += stats["misses"]
            sizes = getattr(l4, "pair_sizes", None)
            if sizes is not None:
                stats = sizes.stats()
                pair["hits"] += stats["hits"]
                pair["misses"] += stats["misses"]

    # the program's own tracer on one cell: REPRO_TRACE set, then unset
    design, trace = cells[0]
    os.environ["REPRO_TRACE"] = str(sandbox.tmp / "obs-trace.jsonl")
    try:
        on, _ = run_cells([(design, trace)], configs, params, ledger, "REPRO_TRACE set", plain, engine)
    finally:
        del os.environ["REPRO_TRACE"]
    off, _ = run_cells([(design, trace)], configs, params, ledger, "REPRO_TRACE unset", plain, engine)

    out = layer_totals(recorder)
    memo_lookups = memo["hits"] + memo["misses"]
    pair_lookups = pair["hits"] + pair["misses"]
    out.update({
        "compression.memo.hit_ratio": memo["hits"] / memo_lookups if memo_lookups else 0.0,
        "compression.memo.lookups": memo_lookups,
        "compression.pair.hit_ratio": pair["hits"] / pair_lookups if pair_lookups else 0.0,
        "compression.pair.lookups": pair_lookups,
        "obs.trace_on_slowdown": sum(on.values()) / sum(off.values()),
        "trace.overhead_ratio": sum(traced_times.values()) / sum(plain_times.values()),
    })
    print(f"# compression.memo: {memo['hits']} hits of {memo_lookups} lookups; "
          f"compression.pair: {pair['hits']} hits of {pair_lookups} lookups")
    print(f"# traced {sum(traced_times.values()):.3f} s vs untraced "
          f"{sum(plain_times.values()):.3f} s on the same {len(cells)} cells")
    return out


def traced_campaign(seed: int, sandbox: Sandbox, ledger: Ledger,
                    reference: Optional[dict], recorder) -> Dict[str, float]:
    from repro import exec as exec_mod
    from repro.harness import cli, runner
    from spans import CAMPAIGN_LAYERS, patched

    seed_b = seed + SEED_B_OFFSET
    body = submission("campaign", seed)
    out: Dict[str, float] = {}
    overhead = 0.0
    retried = 0

    def cli_pass(seed_: int):
        """``cli fig10`` in this process, from an empty in-memory cache."""
        args = [CAMPAIGN_EXPERIMENT, "--jobs", str(JOBS),
                "--accesses", str(CAMPAIGN_ACCESSES), "--seed", str(seed_)]
        runner.drop_memory_state()  # what a fresh process starts from
        stdout, stderr = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        elapsed = time.perf_counter() - started
        return elapsed, subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())

    with patched(recorder, CAMPAIGN_LAYERS):
        daemon = InProcessDaemon(sandbox)
        daemon.start()
        try:
            with recorder.span("svc-cold", "service.cold"):
                cold_s, cold, manifests = service_cold(
                    daemon.client, body, ledger, reference["daemon"] if reference else None)
            overhead += cold_s - sum(float(m.get("elapsed_s") or 0.0) for m in manifests.values()) / JOBS
            latencies = service_warm(daemon.client, body, TRACED_WARM_SUBMISSIONS, cold, ledger, recorder)
            counters = daemon.client.metrics()
        finally:
            daemon.stop()
        warm_hist = counters["histograms"].get("service.submit.wall_us{kind=warm}", {})
        server_ms = warm_hist["sum"] / warm_hist["total"] / 1e3 if warm_hist.get("total") else 0.0
        count = counters["counters"]
        retried += int(count.get("service.jobs.retried", 0))

        with recorder.span("cli-cold", "cli"):
            cold_cli_s, proc = cli_pass(seed_b)
        check_fresh_process("campaign", proc, "cli cold", False,
                            reference["fresh_cold"] if reference else None, ledger)
        elapsed_b = 0.0
        for job in exec_mod.build_plan([CAMPAIGN_EXPERIMENT], sim_params(CAMPAIGN_ACCESSES, seed_b)).jobs:
            result = job.peek()
            elapsed_b += float((result.manifest or {}).get("elapsed_s") or 0.0) if result else 0.0
        overhead += cold_cli_s - elapsed_b / JOBS
        report = exec_mod.last_report()
        retried += report.requeues if report is not None else 0

        with recorder.span("cli-warm", "cli"):
            warm_traced_s, proc = cli_pass(seed)
        want_warm = reference["fresh_warm"] if reference else None
        check_fresh_process("campaign", proc, "cli warm traced", True, want_warm, ledger)
        traced_stdout = proc.stdout

    warm_plain_s, proc = cli_pass(seed)
    check_fresh_process("campaign", proc, "cli warm untraced", True, traced_stdout, ledger)

    out.update(layer_totals(recorder))
    out.update({
        "exec.pool.overhead_s": overhead,
        "exec.jobs.retried": retried,
        "service.submit.server_ms": server_ms,
        "service.jobs.cached": count.get("service.jobs.cached", 0),
        "service.jobs.executed": count.get("service.jobs.executed", 0),
        "service.jobs.deduped": count.get("service.jobs.deduped", 0),
        "service.rejected": count.get("service.backpressure.rejected", 0),
        "trace.overhead_ratio": warm_traced_s / warm_plain_s,
    })
    client_ms = statistics.median(latencies) if latencies else 0.0
    print(f"# warm submission: {server_ms:.3f} ms in the daemon (mean of "
          f"{warm_hist.get('total', 0)}), {client_ms:.3f} ms at the client (median)")
    print(f"# traced warm cli pass {warm_traced_s:.3f} s vs untraced {warm_plain_s:.3f} s")
    return out


def layer_totals(recorder) -> Dict[str, float]:
    out = {}
    for metric, (calls, _total, self_s) in recorder.totals().items():
        out[f"{metric}.calls"] = calls
        out[f"{metric}.self_s"] = self_s
    return out


# -- entry point -----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite {REFERENCE.name} from a default-seed run")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.record_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--record-reference needs the default seed and --trace 0")
    return args


def run(args) -> dict:
    sandbox = Sandbox(args.workload, args.seed)
    ledger = Ledger(args.workload)
    printed: Dict[str, str] = {}
    home = os.getcwd()
    os.chdir(sandbox.cwd)
    try:
        reference = None if args.record_reference else load_reference(args.workload, args.seed)
        if args.trace:
            from spans import Recorder

            recorder = Recorder()
            if WORKLOADS[args.workload] is None:
                values = traced_campaign(args.seed, sandbox, ledger, reference, recorder)
            else:
                values = traced_sim(args.workload, args.seed, sandbox, ledger, reference, recorder)
            units = per_layer_units()
            values = {name: values.get(name, 0) for name in units}
            path = OUT / f"spans-{args.workload}-s{args.seed}.json"
            recorder.write(path, workload=args.workload, seed=args.seed)
            print(f"# spans: {len(recorder.spans)} outer spans written to {path.relative_to(ROOT)}")
        else:
            units = dict(END_TO_END)
            values, outputs = measure(args.workload, args.seed, args.seconds, sandbox,
                                      ledger, reference)
            printed.update(PRINTED_ONLY)
            if args.record_reference:
                record_reference(args.workload, outputs)
    finally:
        os.chdir(home)
        sandbox.close()
    for name, unit in {**units, **printed}.items():
        print(f"{args.workload:18s} {name:34s} {values[name]:14.6g} {unit}")
    failed_frac = ledger.failed / max(1, ledger.attempted)
    print(f"{args.workload:18s} {'ops_failed_frac':34s} {failed_frac:14.6g} fraction "
          f"({ledger.failed} of {ledger.attempted} ops)")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def record_reference(workload: str, outputs: Dict[str, object]) -> None:
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc["seed"] = DEFAULT_SEED
    # the sim-* daemon and warm passes are checked against "cells"
    entry = {"fresh_cold": outputs["fresh_cold"]}
    if WORKLOADS[workload] is None:
        entry.update(daemon=outputs["daemon"], fresh_warm=outputs["fresh_warm"])
    else:
        entry["cells"] = outputs["cells"]
    doc.setdefault("workloads", {})[workload] = entry
    REFERENCE.write_text(format_reference(doc))


def format_reference(doc: dict) -> str:
    """The reference as JSON with one output per line, so that a change to
    one cell's result is a one-line diff."""
    compact: Dict[str, str] = {}

    def one_line(value) -> str:
        mark = f"@{len(compact)}@"
        compact[json.dumps(mark)] = json.dumps(value, sort_keys=True)
        return mark

    shaped = {
        "seed": doc["seed"],
        "workloads": {
            workload: {
                key: ({cell: one_line(r) for cell, r in value.items()}
                      if isinstance(value, dict) else one_line(value))
                for key, value in entry.items()
            }
            for workload, entry in doc["workloads"].items()
        },
    }
    text = json.dumps(shaped, indent=2, sort_keys=True)
    for mark, value in compact.items():
        text = text.replace(mark, value)
    return text + "\n"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    if not REFERENCE.is_file() and not args.record_reference:
        print(f"error: {REFERENCE} is missing", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
