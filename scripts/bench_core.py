#!/usr/bin/env python
"""Measure hot-path simulator throughput per design configuration.

Runs one workload x config matrix with no result cache, each run on a
fresh line store (so every line is synthesized and sized, as in a
process's first run of a trace), and reports *simulated L3 accesses per
second of wall clock* for each design — the repository's core
performance trajectory (``BENCH_core.json``)::

    PYTHONPATH=src python scripts/bench_core.py \
        --min-throughput 2000 --out BENCH_core.json

The throughput floor (``--min-throughput``, applied to the *slowest*
config's accesses/sec) is the CI perf-regression gate: a PR that halves
hot-path speed fails here even though every functional test passes.
Each (workload, config) cell runs ``--repeats`` times and keeps the
fastest wall time, which filters scheduler noise on loaded CI machines.

``--baseline BENCH_core.json`` additionally compares every cell against a
committed baseline report within a tolerance band (``--band 0.5`` allows a
cell to drop to 50% of its baseline rate before failing — machines differ,
so the band is wide; the floor catches catastrophic regressions, the band
catches broad erosion).  The per-cell delta table goes to stderr and, when
``GITHUB_STEP_SUMMARY`` is set, to the CI job summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

# Throughput measurement must never touch (or populate) the repo's result
# cache: point the runner at a throwaway path before importing repro.
if "REPRO_CACHE_PATH" not in os.environ:
    os.environ["REPRO_CACHE_PATH"] = os.path.join(
        os.environ.get("TMPDIR", "/tmp"), "repro-bench-core-unused.json"
    )

from repro.harness.runner import make_config  # noqa: E402
from repro.sim.engine import SimulationParams, run_workload  # noqa: E402
from repro.sim.linestore import LineStore  # noqa: E402

DEFAULT_CONFIGS = ["base", "tsi", "bai", "dice", "scc"]
DEFAULT_WORKLOADS = ["mcf", "gcc"]


def _bench_cell(workload: str, config_name: str, params, repeats: int):
    """(accesses/sec, best wall seconds, total simulated accesses)."""
    config = make_config(config_name)
    best = float("inf")
    accesses = 0
    for _ in range(repeats):
        # a fresh store keeps every repeat cold: on the process store a
        # repeat would find every line synthesized and sized
        store = LineStore()
        start = time.perf_counter()
        result = run_workload(workload, config, params, store=store)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        # demand L3 accesses actually simulated (all cores, incl. warmup)
        accesses = params.accesses_per_core * len(result.per_core_ipc)
    return accesses / best, best, accesses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", nargs="+", default=DEFAULT_CONFIGS)
    parser.add_argument("--workloads", nargs="+", default=DEFAULT_WORKLOADS)
    parser.add_argument("--accesses", type=int, default=600,
                        help="accesses per core per run (default 600)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed repetitions per cell; fastest wins")
    parser.add_argument("--min-throughput", type=float, default=None,
                        help="fail if any config's accesses/sec falls below")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_core.json to diff against")
    parser.add_argument("--band", type=float, default=0.5,
                        help="fraction of the baseline rate a cell may drop "
                             "to before --baseline fails it (default 0.5)")
    parser.add_argument("--out", default="BENCH_core.json")
    args = parser.parse_args(argv)

    params = SimulationParams(accesses_per_core=args.accesses)
    failures = []
    per_config = {}
    for config_name in args.configs:
        rates = []
        cells = {}
        for workload in args.workloads:
            rate, best_s, accesses = _bench_cell(
                workload, config_name, params, max(1, args.repeats)
            )
            rates.append(rate)
            cells[workload] = {
                "accesses_per_sec": round(rate, 1),
                "best_seconds": round(best_s, 4),
                "simulated_accesses": accesses,
            }
            print(f"{config_name:10s} {workload:8s} "
                  f"{rate:10.0f} acc/s ({best_s:.3f}s best)",
                  file=sys.stderr)
        config_rate = min(rates)
        per_config[config_name] = {
            "accesses_per_sec": round(config_rate, 1),
            "workloads": cells,
        }
        if (args.min_throughput is not None
                and config_rate < args.min_throughput):
            failures.append(
                f"{config_name}: {config_rate:.0f} accesses/sec is below "
                f"the --min-throughput {args.min_throughput:g} floor"
            )

    slowest = min(
        entry["accesses_per_sec"] for entry in per_config.values()
    )
    report = {
        "accesses_per_core": args.accesses,
        "repeats": args.repeats,
        "workloads": args.workloads,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "configs": per_config,
        "slowest_accesses_per_sec": slowest,
        "min_throughput_floor": args.min_throughput,
        "ok": not failures,
    }
    if args.baseline:
        failures += _check_baseline(per_config, args)

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"slowest config: {slowest:.0f} accesses/sec "
          f"(floor: {args.min_throughput or 'none'}); wrote {args.out}",
          file=sys.stderr)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _check_baseline(per_config, args):
    """Tolerance-band comparison against a committed baseline report.

    Returns a list of failure strings; also renders the per-cell delta
    table to stderr and (when running under GitHub Actions) into the job
    summary.
    """
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    base_configs = baseline.get("configs", {})
    failures = []
    rows = [("config", "workload", "baseline", "current", "delta", "status")]
    for config_name, entry in per_config.items():
        base_entry = base_configs.get(config_name)
        if base_entry is None:
            continue
        for workload, cell in entry["workloads"].items():
            base_cell = base_entry.get("workloads", {}).get(workload)
            if base_cell is None:
                continue
            base_rate = base_cell["accesses_per_sec"]
            rate = cell["accesses_per_sec"]
            delta = (rate - base_rate) / base_rate if base_rate else 0.0
            ok = rate >= base_rate * args.band
            rows.append((
                config_name, workload, f"{base_rate:.0f}", f"{rate:.0f}",
                f"{delta:+.1%}", "ok" if ok else "BELOW BAND",
            ))
            if not ok:
                failures.append(
                    f"{config_name} x {workload}: {rate:.0f} acc/s is below "
                    f"{args.band:.0%} of the baseline {base_rate:.0f} acc/s"
                )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)),
              file=sys.stderr)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write("### bench_core vs committed baseline\n\n")
            fh.write("| " + " | ".join(rows[0]) + " |\n")
            fh.write("|" + "---|" * len(rows[0]) + "\n")
            for row in rows[1:]:
                fh.write("| " + " | ".join(row) + " |\n")
            fh.write(f"\ntolerance band: {args.band:.0%} of baseline; "
                     f"floor: {args.min_throughput or 'none'}\n")
    return failures


if __name__ == "__main__":
    sys.exit(main())
