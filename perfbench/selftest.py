"""Self-test of the benchmark itself, at a tiny size.

Run from the root of a checkout (about a minute on two cores)::

    python3 perfbench/selftest.py

It checks that:

1. every workload prints every metric of ``BENCHMARK.json`` by name, with
   its unit, in both modes, and counts no failed op on correct code;
2. a perturbed ``SimResult``, a stale warm hit, a warm result that differs
   from the cold one and a 429 reply each count as one failed op;
3. changing the seed argument changes the generated inputs;
4. only the default seed is checked against ``reference.json``.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run as bench

TINY = {
    "SIM_ACCESSES": 120,
    "WARMUP_ACCESSES": 64,
    "CAMPAIGN_ACCESSES": 40,
    "MIN_WARM_SUBMISSIONS": 12,
    "MIN_FRESH_WARM": 2,
    "DAEMON_STARTS": 1,
    "TRACED_WARM_SUBMISSIONS": 3,
}
SEED = 1234  # not the default seed: the reference does not apply at this size

failures = []


def check(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
    if not condition:
        failures.append(what)


class FakeClient:
    """Answers submissions the way a broken daemon might."""

    def __init__(self, submit=None, results=None) -> None:
        self._submit = submit
        self._results = results

    def submit(self, **_body):
        return self._submit()

    def results(self, _campaign_id):
        return self._results


def quiet(fn, *args, **kwargs):
    """``fn``'s return value and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        value = fn(*args, **kwargs)
    return value, out.getvalue()


def metrics_print_with_units(declared) -> None:
    for workload in bench.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            args = bench.parse_args(["--workload", workload, "--seed", str(SEED),
                                     "--seconds", "1", "--trace", str(trace)])
            result, printed = quiet(bench.run, args)
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} --trace {trace}: metrics are exactly "
                               f"BENCHMARK.json's {kind}, with its units")
            lines = printed.splitlines()
            check(all(any(name in line and line.endswith(unit) for line in lines)
                      for name, unit in want.items()),
                  f"{workload} --trace {trace}: every metric printed by name with its unit")
            check(result["failed"] == 0 and result["correct"] and result["attempted"] > 0,
                  f"{workload} --trace {trace}: {result['attempted']} ops, none failed")
            for line in lines:
                if line.startswith("FAILED"):
                    print(f"     {line}")
            json.dumps(result)


def violations_count() -> None:
    from repro.harness.runner import make_config
    from repro.service.client import ServiceError
    from repro.sim import engine

    params = bench.sim_params(bench.SIM_ACCESSES, SEED)
    configs = {"dice": make_config("dice")}
    good = bench.Ledger("selftest")
    _times, results = bench.run_cells([("dice", "mcf")], configs, params, good, "probe", None, engine)
    perturbed = {name: dict(r) for name, r in results.items()}
    perturbed["dice:mcf"]["l4_hit_rate"] += 1e-12
    ledger = bench.Ledger("selftest")
    _, printed = quiet(bench.run_cells, [("dice", "mcf")], configs, params, ledger,
                       "rerun", perturbed, engine)
    check(ledger.failed == 1 and "dice:mcf" in printed and "l4_hit_rate" in printed,
          "a perturbed SimResult is one failed op naming the cell and the field")

    body = bench.submission("sim-read", SEED)
    cold = {"dice:mcf": results["dice:mcf"]}
    stale = FakeClient(lambda: {"id": "c1", "jobs": 6, "cached": 5, "queued": 1},
                       {"results": {"j": {**results["dice:mcf"], "config_name": "dice",
                                          "workload": "mcf"}}})
    ledger = bench.Ledger("selftest")
    quiet(bench.service_warm, stale, body, 1, cold, ledger)
    check(ledger.failed == 1, "a warm submission the store did not fully answer is a failed op")

    drifted = dict(results["dice:mcf"], cycles=results["dice:mcf"]["cycles"] + 1)
    wrong = FakeClient(lambda: {"id": "c1", "jobs": 1, "cached": 1, "queued": 0},
                       {"results": {"j": drifted}})
    ledger = bench.Ledger("selftest")
    _, printed = quiet(bench.service_warm, wrong, body, 1, cold, ledger)
    check(ledger.failed == 1 and "cycles" in printed,
          "a warm result that differs from the cold one is a failed op naming the field")

    def refuse():
        raise ServiceError(429, {"error": "queue full"})

    ledger = bench.Ledger("selftest")
    latencies, _ = quiet(bench.service_warm, FakeClient(refuse), body, 3, cold, ledger)
    check(ledger.failed == 3 and not latencies, "each 429 reply is a failed op")


def seed_changes_inputs() -> None:
    from repro.harness.runner import make_config
    from repro.sim import engine
    from repro.workloads.base import TraceGenerator
    from repro.workloads.registry import get_profile

    def first_accesses(seed):
        gen = iter(TraceGenerator(get_profile("mcf"), scale=4096, seed=seed))
        return [next(gen) for _ in range(200)]

    check(first_accesses(SEED) != first_accesses(SEED + 1), "another seed generates another trace")
    config = make_config("base")
    a = bench.canonical(engine.run_workload("mcf", config, bench.sim_params(bench.SIM_ACCESSES, SEED)))
    b = bench.canonical(engine.run_workload("mcf", config, bench.sim_params(bench.SIM_ACCESSES, SEED + 1)))
    check(a != b, "another --seed gives another SimResult")
    check(bench.submission("campaign", SEED) != bench.submission("campaign", SEED + 1),
          "another --seed gives another campaign submission")


def reference_only_at_default_seed() -> None:
    for workload in bench.WORKLOADS:
        check(bench.load_reference(workload, bench.DEFAULT_SEED) is not None,
              f"{workload}: the default seed is checked against the reference")
        check(bench.load_reference(workload, SEED) is None,
              f"{workload}: seed {SEED} skips the reference check")


def main() -> int:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for name, value in TINY.items():
        setattr(bench, name, value)
    metrics_print_with_units(declared)
    violations_count()
    seed_changes_inputs()
    reference_only_at_default_seed()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
