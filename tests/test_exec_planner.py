"""Planner tests: job identity, dedupe, determinism, and — crucially —
lock-step between each experiment's ``.plan`` declaration and the cache
lookups its driver actually performs."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

import repro.harness.experiments as experiments
import repro.harness.runner as runner_mod
from repro.exec import Job, build_plan, make_job, plan_experiment
from repro.harness.experiments import EXPERIMENTS
from repro.sim.engine import SimulationParams
from repro.sim.metrics import SimResult

PARAMS = SimulationParams(accesses_per_core=200, seed=3)


def _fake_result(workload: str, config_name: str) -> SimResult:
    """A SimResult with every field a driver might aggregate non-degenerate."""
    return SimResult(
        workload=workload,
        config_name=config_name,
        cycles=1e6,
        instructions=8_000_000,
        per_core_ipc=[1.0] * 8,
        l3_hit_rate=0.5,
        l4_hit_rate=0.6,
        l4_accesses=100_000,
        l4_bytes=6_400_000,
        mem_accesses=40_000,
        mem_bytes=2_560_000,
        energy_nj=5e5,
        effective_capacity=0.9,
        cip_accuracy=0.9,
        cip_write_accuracy=0.85,
        index_distribution=(0.4, 0.3, 0.3),
        faults_injected=2,
        ecc_corrected=1,
        ecc_detected_refetches=1,
        silent_corruptions=0,
    )


@pytest.fixture
def traced(monkeypatch):
    """Replace the cache layer with recorders; yield the recorded job set."""
    jobs = set()

    def fake_cached_run(workload, config_name, *, scale=None, params=None):
        assert scale is None or scale == runner_mod.DEFAULT_SCALE
        jobs.add(make_job(workload, config_name, params=params))
        return _fake_result(workload, config_name)

    def fake_speedup(workload, config_name, baseline="base", *,
                     scale=None, params=None):
        fake_cached_run(workload, config_name, params=params)
        fake_cached_run(workload, baseline, params=params)
        return 1.0

    monkeypatch.setattr(experiments, "cached_run", fake_cached_run)
    monkeypatch.setattr(experiments, "speedup", fake_speedup)
    return jobs


class TestPlanMatchesDriver:
    """Every experiment's .plan must declare exactly the simulations the
    driver requests — no missing jobs (parallel runs would fall back to
    serial simulation inside the driver) and no phantom jobs (wasted
    simulations).  This is the anti-drift contract from DESIGN.md."""

    @pytest.mark.parametrize(
        "key", [k for k, (_t, fn) in EXPERIMENTS.items() if fn is not None]
    )
    def test_plan_covers_driver_exactly(self, key, traced):
        _title, fn = EXPERIMENTS[key]
        fn(PARAMS)
        planned = set(plan_experiment(key, PARAMS))
        assert planned == traced

    def test_every_registry_entry_has_plan_or_is_simulation_free(self):
        for key, (_title, fn) in EXPERIMENTS.items():
            if fn is None:
                assert plan_experiment(key, PARAMS) == []
            else:
                assert callable(fn.plan), f"{key} driver lacks a .plan"

    def test_default_params_also_match(self, traced):
        # Drivers that normalize params themselves (ext_faults) must have
        # plans that normalize identically — exercise the None path too.
        _title, fn = EXPERIMENTS["faults"]
        fn(None)
        assert set(plan_experiment("faults", None)) == traced


class TestJobIdentity:
    def test_jobs_hash_by_cache_key(self):
        a = make_job("mcf", "dice", params=PARAMS)
        b = make_job("mcf", "dice", params=SimulationParams(
            accesses_per_core=200, seed=3))
        assert a == b and hash(a) == hash(b)
        assert a.cache_key == b.cache_key

    def test_params_differences_are_distinct_jobs(self):
        a = make_job("mcf", "dice", params=PARAMS)
        b = make_job("mcf", "dice",
                     params=dataclasses.replace(PARAMS, seed=4))
        c = make_job("mcf", "dice",
                     params=dataclasses.replace(PARAMS, fault_rate=3e13))
        assert len({a, b, c}) == 3

    def test_default_params_match_cached_run_normalization(self):
        # A job planned with params=None must share its cache key with what
        # cached_run(params=None) computes, or warm-ups would miss.
        job = make_job("mcf", "base")
        explicit = make_job(
            "mcf", "base",
            params=SimulationParams(
                accesses_per_core=runner_mod.DEFAULT_ACCESSES),
        )
        assert job == explicit

    def test_job_id_is_stable_and_short(self):
        job = make_job("mcf", "dice", params=PARAMS)
        again = make_job("mcf", "dice", params=PARAMS)
        assert job.job_id == again.job_id
        assert len(job.job_id) == 12
        # computed once and kept outside the fields: identity, pickling
        # (jobs ship to workers) and replace() see the same job
        assert job == again and hash(job) == hash(again)
        assert pickle.loads(pickle.dumps(job)).job_id == job.job_id
        assert dataclasses.replace(job, rep=1).job_id == job.job_id

    def test_describe_names_workload_and_config(self):
        assert make_job("mcf", "dice", params=PARAMS).describe() == "mcf × dice"
        faulty = make_job(
            "mcf", "dice",
            params=dataclasses.replace(PARAMS, fault_rate=3e13))
        assert "@fault" in faulty.describe()

    def test_jobs_are_immutable(self):
        job = make_job("mcf", "dice", params=PARAMS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.workload = "gcc"

    def test_l4_overrides_are_part_of_identity(self):
        plain = make_job("mcf", "dice", params=PARAMS)
        t32 = make_job("mcf", "dice", params=PARAMS, l4={"dice_threshold": 32})
        t40 = make_job("mcf", "dice", params=PARAMS, l4={"dice_threshold": 40})
        jobs = (plain, t32, t40)
        assert len(set(jobs)) == 3
        assert len({hash(job) for job in jobs}) == 3
        assert len({job.cache_key for job in jobs}) == 3
        assert len({job.job_id for job in jobs}) == 3
        # the overrides live in the config digest: the key keeps its shape
        assert len(t32.cache_key) == len(plain.cache_key)
        assert t32.cache_key[0] == plain.cache_key[0]
        assert t32.cache_key[2:] == plain.cache_key[2:]

    def test_make_job_sorts_l4(self):
        a = make_job("mcf", "dice", params=PARAMS,
                     l4={"dice_threshold": 32, "cip_entries": 64})
        b = make_job("mcf", "dice", params=PARAMS,
                     l4=[("cip_entries", 64), ("dice_threshold", 32)])
        assert a.l4 == (("cip_entries", 64), ("dice_threshold", 32))
        assert a == b and a.job_id == b.job_id
        assert a.describe() == "mcf × dice[cip_entries=64, dice_threshold=32]"

    def test_l4_overrides_reach_the_resolved_config(self):
        job = make_job("mcf", "dice", params=PARAMS, l4={"dice_threshold": 32})
        config = runner_mod.resolve_config("dice", job.scale, job.l4)
        assert config.l4.dice_threshold == 32
        assert config.name == "dice"
        assert runner_mod.named_config_digest("dice", job.scale, job.l4) != (
            runner_mod.named_config_digest("dice", job.scale)
        )


class TestBuildPlan:
    def test_shared_baseline_scheduled_once(self):
        plan = build_plan(["fig7", "fig10"], PARAMS)
        base_jobs = [j for j in plan.jobs if j.config_name == "base"]
        per_workload = {j.workload for j in base_jobs}
        assert len(base_jobs) == len(per_workload)  # one per workload, total
        # but both experiments still list their own full requirements
        assert any(j.config_name == "base" for j in plan.by_experiment["fig7"])
        assert any(j.config_name == "base" for j in plan.by_experiment["fig10"])

    def test_plan_is_deterministic(self):
        a = build_plan(list(EXPERIMENTS), PARAMS)
        b = build_plan(list(EXPERIMENTS), PARAMS)
        assert a.jobs == b.jobs
        assert list(a.by_experiment) == list(b.by_experiment)

    def test_plan_order_follows_declaration_order(self):
        plan = build_plan(["fig10"], PARAMS)
        first = plan.jobs[0]
        declared = EXPERIMENTS["fig10"][1].plan(PARAMS)[0]
        assert (first.workload, first.config_name) == declared[:2]

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            plan_experiment("fig99", PARAMS)

    def test_fig4_plans_empty(self):
        assert plan_experiment("fig4", PARAMS) == []

    def test_describe_reports_dedupe(self):
        plan = build_plan(["fig7", "fig10"], PARAMS)
        text = plan.describe()
        assert f"{plan.n_jobs} unique job(s)" in text
        assert "deduped" in text

    def test_all_jobs_are_jobs(self):
        plan = build_plan(["table4"], PARAMS)
        assert plan.n_jobs > 0
        assert all(isinstance(j, Job) for j in plan.jobs)
