"""One driver per paper figure/table (see DESIGN.md experiment index).

Every driver returns ``(headers, rows, summary)`` where rows are per-workload
results and ``summary`` aggregates over the paper's reporting groups.  The
CLI prints these with :func:`repro.harness.report.format_table`, producing
the same rows/series the paper reports, and :mod:`repro.obs.fidelity`
judges the paper's claims on them.

Each driver also carries a ``.plan(params)`` attribute declaring the
``(workload, config, params)`` simulations it will request from the result
cache.  The parallel execution engine (:mod:`repro.exec`) expands these
declarations into a deduped job list and fans the simulations out across
worker processes *before* the driver runs, so the driver itself — whose
serial loop renders the tables — executes entirely from cache.
``tests/test_exec_planner.py`` asserts plan and driver stay in lock-step.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compression.hybrid import HybridCompressor
from repro.compression.pair import pair_compressed_size
from repro.harness.report import geomean, group_geomeans
from repro.harness.runner import DEFAULT_SCALE, cached_run, speedup
from repro.sim.engine import SimulationParams
from repro.workloads.registry import (
    GAP_WORKLOADS,
    MIX_WORKLOADS,
    NON_INTENSIVE,
    SPEC_RATE,
    get_profile,
    workload_names,
)
from repro.workloads.base import TraceGenerator

Rows = List[List[object]]
Summary = Dict[str, float]

GROUPS = {
    "SPEC RATE": SPEC_RATE,
    "SPEC MIX": MIX_WORKLOADS,
    "GAP": GAP_WORKLOADS,
    "ALL26": SPEC_RATE + MIX_WORKLOADS + GAP_WORKLOADS,
}


def _speedup_plan(
    configs: Sequence[str],
    workloads: Optional[Sequence[str]] = None,
    baseline: str = "base",
) -> Callable[[Optional[SimulationParams]], List[Tuple[str, str, object]]]:
    """Plan declaration matching :func:`_speedup_experiment`'s cache use."""

    def plan(params: Optional[SimulationParams] = None):
        wls = list(workloads or workload_names("all26"))
        cfgs = list(configs)
        if baseline not in cfgs:
            cfgs.append(baseline)
        return [(wl, cfg, params) for wl in wls for cfg in cfgs]

    return plan


def _configs_plan(
    configs: Sequence[str], workloads: Optional[Sequence[str]] = None
) -> Callable[[Optional[SimulationParams]], List[Tuple[str, str, object]]]:
    """Plan for drivers that read ``configs`` directly (no baseline)."""

    def plan(params: Optional[SimulationParams] = None):
        wls = list(workloads or workload_names("all26"))
        return [(wl, cfg, params) for wl in wls for cfg in configs]

    return plan


def _speedup_experiment(
    configs: Sequence[str],
    workloads: Optional[Sequence[str]] = None,
    baseline: str = "base",
    params: Optional[SimulationParams] = None,
) -> Tuple[List[str], Rows, Summary]:
    """Shared shape of most figures: per-workload speedup per config."""
    workloads = list(workloads or workload_names("all26"))
    headers = ["workload"] + list(configs)
    rows: Rows = []
    per_config: Dict[str, Dict[str, float]] = {c: {} for c in configs}
    for wl in workloads:
        row: List[object] = [wl]
        for cfg in configs:
            s = speedup(wl, cfg, baseline, params=params)
            per_config[cfg][wl] = s
            row.append(s)
        rows.append(row)
    summary: Summary = {}
    for cfg in configs:
        means = group_geomeans(per_config[cfg], GROUPS)
        for group, value in means.items():
            summary[f"{cfg}/{group}"] = value
    return headers, rows, summary


# -- Figure 1(f) / Sec 2.4: potential from doubling capacity / bandwidth -----

def fig01_potential(params: Optional[SimulationParams] = None):
    """Speedup from 2x capacity, 2x bandwidth, and both (Fig 1f)."""
    return _speedup_experiment(["2xcap", "2xbw", "2xcap2xbw"], params=params)


fig01_potential.plan = _speedup_plan(["2xcap", "2xbw", "2xcap2xbw"])


# -- Figure 4: compressibility of installed lines ----------------------------

def fig04_compressibility(
    lines_per_workload: int = 2000,
) -> Tuple[List[str], Rows, Summary]:
    """% of lines <=32 B, <=36 B, and adjacent pairs <=68 B (Fig 4)."""
    compressor = HybridCompressor()
    headers = ["workload", "single<=32", "single<=36", "double<=68"]
    rows: Rows = []
    all26 = workload_names("all26")
    acc = {"single<=32": [], "single<=36": [], "double<=68": []}
    for wl in all26:
        if wl in MIX_WORKLOADS:
            continue  # Fig 4 plots the 22 single workloads
        gen = TraceGenerator(get_profile(wl), scale=DEFAULT_SCALE, seed=11)
        le32 = le36 = le68 = 0
        pairs = 0
        seen = 0
        it = iter(gen)
        while seen < lines_per_workload:
            access = next(it)
            base_addr = access.line_addr & ~1
            a = gen.line_data(base_addr)
            b = gen.line_data(base_addr + 1)
            for data in (a, b):
                size = compressor.compressed_size(data)
                le32 += size <= 32
                le36 += size <= 36
                seen += 1
            le68 += pair_compressed_size(compressor, a, b)[0] <= 68
            pairs += 1
        row = [wl, 100.0 * le32 / seen, 100.0 * le36 / seen, 100.0 * le68 / pairs]
        rows.append(row)
        acc["single<=32"].append(row[1])
        acc["single<=36"].append(row[2])
        acc["double<=68"].append(row[3])
    summary = {k: sum(v) / len(v) for k, v in acc.items()}
    return headers, rows, summary


# -- Figures 7 and 10: static schemes and DICE --------------------------------

def fig07_tsi_bai(params: Optional[SimulationParams] = None):
    """TSI and BAI vs doubling capacity/bandwidth (Fig 7)."""
    return _speedup_experiment(
        ["tsi", "bai", "2xcap", "2xcap2xbw"], params=params
    )


fig07_tsi_bai.plan = _speedup_plan(["tsi", "bai", "2xcap", "2xcap2xbw"])


def fig10_dice(params: Optional[SimulationParams] = None):
    """TSI, BAI, DICE vs the 2x-capacity 2x-bandwidth cache (Fig 10)."""
    return _speedup_experiment(
        ["tsi", "bai", "dice", "2xcap2xbw"], params=params
    )


fig10_dice.plan = _speedup_plan(["tsi", "bai", "dice", "2xcap2xbw"])


# -- Figure 11: distribution of indices under DICE ----------------------------

def fig11_index_distribution(params: Optional[SimulationParams] = None):
    """Install-time index selection: invariant / TSI / BAI shares."""
    headers = ["workload", "invariant%", "tsi%", "bai%"]
    rows: Rows = []
    tsi_shares: List[float] = []
    bai_shares: List[float] = []
    for wl in workload_names("all26"):
        r = cached_run(wl, "dice", params=params)
        inv, tsi, bai = r.index_distribution or (0.0, 0.0, 0.0)
        rows.append([wl, 100 * inv, 100 * tsi, 100 * bai])
        denom = tsi + bai
        if denom > 0:
            tsi_shares.append(tsi / denom)
            bai_shares.append(bai / denom)
    summary = {
        "decided/tsi_share": 100 * sum(tsi_shares) / max(1, len(tsi_shares)),
        "decided/bai_share": 100 * sum(bai_shares) / max(1, len(bai_shares)),
    }
    return headers, rows, summary


fig11_index_distribution.plan = _configs_plan(["dice"])


# -- Figure 12: DICE on Knights Landing ---------------------------------------

def fig12_knl(params: Optional[SimulationParams] = None):
    """DICE on a tags-in-ECC (no neighbor tag) cache."""
    return _speedup_experiment(["dice-knl", "dice"], params=params)


fig12_knl.plan = _speedup_plan(["dice-knl", "dice"])


# -- Figure 13: non-memory-intensive workloads ---------------------------------

def fig13_nonintensive(params: Optional[SimulationParams] = None):
    """DICE on the SPEC benchmarks with L3 MPKI < 2."""
    headers = ["workload", "dice"]
    rows: Rows = []
    values: Dict[str, float] = {}
    for wl in NON_INTENSIVE:
        s = speedup(wl, "dice", params=params)
        values[wl] = s
        rows.append([wl, s])
    return headers, rows, {"gmean": geomean(values.values())}


fig13_nonintensive.plan = _speedup_plan(["dice"], workloads=NON_INTENSIVE)


# -- Figure 14: energy ----------------------------------------------------------

def fig14_energy(params: Optional[SimulationParams] = None):
    """Power / performance / energy / EDP normalized to baseline (Fig 14)."""
    headers = ["config", "power", "performance", "energy", "edp"]
    rows: Rows = []
    summary: Summary = {}
    all26 = workload_names("all26")
    for cfg in ["tsi", "bai", "dice"]:
        power_r, perf_r, energy_r, edp_r = [], [], [], []
        for wl in all26:
            test = cached_run(wl, cfg, params=params)
            ref = cached_run(wl, "base", params=params)
            perf = test.weighted_speedup_over(ref)
            energy = test.energy_nj / ref.energy_nj
            delay = ref.ipc / test.ipc if test.ipc else float("inf")
            power_r.append(energy / delay)
            perf_r.append(perf)
            energy_r.append(energy)
            edp_r.append(energy * delay)
        row = [
            cfg,
            geomean(power_r),
            geomean(perf_r),
            geomean(energy_r),
            geomean(edp_r),
        ]
        rows.append(row)
        summary[f"{cfg}/energy"] = row[3]
        summary[f"{cfg}/edp"] = row[4]
    return headers, rows, summary


fig14_energy.plan = _configs_plan(["tsi", "bai", "dice", "base"])


# -- Figure 15: SCC on a DRAM cache ---------------------------------------------

def fig15_scc(params: Optional[SimulationParams] = None):
    """Skewed Compressed Cache vs DICE (Fig 15)."""
    return _speedup_experiment(["scc", "dice"], params=params)


fig15_scc.plan = _speedup_plan(["scc", "dice"])


# -- Table 4: insertion-threshold sensitivity ------------------------------------

def table4_threshold(params: Optional[SimulationParams] = None):
    """DICE speedup at thresholds 32 / 36 / 40 B."""
    headers, rows, summary = _speedup_experiment(
        ["dice-t32", "dice", "dice-t40"], params=params
    )
    headers = ["workload", "<=32B", "<=36B", "<=40B"]
    return headers, rows, summary


table4_threshold.plan = _speedup_plan(["dice-t32", "dice", "dice-t40"])


# -- Table 5: effective capacity --------------------------------------------------

def table5_capacity(params: Optional[SimulationParams] = None):
    """Average effective capacity of TSI / BAI / DICE."""
    headers = ["workload", "tsi", "bai", "dice"]
    rows: Rows = []
    per_cfg: Dict[str, Dict[str, float]] = {c: {} for c in ("tsi", "bai", "dice")}
    for wl in workload_names("all26"):
        base = cached_run(wl, "base", params=params)
        row: List[object] = [wl]
        for cfg in ("tsi", "bai", "dice"):
            r = cached_run(wl, cfg, params=params)
            # capacity relative to what the uncompressed cache achieves
            rel = r.effective_capacity / max(1e-9, base.effective_capacity)
            per_cfg[cfg][wl] = rel
            row.append(rel)
        rows.append(row)
    summary: Summary = {}
    for cfg, values in per_cfg.items():
        for group, mean in group_geomeans(values, GROUPS).items():
            summary[f"{cfg}/{group}"] = mean
    return headers, rows, summary


table5_capacity.plan = _configs_plan(["base", "tsi", "bai", "dice"])


# -- Table 6: L3 hit rate -----------------------------------------------------------

def table6_l3_hitrate(params: Optional[SimulationParams] = None):
    """L3 hit rate of baseline vs DICE."""
    headers = ["workload", "base", "dice"]
    rows: Rows = []
    base_rates, dice_rates = [], []
    for wl in workload_names("all26"):
        b = cached_run(wl, "base", params=params)
        d = cached_run(wl, "dice", params=params)
        rows.append([wl, 100 * b.l3_hit_rate, 100 * d.l3_hit_rate])
        base_rates.append(b.l3_hit_rate)
        dice_rates.append(d.l3_hit_rate)
    summary = {
        "base/AVG26": 100 * sum(base_rates) / len(base_rates),
        "dice/AVG26": 100 * sum(dice_rates) / len(dice_rates),
    }
    return headers, rows, summary


table6_l3_hitrate.plan = _configs_plan(["base", "dice"])


# -- Table 7: prefetch comparison -----------------------------------------------------

def table7_prefetch(params: Optional[SimulationParams] = None):
    """128 B fetch / next-line prefetch / DICE / DICE+next-line."""
    return _speedup_experiment(
        ["base-wide128", "base-nextline", "dice", "dice-nextline"],
        params=params,
    )


table7_prefetch.plan = _speedup_plan(
    ["base-wide128", "base-nextline", "dice", "dice-nextline"]
)


# -- Table 8: capacity / bandwidth / latency sensitivity -------------------------------

def table8_sensitivity(params: Optional[SimulationParams] = None):
    """DICE speedup over matching uncompressed designs at each design point."""
    pairs = [
        ("base(1GB)", "dice", "base"),
        ("2x Capacity", "dice-2xcap", "2xcap"),
        ("2x BW", "dice-2xbw", "2xbw"),
        ("50% Latency", "dice-halflat", "halflat"),
    ]
    headers = ["workload"] + [label for label, _, _ in pairs]
    rows: Rows = []
    per_label: Dict[str, Dict[str, float]] = {label: {} for label, _, _ in pairs}
    for wl in workload_names("all26"):
        row: List[object] = [wl]
        for label, cfg, ref in pairs:
            s = speedup(wl, cfg, ref, params=params)
            per_label[label][wl] = s
            row.append(s)
        rows.append(row)
    summary: Summary = {}
    for label, values in per_label.items():
        for group, mean in group_geomeans(values, GROUPS).items():
            summary[f"{label}/{group}"] = mean
    return headers, rows, summary


table8_sensitivity.plan = _configs_plan(
    ["dice", "base", "dice-2xcap", "2xcap", "dice-2xbw", "2xbw",
     "dice-halflat", "halflat"]
)


# -- Extension: fault injection and ECC-aware degradation -----------------------------

FAULT_RATES: Tuple[float, ...] = (0.0, 3e12, 3e13)
"""Injected-fault rates in faults per GB-hour.  Real DRAM FIT rates are
invisible over a microsecond simulation window, so the sweep uses
accelerated rates (see DESIGN.md, Fault model & resilience)."""

FAULT_WORKLOADS: Tuple[str, ...] = ("mcf", "gcc", "bc_twi")
"""One incompressible SPEC, one compressible SPEC, one GAP workload."""

FAULT_CONFIGS: Tuple[str, ...] = ("tsi", "bai", "dice")


def ext_faults(params: Optional[SimulationParams] = None):
    """Extension: speedup retention and ECC accounting under injected faults.

    Sweeps fault rate x {tsi, bai, dice}.  DICE pair-compresses two lines
    into one frame, so a fault there has twice the blast radius — the
    question is whether SECDED plus invalidate-and-refetch keeps the
    performance win intact anyway.
    """
    params = params or SimulationParams()
    headers = [
        "workload", "config", "rate", "speedup",
        "faults", "corrected", "refetch", "silent",
    ]
    rows: Rows = []
    retained: Dict[str, List[float]] = {c: [] for c in FAULT_CONFIGS}
    counters = {c: [0, 0, 0, 0] for c in FAULT_CONFIGS}
    for wl in FAULT_WORKLOADS:
        base = cached_run(wl, "base", params=params)
        for cfg in FAULT_CONFIGS:
            clean = None
            for rate in FAULT_RATES:
                p = dataclasses.replace(params, fault_rate=rate)
                r = cached_run(wl, cfg, params=p)
                s = r.weighted_speedup_over(base)
                if rate == 0.0:
                    clean = s
                rows.append([
                    wl, cfg, f"{rate:g}", s,
                    r.faults_injected, r.ecc_corrected,
                    r.ecc_detected_refetches, r.silent_corruptions,
                ])
                if rate == FAULT_RATES[-1]:
                    retained[cfg].append(s / clean)
                    totals = counters[cfg]
                    totals[0] += r.faults_injected
                    totals[1] += r.ecc_corrected
                    totals[2] += r.ecc_detected_refetches
                    totals[3] += r.silent_corruptions
    summary: Summary = {}
    for cfg in FAULT_CONFIGS:
        summary[f"{cfg}/retained@maxrate"] = geomean(retained[cfg])
        summary[f"{cfg}/faults"] = float(counters[cfg][0])
        summary[f"{cfg}/ecc_corrected"] = float(counters[cfg][1])
        summary[f"{cfg}/ecc_refetches"] = float(counters[cfg][2])
        summary[f"{cfg}/silent"] = float(counters[cfg][3])
    return headers, rows, summary


def _faults_plan(params: Optional[SimulationParams] = None):
    # Mirrors ext_faults exactly: it normalizes params itself (plain
    # SimulationParams(), not DEFAULT_ACCESSES) and sweeps fault_rate.
    params = params or SimulationParams()
    runs: List[Tuple[str, str, object]] = []
    for wl in FAULT_WORKLOADS:
        runs.append((wl, "base", params))
        for cfg in FAULT_CONFIGS:
            for rate in FAULT_RATES:
                runs.append(
                    (wl, cfg, dataclasses.replace(params, fault_rate=rate))
                )
    return runs


ext_faults.plan = _faults_plan


# -- Extension: ablations of DICE's mechanisms, and LCP-style compression --------------

ABLATION_CONFIGS: Tuple[str, ...] = (
    "dice", "dice-cip-none", "dice-cip-oracle", "dice-noshare",
    "dice-evict-largest", "bai", "nsi", "lcp",
)
"""DICE with index prediction off or perfect, tag sharing off and a
largest-first set victim; BAI beside the naive spatial index it refines
(Sec 4.5); and an LCP-style fixed-target design (Sec 2.2 / 7.2)."""


def ext_ablations(params: Optional[SimulationParams] = None):
    """Extension: speedup of each ablated design (DESIGN.md Sec 6)."""
    return _speedup_experiment(list(ABLATION_CONFIGS), params=params)


ext_ablations.plan = _speedup_plan(ABLATION_CONFIGS)


# -- Sec 5.3: CIP accuracy ------------------------------------------------------------

def sec53_cip_accuracy(params: Optional[SimulationParams] = None):
    """Read-CIP accuracy vs LTT size, plus write-path accuracy."""
    configs = ["dice-ltt512", "dice", "dice-ltt8192"]
    headers = ["workload", "ltt512", "ltt2048", "ltt8192", "write"]
    rows: Rows = []
    acc: Dict[str, List[float]] = {c: [] for c in configs}
    write_acc: List[float] = []
    for wl in workload_names("all26"):
        row: List[object] = [wl]
        for cfg in configs:
            r = cached_run(wl, cfg, params=params)
            value = 100 * (r.cip_accuracy or 0.0)
            acc[cfg].append(value)
            row.append(value)
        r = cached_run(wl, "dice", params=params)
        w = 100 * (r.cip_write_accuracy or 0.0)
        write_acc.append(w)
        row.append(w)
        rows.append(row)
    summary = {cfg: sum(v) / len(v) for cfg, v in acc.items()}
    summary["write"] = sum(write_acc) / len(write_acc)
    return headers, rows, summary


sec53_cip_accuracy.plan = _configs_plan(["dice-ltt512", "dice", "dice-ltt8192"])


# ---------------------------------------------------------------------------
# experiment registry (the CLI, planner, and report generator all read this)

EXPERIMENTS: Dict[str, Tuple[str, Optional[Callable]]] = {
    "fig1": ("Fig 1(f): potential from doubling cache resources", fig01_potential),
    "fig4": ("Fig 4: compressibility of installed lines", None),  # special-cased
    "fig7": ("Fig 7: TSI and BAI vs doubled caches", fig07_tsi_bai),
    "fig10": ("Fig 10: DICE headline speedups", fig10_dice),
    "fig11": ("Fig 11: DICE index distribution", fig11_index_distribution),
    "fig12": ("Fig 12: DICE on KNL", fig12_knl),
    "fig13": ("Fig 13: non-memory-intensive workloads", fig13_nonintensive),
    "fig14": ("Fig 14: energy and EDP", fig14_energy),
    "fig15": ("Fig 15: SCC vs DICE", fig15_scc),
    "table4": ("Table 4: threshold sensitivity", table4_threshold),
    "table5": ("Table 5: effective capacity", table5_capacity),
    "table6": ("Table 6: L3 hit rate", table6_l3_hitrate),
    "table7": ("Table 7: prefetch comparison", table7_prefetch),
    "table8": ("Table 8: design-point sensitivity", table8_sensitivity),
    "cip": ("Sec 5.3: CIP accuracy", sec53_cip_accuracy),
    "faults": ("Extension: resilience under injected DRAM faults", ext_faults),
    "ablations": ("Extension: ablations and LCP-style compression", ext_ablations),
}
