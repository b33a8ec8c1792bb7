"""Paper-fidelity scoreboard: targets, claims, baseline, drift detection.

The reproduction's accuracy is machine-checked here, in four pieces:

* :data:`PAPER_TARGETS` — the paper's reported values per figure/table,
  in the same units the experiment drivers produce;
* :data:`SHAPE_CHECKS` — the paper's qualitative claims (orderings,
  bounds, "never degrades a workload"), the one list of them, judged on
  each experiment's summary and table;
* :class:`FidelityScore` — one experiment's grade: per-summary-key
  magnitude deltas against the paper plus the outcome of every claim;
* a committed baseline (``FIDELITY_baseline.json``) recording every
  score at a pinned parameter context, written/read here, and
  :func:`detect_drift`, which flags any key whose delta-to-paper moved
  beyond a tolerance band *between runs*, any non-paper key whose
  measured value moved relatively, and any claim whose outcome flipped.

Drift is movement **relative to the committed baseline**, not distance
to the paper: a smoke-scale run can sit far from the paper's magnitudes
(the baseline records that honestly) while still catching the PR that
silently shifts a headline number.  Simulations are deterministic, so at
an unchanged parameter context any movement at all is a code-behavior
change.  A baseline written at different parameters refuses comparison
(:class:`BaselineContextMismatch`) instead of producing false drift.

Repetition campaigns upgrade the verdicts from point estimates to
statistics: :func:`collect_results_repeated` gathers one summary per
derived-seed repetition, and :func:`detect_drift` with ``distributions``
reports each movement as *mean Δ with a bootstrap 95% CI and a sign-flip
p-value* (see :mod:`repro.analysis.stats`).  A single-rep campaign passes
a one-point distribution, which collapses every interval to the point and
every p-value to 1.0 — bit-identical to the pre-statistics behavior.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import bootstrap_ci, sign_permutation_test

#: type alias: experiment -> summary key -> one value per repetition
Distributions = Dict[str, Dict[str, List[float]]]

#: type alias: an experiment's table as its driver returns it (headers, rows)
Table = Tuple[List[str], List[list]]

BASELINE_SCHEMA = 1

DEFAULT_TOLERANCE = 0.05
"""Allowed movement per key between baseline and current run.

For keys with a paper target this bounds the change of the *relative
delta to the paper* (e.g. baseline +2% vs paper, current +8% → movement
0.06 → flagged).  For keys without a target it bounds the relative
change of the measured value itself.
"""

TOLERANCE_OVERRIDES: Dict[str, float] = {
    # Fault-sweep summaries mix geomeans with raw event counts; counts of
    # rare events move in integer steps, so give them more headroom.
    "faults": 0.25,
}

PAPER_TARGETS: Dict[str, Dict[str, float]] = {
    # Fig 1(f) / Sec 2.4: potential from doubling DRAM-cache resources
    "fig1": {
        "2xcap/ALL26": 1.10,
        "2xcap2xbw/ALL26": 1.22,
    },
    # Fig 4: compressibility of installed lines (Sec 4.2)
    "fig4": {
        "double<=68": 52.0,  # "on average 52% of two adjacent lines ..."
    },
    # Fig 7: static schemes (Sec 4.4-4.6)
    "fig7": {
        "tsi/ALL26": 1.07,
        "bai/ALL26": 1.001,  # "similar to baseline (0.1% speedup)"
        "2xcap/ALL26": 1.10,
        "2xcap2xbw/ALL26": 1.22,
    },
    # Fig 10: the headline result (Sec 5.4)
    "fig10": {
        "tsi/ALL26": 1.07,
        "bai/ALL26": 1.001,
        "dice/ALL26": 1.19,
        "2xcap2xbw/ALL26": 1.219,
    },
    # Fig 11: index distribution (Sec 6.1): of the decided half, 52/48
    "fig11": {
        "decided/tsi_share": 52.0,
        "decided/bai_share": 48.0,
    },
    # Fig 12: KNL variant (Sec 6.6)
    "fig12": {
        "dice-knl/ALL26": 1.175,
        "dice/ALL26": 1.19,
    },
    # Fig 13: non-memory-intensive workloads (Sec 6.7)
    "fig13": {
        "gmean": 1.02,
    },
    # Fig 14: energy (Sec 6.9)
    "fig14": {
        "dice/energy": 0.76,
        "dice/edp": 0.64,
    },
    # Fig 15: SCC comparison (Sec 7.3)
    "fig15": {
        "scc/ALL26": 0.78,
        "dice/ALL26": 1.19,
    },
    # Table 4: threshold sensitivity (Sec 6.2)
    "table4": {
        "dice-t32/ALL26": 1.175,
        "dice/ALL26": 1.190,
        "dice-t40/ALL26": 1.183,
        "dice-t32/SPEC RATE": 1.106,
        "dice/SPEC RATE": 1.122,
        "dice-t40/SPEC RATE": 1.111,
        "dice-t32/GAP": 1.476,
        "dice/GAP": 1.489,
        "dice-t40/GAP": 1.491,
    },
    # Table 5: effective capacity (Sec 6.3)
    "table5": {
        "tsi/ALL26": 1.24,
        "bai/ALL26": 1.69,
        "dice/ALL26": 1.62,
        "tsi/GAP": 2.00,
        "bai/GAP": 5.57,
        "dice/GAP": 5.06,
        "tsi/SPEC RATE": 1.07,
        "bai/SPEC RATE": 1.16,
        "dice/SPEC RATE": 1.13,
    },
    # Table 6: L3 hit rate (Sec 6.4)
    "table6": {
        "base/AVG26": 37.0,
        "dice/AVG26": 43.6,
    },
    # Table 7: prefetch comparison (Sec 6.5)
    "table7": {
        "base-wide128/ALL26": 1.019,
        "base-nextline/ALL26": 1.016,
        "dice/ALL26": 1.190,
        "dice-nextline/ALL26": 1.209,
    },
    # Table 8: design-point sensitivity (Sec 6.8)
    "table8": {
        "base(1GB)/ALL26": 1.190,
        "2x Capacity/ALL26": 1.132,
        "2x BW/ALL26": 1.245,
        "50% Latency/ALL26": 1.244,
    },
    # Sec 5.3: CIP accuracy
    "cip": {
        "dice-ltt512": 93.2,
        "dice": 93.8,
        "dice-ltt8192": 94.1,
        "write": 95.0,
    },
}


def paper_value(experiment: str, key: str) -> Optional[float]:
    """The paper's reported value for one summary entry, if stated."""
    return PAPER_TARGETS.get(experiment, {}).get(key)


# ---------------------------------------------------------------------------
# shape assertions: the paper's claims
#
# Each check is a data tuple over operands of one experiment's results:
#   ("gt", a, b[, m])       a >  b + m   (margin m, default 0)
#   ("ge", a, b[, m])       a >= b + m
#   ("gt_const", a, c)      a >  c
#   ("lt_const", a, c)      a <  c
#   ("between", a, lo, hi)  lo <= a <= hi
#   ("retains", a, b, f)    a - 1 > f * (b - 1): a keeps share f of b's gain
#
# An operand names a summary key ("dice/ALL26"), a table cell
# ("libq[bai]": column "bai" of the row whose first cell is "libq"), or a
# column in every row ("*[dice]": the claim must hold in each row).
#
# Shapes are the paper's qualitative claims (DICE beats the static
# schemes, BAI recovers more capacity than TSI, …).  A claim may fail at
# smoke access counts — the baseline records the outcome, drift detection
# flags only a *flip*, and ``report --flight`` prints every failure.

_COMPRESSIBLE = ("soplex", "gcc", "astar")
_INCOMPRESSIBLE = ("lbm", "libq", "Gems")

SHAPE_CHECKS: Dict[str, Tuple[tuple, ...]] = {
    "fig1": (
        ("gt", "2xcap2xbw/ALL26", "2xcap/ALL26"),
        ("gt_const", "2xcap/ALL26", 1.0),
        ("gt_const", "2xcap2xbw/ALL26", 1.0),
    ),
    "fig4": (
        ("ge", "single<=36", "single<=32"),
        ("between", "double<=68", 0.0, 100.0),
        ("between", "double<=68", 25.0, 80.0),
        ("ge", "*[single<=36]", "*[single<=32]"),
        # the compressible standouts' pairs fit one TAD more often
        *(
            ("gt", f"{c}[double<=68]", f"{i}[double<=68]")
            for c in _COMPRESSIBLE
            for i in _INCOMPRESSIBLE
        ),
    ),
    "fig7": (
        ("gt", "2xcap2xbw/ALL26", "2xcap/ALL26"),
        ("gt_const", "tsi/ALL26", 0.9),
        ("gt_const", "*[tsi]", 0.95),
        # BAI thrashes incompressible streams, wins on compressible ones
        ("lt_const", "libq[bai]", 0.9),
        ("lt_const", "lbm[bai]", 1.0),
        ("gt_const", "soplex[bai]", 1.05),
        ("gt_const", "zeusmp[bai]", 1.05),
        ("gt", "2xcap2xbw/ALL26", "bai/ALL26"),
    ),
    "fig10": (
        ("gt", "dice/ALL26", "tsi/ALL26"),
        ("gt", "dice/ALL26", "bai/ALL26"),
        ("gt_const", "dice/ALL26", 1.0),
        ("gt_const", "dice/ALL26", 1.05),
        ("gt_const", "*[dice]", 0.97),  # DICE never degrades a workload
        ("gt", "dice/GAP", "dice/SPEC RATE"),
    ),
    "fig11": (
        ("between", "decided/tsi_share", 0.0, 100.0),
        ("between", "decided/bai_share", 15.0, 85.0),
        ("between", "*[invariant%]", 30.0, 70.0),
        ("gt", "libq[tsi%]", "libq[bai%]"),
        ("gt", "soplex[bai%]", "soplex[tsi%]"),
    ),
    "fig12": (
        ("ge", "dice/ALL26", "dice-knl/ALL26"),
        ("gt_const", "dice-knl/ALL26", 1.0),
        ("retains", "dice-knl/ALL26", "dice/ALL26", 0.5),
    ),
    "fig13": (
        ("between", "gmean", 0.99, 1.2),
        ("gt_const", "*[dice]", 0.97),
    ),
    "fig14": (
        ("lt_const", "dice/energy", 1.0),
        ("lt_const", "dice/edp", 1.0),
        ("gt", "dice/energy", "dice/edp"),
        ("gt", "tsi/edp", "dice/edp"),
        ("gt", "bai/edp", "dice/edp"),
    ),
    "fig15": (
        ("gt", "dice/ALL26", "scc/ALL26"),
        ("gt", "dice/ALL26", "scc/ALL26", 0.15),
        ("lt_const", "scc/ALL26", 1.0),
        ("gt_const", "dice/ALL26", 1.05),
    ),
    "table4": (
        ("gt_const", "dice/ALL26", 1.0),
        ("gt_const", "dice-t32/ALL26", 1.0),
        ("gt_const", "dice-t40/ALL26", 1.0),
        ("ge", "dice/ALL26", "dice-t32/ALL26", -0.01),
        ("ge", "dice/ALL26", "dice-t40/ALL26", -0.01),
    ),
    "table5": (
        ("gt", "bai/ALL26", "tsi/ALL26"),
        ("gt_const", "dice/ALL26", 1.0),
        ("gt_const", "tsi/ALL26", 1.0),
        ("gt", "dice/GAP", "dice/SPEC RATE"),
        ("gt_const", "dice/GAP", 1.5),
        ("gt", "dice/GAP", "tsi/GAP", -0.1),
    ),
    "table6": (
        ("gt", "dice/AVG26", "base/AVG26"),
        ("gt", "*[dice]", "*[base]", -3.0),
    ),
    "table7": (
        ("ge", "dice-nextline/ALL26", "dice/ALL26"),
        ("lt_const", "base-wide128/ALL26", 1.12),
        ("lt_const", "base-nextline/ALL26", 1.12),
        ("gt", "dice/ALL26", "base-wide128/ALL26"),
        ("gt", "dice/ALL26", "base-nextline/ALL26"),
    ),
    "table8": (
        ("gt_const", "base(1GB)/ALL26", 1.0),
        ("gt_const", "2x Capacity/ALL26", 1.0),
        ("gt_const", "2x BW/ALL26", 1.0),
        ("gt_const", "50% Latency/ALL26", 1.0),
        ("gt", "base(1GB)/ALL26", "2x Capacity/ALL26", -0.02),
    ),
    "cip": (
        ("between", "dice", 0.0, 100.0),
        ("gt_const", "dice", 75.0),
        ("ge", "dice-ltt8192", "dice-ltt512", -2.0),
    ),
    "faults": (("gt_const", "dice/retained@maxrate", 0.5),),
    "ablations": (
        # index prediction: the LTT sits between no predictor and an oracle
        ("ge", "dice-cip-oracle/ALL26", "dice/ALL26", -0.02),
        ("ge", "dice/ALL26", "dice-cip-none/ALL26", -0.02),
        ("ge", "dice/ALL26", "dice-noshare/ALL26", -0.02),
        # static pair co-location: NSI and BAI land within 0.15
        ("gt", "nsi/ALL26", "bai/ALL26", -0.15),
        ("gt", "bai/ALL26", "nsi/ALL26", -0.15),
        # set victim policy: both profitable, within 0.15 of each other
        ("gt_const", "dice/ALL26", 1.0),
        ("gt_const", "dice-evict-largest/ALL26", 1.0),
        ("gt", "dice/ALL26", "dice-evict-largest/ALL26", -0.15),
        ("gt", "dice-evict-largest/ALL26", "dice/ALL26", -0.15),
        # LCP's exception path hurts where DICE falls back to TSI
        ("gt", "libq[dice]", "libq[lcp]"),
        ("gt", "lbm[dice]", "lbm[lcp]"),
        ("gt", "dice/ALL26", "lcp/ALL26"),
    ),
}

# op -> (number of operands, predicate over operand values then constants)
_SHAPE_OPS = {
    "gt": (2, lambda a, b, margin=0.0: a > b + margin),
    "ge": (2, lambda a, b, margin=0.0: a >= b + margin),
    "gt_const": (1, lambda a, c: a > c),
    "lt_const": (1, lambda a, c: a < c),
    "between": (1, lambda a, lo, hi: lo <= a <= hi),
    "retains": (2, lambda a, b, share: a - 1 > share * (b - 1)),
}


def shape_label(check: tuple) -> str:
    """Stable human/JSON identity of one shape check."""
    op = check[0]
    if op in ("gt", "ge"):
        symbol = ">" if op == "gt" else ">="
        label = f"{check[1]} {symbol} {check[2]}"
        if len(check) > 3:
            margin = check[3]
            label += f" {'-' if margin < 0 else '+'} {abs(margin):g}"
        return label
    if op == "gt_const":
        return f"{check[1]} > {check[2]:g}"
    if op == "lt_const":
        return f"{check[1]} < {check[2]:g}"
    if op == "between":
        return f"{check[2]:g} <= {check[1]} <= {check[3]:g}"
    if op == "retains":
        return f"{check[1]} - 1 > {check[3]:g} * ({check[2]} - 1)"
    raise ValueError(f"unknown shape op {op!r}")


def _operand(name: str, summary: Dict[str, float], table: Optional[Table]):
    """A summary key's or table cell's value, or ``{row: value}`` for a
    ``*[column]`` operand; KeyError/ValueError/TypeError when absent."""
    if not name.endswith("]"):
        return summary[name]
    row, column = name[:-1].split("[", 1)
    headers, rows = table
    index = headers.index(column)
    cells = {str(r[0]): float(r[index]) for r in rows}
    if row != "*":
        return cells[row]
    if not cells:
        raise KeyError(name)  # no rows: the claim has nothing to hold on
    return cells


def _evaluate_shape(
    check: tuple, summary: Dict[str, float], table: Optional[Table] = None
) -> bool:
    op = check[0]
    if op not in _SHAPE_OPS:
        raise ValueError(f"unknown shape op {op!r}")
    arity, predicate = _SHAPE_OPS[op]
    constants = check[1 + arity:]
    try:
        values = [_operand(name, summary, table) for name in check[1:1 + arity]]
        rows = next((v for v in values if isinstance(v, dict)), None)
        if rows is None:
            return predicate(*values, *constants)
        return all(
            predicate(
                *(v[row] if isinstance(v, dict) else v for v in values),
                *constants,
            )
            for row in rows
        )
    except (KeyError, ValueError, TypeError):
        # a summary key, row or column that disappeared (or no table at
        # all): that *is* a shape failure
        return False


def evaluate_shapes(
    experiment: str,
    summary: Dict[str, float],
    table: Optional[Table] = None,
) -> Dict[str, bool]:
    """label -> pass for every shape check declared for the experiment;
    ``table`` is the experiment's ``(headers, rows)``, for cell operands."""
    return {
        shape_label(check): _evaluate_shape(check, summary, table)
        for check in SHAPE_CHECKS.get(experiment, ())
    }


# ---------------------------------------------------------------------------
# scoring


@dataclass
class KeyScore:
    """One summary key's magnitude, paper target, and relative delta."""

    key: str
    measured: float
    paper: Optional[float] = None

    @property
    def delta_to_paper(self) -> Optional[float]:
        """Relative distance to the paper: (measured - paper) / paper."""
        if self.paper is None or self.paper == 0:
            return None
        return (self.measured - self.paper) / self.paper

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"measured": self.measured}
        if self.paper is not None:
            out["paper"] = self.paper
            out["delta_to_paper"] = round(self.delta_to_paper, 6)
        return out


@dataclass
class FidelityScore:
    """One experiment's grade: keyed magnitudes plus shape outcomes."""

    experiment: str
    keys: List[KeyScore] = field(default_factory=list)
    shapes: Dict[str, bool] = field(default_factory=dict)

    @classmethod
    def from_summary(
        cls,
        experiment: str,
        summary: Dict[str, float],
        table: Optional[Table] = None,
    ) -> "FidelityScore":
        keys = [
            KeyScore(key, float(value), paper_value(experiment, key))
            for key, value in summary.items()
        ]
        shapes = evaluate_shapes(experiment, summary, table)
        return cls(experiment, keys, shapes)

    @property
    def shapes_passed(self) -> int:
        return sum(self.shapes.values())

    @property
    def worst_delta(self) -> Optional[float]:
        """Largest |relative delta to paper| across graded keys."""
        deltas = [
            abs(ks.delta_to_paper)
            for ks in self.keys
            if ks.delta_to_paper is not None
        ]
        return max(deltas) if deltas else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "keys": {ks.key: ks.to_dict() for ks in self.keys},
            "shapes": dict(self.shapes),
        }


def collect_results(
    params=None, experiments: Optional[Sequence[str]] = None
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, Table]]:
    """Run the experiment drivers: each experiment's summary, and its
    ``(headers, rows)`` table from the same driver call.  Deterministic
    simulations come from the result cache, so a freshly-run campaign
    makes this nearly instant."""
    from repro.harness import experiments as exp_mod

    keys = list(experiments) if experiments else list(exp_mod.EXPERIMENTS)
    summaries: Dict[str, Dict[str, float]] = {}
    tables: Dict[str, Table] = {}
    for key in keys:
        _title, fn = exp_mod.EXPERIMENTS[key]
        if fn is None:  # fig4 is sim-free and takes no params
            headers, rows, summary = exp_mod.fig04_compressibility()
        else:
            headers, rows, summary = fn(params)
        summaries[key] = {k: float(v) for k, v in summary.items()}
        tables[key] = (headers, rows)
    return summaries, tables


def collect_results_repeated(
    params,
    experiments: Optional[Sequence[str]] = None,
    repetitions: int = 1,
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, Table], Distributions]:
    """Per-rep summaries: (rep-0 summaries, rep-0 tables, full per-key
    distributions).

    Repetition ``r`` re-runs every driver at the derived seed
    ``derive_rep_seed(params.seed, r)`` — rep 0 is ``params`` unchanged,
    so the first two elements are exactly what :func:`collect_results`
    would have returned and the scoreboard/baseline context stay pinned to
    the campaign's base seed.  Results come from the result cache, so a
    campaign prefetched with the same ``--repetitions`` makes this cheap.
    """
    import dataclasses

    from repro.exec.job import derive_rep_seed

    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    distributions: Distributions = {}
    first: Dict[str, Dict[str, float]] = {}
    first_tables: Dict[str, Table] = {}
    for rep in range(repetitions):
        rep_params = (
            params
            if rep == 0
            else dataclasses.replace(
                params, seed=derive_rep_seed(params.seed, rep)
            )
        )
        summaries, tables = collect_results(rep_params, experiments)
        if rep == 0:
            first, first_tables = summaries, tables
        for experiment, summary in summaries.items():
            per_key = distributions.setdefault(experiment, {})
            for key, value in summary.items():
                per_key.setdefault(key, []).append(float(value))
    return first, first_tables, distributions


@dataclass
class KeyStats:
    """Statistical movement of one summary key across repetitions.

    ``mean``/``ci_low``/``ci_high`` are in *movement space*: delta-to-paper
    units when the key has a paper target (matching the drift detector's
    ``delta-to-paper`` kind), else baseline-relative measured movement.
    ``p_value`` is the sign-flip test against "no movement vs baseline";
    None when there is no baseline entry or only one repetition.
    """

    experiment: str
    key: str
    mean: float
    ci_low: float
    ci_high: float
    p_value: Optional[float]
    n: int

    def describe(self) -> str:
        stat = (
            f"Δ {self.mean:+.4f} "
            f"[{self.ci_low:+.4f}, {self.ci_high:+.4f}] 95% CI"
        )
        if self.p_value is not None:
            stat += f", p={self.p_value:.4f}"
        return f"{stat} (n={self.n})"

    def to_dict(self) -> Dict[str, object]:
        return {
            "mean": round(self.mean, 6),
            "ci_low": round(self.ci_low, 6),
            "ci_high": round(self.ci_high, 6),
            "p_value": (
                None if self.p_value is None else round(self.p_value, 6)
            ),
            "n": self.n,
        }


def _movement_values(
    experiment: str, key: str, values: Sequence[float]
) -> Tuple[List[float], float]:
    """Map raw per-rep values into movement space: (values', reference).

    Keys with a paper target move in delta-to-paper units; others in
    raw measured units (the caller normalizes the reference scale).
    """
    paper = paper_value(experiment, key)
    if paper:
        return [(v - paper) / paper for v in values], paper
    return list(values), 0.0


def compute_key_stats(
    distributions: Distributions,
    baseline: Optional[Dict[str, object]] = None,
    confidence: float = 0.95,
) -> Dict[str, Dict[str, KeyStats]]:
    """Per-(experiment, key) movement statistics from rep distributions.

    With a baseline, each key's statistics describe its movement away
    from the recorded baseline point (CI of the mean movement plus a
    sign-flip p-value); without one, they describe the distribution
    itself around zero movement (p-value None).
    """
    recorded = (baseline or {}).get("experiments", {})
    out: Dict[str, Dict[str, KeyStats]] = {}
    for experiment, per_key in sorted(distributions.items()):
        base_keys = {}
        base_exp = recorded.get(experiment)
        if isinstance(base_exp, dict):
            base_keys = base_exp.get("keys", {})
        for key, values in per_key.items():
            if not values:
                continue
            moved, paper = _movement_values(experiment, key, values)
            base_entry = base_keys.get(key)
            reference: Optional[float] = None
            if isinstance(base_entry, dict):
                if paper and "delta_to_paper" in base_entry:
                    reference = float(base_entry["delta_to_paper"])
                elif not paper and "measured" in base_entry:
                    reference = float(base_entry["measured"])
            if reference is None:
                deltas = list(moved)
                ci = bootstrap_ci(deltas, confidence=confidence)
                test = None
            else:
                if not paper:
                    scale = max(abs(reference), 1.0)
                    deltas = [(v - reference) / scale for v in moved]
                else:
                    deltas = [v - reference for v in moved]
                ci = bootstrap_ci(deltas, confidence=confidence)
                test = (
                    sign_permutation_test(deltas)
                    if len(deltas) > 1
                    else None
                )
            out.setdefault(experiment, {})[key] = KeyStats(
                experiment=experiment,
                key=key,
                mean=ci.mean,
                ci_low=ci.low,
                ci_high=ci.high,
                p_value=None if test is None else test.p_value,
                n=len(values),
            )
    return out


def build_scoreboard(
    summaries: Dict[str, Dict[str, float]],
    tables: Optional[Dict[str, Table]] = None,
) -> Dict[str, FidelityScore]:
    """One score per experiment; ``tables`` (as :func:`collect_results`
    returns them) lets claims on table cells be judged."""
    tables = tables or {}
    return {
        experiment: FidelityScore.from_summary(
            experiment, summary, tables.get(experiment)
        )
        for experiment, summary in summaries.items()
    }


# ---------------------------------------------------------------------------
# baseline persistence


class BaselineContextMismatch(ValueError):
    """The baseline was recorded at different simulation parameters."""


def baseline_payload(
    scoreboard: Dict[str, FidelityScore],
    context: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, object]:
    return {
        "schema": BASELINE_SCHEMA,
        "context": dict(context),
        "tolerance": tolerance,
        "experiments": {
            experiment: score.to_dict()
            for experiment, score in sorted(scoreboard.items())
        },
    }


def write_baseline(
    path,
    scoreboard: Dict[str, FidelityScore],
    context: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Path:
    path = Path(path)
    payload = baseline_payload(scoreboard, context, tolerance)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def load_baseline(path) -> Dict[str, object]:
    """Load a fidelity baseline; raises ``ValueError`` on a non-baseline."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(payload, dict) or "experiments" not in payload:
        raise ValueError(f"{path}: not a fidelity baseline")
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: baseline schema {payload.get('schema')!r}, "
            f"expected {BASELINE_SCHEMA}"
        )
    return payload


def params_context(params) -> Dict[str, object]:
    """The parameter context a baseline is pinned to."""
    from repro.harness.runner import DEFAULT_SCALE

    return {
        "accesses": params.accesses_per_core,
        "seed": params.seed,
        "scale": DEFAULT_SCALE,
        "warmup_fraction": params.warmup_fraction,
    }


def check_context(
    baseline: Dict[str, object], context: Dict[str, object]
) -> None:
    """Refuse cross-context comparison (it would produce false drift)."""
    recorded = baseline.get("context", {})
    if recorded != dict(context):
        raise BaselineContextMismatch(
            f"baseline recorded at {recorded!r}, current run is "
            f"{dict(context)!r}; regenerate the baseline at matching "
            f"parameters instead of comparing across contexts"
        )


# ---------------------------------------------------------------------------
# drift detection


@dataclass
class DriftFlag:
    """One out-of-band movement between baseline and current run."""

    experiment: str
    key: str
    kind: str  # "delta-to-paper" | "measured" | "shape" | "missing-baseline"
    baseline: Optional[float]
    current: Optional[float]
    movement: float
    tolerance: float
    # Repetition statistics, attached only when the campaign carried
    # distributions with >1 rep for this key — None keeps the single-rep
    # flag (and its describe() text) exactly what it always was.
    stats: Optional[KeyStats] = None

    def describe(self) -> str:
        if self.kind == "shape":
            return (
                f"{self.experiment}: shape '{self.key}' flipped "
                f"{'pass->FAIL' if self.baseline else 'fail->pass'}"
            )
        if self.kind == "missing-baseline":
            return (
                f"{self.experiment}/{self.key}: no baseline entry "
                f"(regenerate FIDELITY_baseline.json)"
            )
        text = (
            f"{self.experiment}/{self.key} [{self.kind}]: "
            f"baseline {self.baseline:+.4f} -> current {self.current:+.4f} "
            f"(moved {self.movement:.4f} > tol {self.tolerance:g})"
        )
        if self.stats is not None:
            text += (
                f" | mean Δ {self.stats.mean:+.4f} "
                f"[{self.stats.ci_low:+.4f}, {self.stats.ci_high:+.4f}]"
            )
            if self.stats.p_value is not None:
                text += f", p={self.stats.p_value:.4f}"
            text += f", n={self.stats.n}"
        return text


def _experiment_tolerance(
    experiment: str, default: float
) -> float:
    return TOLERANCE_OVERRIDES.get(experiment, default)


def detect_drift(
    scoreboard: Dict[str, FidelityScore],
    baseline: Dict[str, object],
    tolerance: Optional[float] = None,
    context: Optional[Dict[str, object]] = None,
    distributions: Optional[Distributions] = None,
) -> List[DriftFlag]:
    """Every movement beyond the tolerance band vs the baseline.

    ``context``, when given, must match the baseline's recorded context
    (raises :class:`BaselineContextMismatch` otherwise).  Per-experiment
    :data:`TOLERANCE_OVERRIDES` apply on top of the effective default
    (explicit ``tolerance`` argument, else the baseline's recorded
    tolerance, else :data:`DEFAULT_TOLERANCE`).

    ``distributions`` (from :func:`collect_results_repeated`) upgrades
    the verdict for every key with more than one repetition: movement is
    the **mean** per-rep movement, and the flag carries a bootstrap CI
    plus a sign-flip p-value (:class:`KeyStats`).  Keys with a one-point
    distribution — or no distribution at all — keep today's point
    semantics exactly.
    """
    if context is not None:
        check_context(baseline, context)
    default = (
        tolerance
        if tolerance is not None
        else float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    )
    all_stats: Dict[str, Dict[str, KeyStats]] = {}
    if distributions:
        multi = {
            experiment: {
                key: values
                for key, values in per_key.items()
                if len(values) > 1
            }
            for experiment, per_key in distributions.items()
        }
        multi = {exp: per_key for exp, per_key in multi.items() if per_key}
        if multi:
            all_stats = compute_key_stats(multi, baseline)
    recorded = baseline.get("experiments", {})
    flags: List[DriftFlag] = []
    for experiment, score in sorted(scoreboard.items()):
        tol = _experiment_tolerance(experiment, default)
        base_exp = recorded.get(experiment)
        if not isinstance(base_exp, dict):
            flags.append(
                DriftFlag(experiment, "*", "missing-baseline", None, None,
                          float("inf"), tol)
            )
            continue
        base_keys = base_exp.get("keys", {})
        exp_stats = all_stats.get(experiment, {})
        for ks in score.keys:
            base_entry = base_keys.get(ks.key)
            stats = exp_stats.get(ks.key)
            if not isinstance(base_entry, dict):
                flags.append(
                    DriftFlag(experiment, ks.key, "missing-baseline",
                              None, ks.measured, float("inf"), tol)
                )
                continue
            if ks.delta_to_paper is not None and "delta_to_paper" in base_entry:
                base_delta = float(base_entry["delta_to_paper"])
                if stats is not None:
                    # mean per-rep delta-to-paper = baseline + mean movement
                    current = base_delta + stats.mean
                    movement = abs(stats.mean)
                else:
                    current = ks.delta_to_paper
                    movement = abs(ks.delta_to_paper - base_delta)
                if movement > tol:
                    flags.append(
                        DriftFlag(experiment, ks.key, "delta-to-paper",
                                  base_delta, current, movement, tol,
                                  stats=stats)
                    )
            else:
                base_measured = float(base_entry.get("measured", 0.0))
                if stats is not None:
                    movement = abs(stats.mean)
                    scale = max(abs(base_measured), 1.0)
                    current = base_measured + stats.mean * scale
                else:
                    current = ks.measured
                    movement = abs(ks.measured - base_measured) / max(
                        abs(base_measured), 1.0
                    )
                if movement > tol:
                    flags.append(
                        DriftFlag(experiment, ks.key, "measured",
                                  base_measured, current, movement, tol,
                                  stats=stats)
                    )
        base_shapes = base_exp.get("shapes", {})
        for label, passed in score.shapes.items():
            recorded_pass = base_shapes.get(label)
            if recorded_pass is not None and bool(recorded_pass) != passed:
                flags.append(
                    DriftFlag(experiment, label, "shape",
                              float(bool(recorded_pass)), float(passed),
                              1.0, tol)
                )
    return flags


# ---------------------------------------------------------------------------
# rendering (shared by the CLI scoreboard and the flight report)


def format_scoreboard(
    scoreboard: Dict[str, FidelityScore],
    flags: Optional[List[DriftFlag]] = None,
) -> str:
    """Human table: one row per graded key, one per shape check."""
    flagged = {
        (flag.experiment, flag.key) for flag in (flags or [])
    }
    lines = [
        f"{'experiment':10s} {'key':26s} {'measured':>10s} "
        f"{'paper':>8s} {'delta':>8s}  status"
    ]
    for experiment, score in sorted(scoreboard.items()):
        for ks in score.keys:
            delta = ks.delta_to_paper
            status = "DRIFT" if (experiment, ks.key) in flagged else "ok"
            lines.append(
                f"{experiment:10s} {ks.key:26s} {ks.measured:10.3f} "
                + (f"{ks.paper:8.3f} {delta:+8.1%}" if delta is not None
                   else f"{'-':>8s} {'-':>8s}")
                + f"  {status}"
            )
        for label, passed in score.shapes.items():
            status = "DRIFT" if (experiment, label) in flagged else (
                "pass" if passed else "fail(recorded)"
            )
            lines.append(
                f"{experiment:10s} shape: {label:48s} {status}"
            )
    return "\n".join(lines)
