"""Named machine configurations, result caching, and speedup computation.

Every benchmark file regenerates its figure/table from `cached_run` results,
so a (workload, config) pair simulates once per process (and once per
machine if the disk cache is enabled) no matter how many figures use it —
the same economy the paper gets from deriving many plots from one set of
simulation campaigns.

A result is keyed by what was simulated (:func:`_key`): the workload, the
digest of the resolved configuration, every ``SimulationParams`` field and
the digest of the model source this process loaded.  Editing a config
factory or a model module therefore changes the key, and a cached result
is never served for code or configuration that did not produce it.

The disk cache is *sharded*: each entry lives in its own file under
``.sim_cache.d/`` (see :class:`repro.exec.cache.ShardedResultCache`), so
the parallel scheduler's N worker processes can read and write results
concurrently without clobbering each other.  A lookup checks memory, then
reads the one shard its key names.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.exec.cache import ShardedResultCache
from repro.obs.manifest import MODEL_DIGEST, config_digest
from repro.sim.engine import SimulationParams, run_workload
from repro.sim.metrics import SimResult

L4Overrides = Tuple[Tuple[str, object], ...]
"""Sorted ``(field, value)`` pairs that override a named config's
``DRAMCacheConfig`` (a design-space sweep point); ``()`` overrides none."""


def _env_int(name: str, default: int) -> int:
    """``name``'s value, else ``default``.  A value that is not an integer
    reads as 0: below 1, so a command that takes the default rejects it
    (``cli`` exits 2 naming the variable) and one that does not runs."""
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return 0


DEFAULT_SCALE = _env_int("REPRO_SCALE", 4096)
"""Capacity scale factor vs the paper machine (see DESIGN.md Sec 5)."""

DEFAULT_ACCESSES = _env_int("REPRO_ACCESSES", 6000)
"""L3 accesses simulated per core (raise for higher-fidelity runs)."""

_DISK_CACHE = os.environ.get("REPRO_DISK_CACHE", "1") != "0"
_CACHE_PATH = Path(
    os.environ.get("REPRO_CACHE_PATH", Path(__file__).resolve().parents[3] / ".sim_cache.json")
)


def make_config(name: str, scale: int = DEFAULT_SCALE) -> SystemConfig:
    """Build one of the named machine configurations used by the paper."""
    try:
        factory = STANDARD_CONFIGS[name]
    except KeyError:
        raise KeyError(
            f"unknown config {name!r}; known: {sorted(STANDARD_CONFIGS)}"
        ) from None
    return factory(scale)


def _cfg(**kw) -> Callable[[int], SystemConfig]:
    return lambda scale: SystemConfig.paper_scale(scale, **kw)


STANDARD_CONFIGS: Dict[str, Callable[[int], SystemConfig]] = {
    # baselines
    "base": _cfg(name="base"),
    "2xcap": _cfg(l4_capacity_mult=2.0, name="2xcap"),
    "2xbw": _cfg(l4_channel_mult=2, name="2xbw"),
    "2xcap2xbw": _cfg(l4_capacity_mult=2.0, l4_channel_mult=2, name="2xcap2xbw"),
    "halflat": _cfg(l4_latency_factor=0.5, name="halflat"),
    # compressed static-index designs
    "tsi": _cfg(compressed=True, index_scheme="tsi", name="tsi"),
    "nsi": _cfg(compressed=True, index_scheme="nsi", name="nsi"),
    "bai": _cfg(compressed=True, index_scheme="bai", name="bai"),
    # DICE and variants
    "dice": _cfg(compressed=True, index_scheme="dice", name="dice"),
    "dice-t32": _cfg(
        compressed=True, index_scheme="dice", dice_threshold=32, name="dice-t32"
    ),
    "dice-t40": _cfg(
        compressed=True, index_scheme="dice", dice_threshold=40, name="dice-t40"
    ),
    "dice-knl": _cfg(
        compressed=True,
        index_scheme="dice",
        neighbor_tag_visible=False,
        name="dice-knl",
    ),
    "dice-2xcap": _cfg(
        compressed=True, index_scheme="dice", l4_capacity_mult=2.0, name="dice-2xcap"
    ),
    "dice-2xbw": _cfg(
        compressed=True, index_scheme="dice", l4_channel_mult=2, name="dice-2xbw"
    ),
    "dice-halflat": _cfg(
        compressed=True,
        index_scheme="dice",
        l4_latency_factor=0.5,
        name="dice-halflat",
    ),
    "dice-cip-oracle": _cfg(
        compressed=True, index_scheme="dice", cip_mode="oracle", name="dice-cip-oracle"
    ),
    "dice-cip-none": _cfg(
        compressed=True, index_scheme="dice", cip_mode="none", name="dice-cip-none"
    ),
    "dice-noshare": _cfg(
        compressed=True, index_scheme="dice", tag_sharing=False, name="dice-noshare"
    ),
    "dice-evict-largest": _cfg(
        compressed=True,
        index_scheme="dice",
        victim_policy="largest",
        name="dice-evict-largest",
    ),
    "dice-ltt512": _cfg(
        compressed=True, index_scheme="dice", cip_entries=512, name="dice-ltt512"
    ),
    "dice-ltt8192": _cfg(
        compressed=True, index_scheme="dice", cip_entries=8192, name="dice-ltt8192"
    ),
    # comparison designs
    "scc": _cfg(compressed=True, index_scheme="scc", name="scc"),
    "lcp": _cfg(compressed=True, index_scheme="lcp", name="lcp"),
}

# Prefetch variants (Table 7) ride on an existing config.
PREFETCH_CONFIGS = {
    "base-wide128": ("base", "wide128"),
    "base-nextline": ("base", "nextline"),
    "dice-nextline": ("dice", "nextline"),
}


def resolve_config(
    name: str, scale: int = DEFAULT_SCALE, l4: L4Overrides = ()
) -> SystemConfig:
    """Config by name, including the prefetch-variant names, with its
    L4 fields overridden by ``l4``."""
    if name in PREFETCH_CONFIGS:
        base_name, mode = PREFETCH_CONFIGS[name]
        cfg = make_config(base_name, scale)
        cfg = dataclasses.replace(cfg, l3_prefetch=mode, name=name)
    elif name in STANDARD_CONFIGS:
        cfg = make_config(name, scale)
    else:
        known = sorted([*STANDARD_CONFIGS, *PREFETCH_CONFIGS])
        raise KeyError(f"unknown config {name!r}; known: {', '.join(known)}")
    return cfg.with_l4(**dict(l4)) if l4 else cfg


# ---------------------------------------------------------------------------
# result cache

_memory_cache: Dict[Tuple, SimResult] = {}
# (config name, scale, L4 overrides) -> config digest: a digest costs
# 80-130 us on a 2-core Xeon VM, and a warm daemon submission keys every
# job it holds
_config_digests: Dict[Tuple[str, int, L4Overrides], str] = {}

# The executor actually invoked for uncached simulations: `run_workload`,
# unless a test injects a stand-in (a flaky or counting executor) through
# `set_run_executor`.  Signature matches `run_workload`.
_run_executor: Callable[..., SimResult] = run_workload


def set_run_executor(executor: Optional[Callable[..., SimResult]]) -> None:
    """Install the callable used for uncached runs (None restores default)."""
    global _run_executor
    _run_executor = executor if executor is not None else run_workload


def named_config_digest(
    config_name: str, scale: int, l4: L4Overrides = ()
) -> str:
    """Digest of the resolved config, memoized per process; raises
    ``KeyError`` for an unknown name."""
    digest = _config_digests.get((config_name, scale, l4))
    if digest is None:
        digest = config_digest(resolve_config(config_name, scale, l4))
        _config_digests[(config_name, scale, l4)] = digest
    return digest


def _key(
    workload: str,
    config_name: str,
    scale: int,
    params: SimulationParams,
    l4: L4Overrides = (),
) -> Tuple:
    """What was simulated: workload, config content, every run parameter
    and the model code.  Config name, scale and L4 overrides are inside
    the digest."""
    return (
        workload,
        named_config_digest(config_name, scale, l4),
        params.accesses_per_core,
        params.warmup_fraction,
        params.seed,
        params.fault_rate,
        params.ecc,
        MODEL_DIGEST,
    )


class CacheEntryError(ValueError):
    """A disk-cache entry does not match the current SimResult schema."""


def _cache_dir() -> Path:
    """The shard directory, derived from the (env-overridable) cache path."""
    return _CACHE_PATH.with_suffix(".d")


def _store() -> ShardedResultCache:
    return ShardedResultCache(_cache_dir())


def _result_to_dict(result: SimResult) -> dict:
    return dataclasses.asdict(result)


_RESULT_FIELDS = {f.name for f in dataclasses.fields(SimResult)}
_REQUIRED_FIELDS = {
    f.name
    for f in dataclasses.fields(SimResult)
    if f.default is dataclasses.MISSING
    and f.default_factory is dataclasses.MISSING
}


def _result_from_dict(d: object) -> SimResult:
    """Rebuild a SimResult, rejecting (not crashing on) schema drift."""
    if not isinstance(d, dict):
        raise CacheEntryError(f"cache entry is {type(d).__name__}, not dict")
    unknown = set(d) - _RESULT_FIELDS
    if unknown:
        raise CacheEntryError(f"unknown SimResult fields {sorted(unknown)}")
    missing = _REQUIRED_FIELDS - set(d)
    if missing:
        raise CacheEntryError(f"missing SimResult fields {sorted(missing)}")
    d = dict(d)
    try:
        if d.get("index_distribution") is not None:
            d["index_distribution"] = tuple(d["index_distribution"])
        return SimResult(**d)
    except TypeError as exc:
        raise CacheEntryError(str(exc)) from exc


def _lookup(key: Tuple) -> Optional[SimResult]:
    """Memory, then the key's shard, read fresh so that a result written
    by a concurrent process is found.  A shard that fails schema
    validation is moved aside like a torn one and counts as a miss."""
    hit = _memory_cache.get(key)
    if hit is not None or not _DISK_CACHE:
        return hit
    result = _store().read(json.dumps(key), decode=_result_from_dict)
    if result is not None:
        _memory_cache[key] = result
    return result


def peek_cached(
    workload: str,
    config_name: str,
    *,
    scale: int = DEFAULT_SCALE,
    params: Optional[SimulationParams] = None,
    l4: L4Overrides = (),
) -> Optional[SimResult]:
    """The cached result for this run, or None — never simulates."""
    params = params or SimulationParams(accesses_per_core=DEFAULT_ACCESSES)
    return _lookup(_key(workload, config_name, scale, params, l4))


def seed_cache(
    workload: str,
    config_name: str,
    result: SimResult,
    *,
    scale: int = DEFAULT_SCALE,
    params: Optional[SimulationParams] = None,
    l4: L4Overrides = (),
) -> None:
    """Install an externally computed result (e.g. from a worker process).

    The parallel scheduler seeds the parent's caches with results its
    workers return, so the serial replay that renders the tables runs
    entirely from memory.
    """
    params = params or SimulationParams(accesses_per_core=DEFAULT_ACCESSES)
    key = _key(workload, config_name, scale, params, l4)
    _memory_cache[key] = result
    if not _DISK_CACHE:
        return
    disk_key = json.dumps(key)
    # A forked worker has usually persisted the shard already; skip the
    # redundant write when it has.
    if not _store().exists(disk_key):
        _store().safe_write(disk_key, _result_to_dict(result))


def cached_run(
    workload: str,
    config_name: str,
    *,
    scale: int = DEFAULT_SCALE,
    params: Optional[SimulationParams] = None,
    l4: L4Overrides = (),
) -> SimResult:
    """Run (or fetch) one simulation."""
    params = params or SimulationParams(accesses_per_core=DEFAULT_ACCESSES)
    key = _key(workload, config_name, scale, params, l4)
    found = _lookup(key)
    if found is not None:
        return found
    config = resolve_config(config_name, scale, l4)
    result = _run_executor(workload, config, params)
    _memory_cache[key] = result
    if _DISK_CACHE:
        # atomic and concurrency-safe; a failing disk is counted, not raised
        _store().safe_write(json.dumps(key), _result_to_dict(result))
    return result


def clear_cache(disk: bool = False) -> None:
    """Drop cached results (tests use this to force fresh runs)."""
    drop_memory_state()
    if disk:
        _store().clear()


def invalidate(
    workload: str,
    config_name: str,
    *,
    scale: int = DEFAULT_SCALE,
    params: Optional[SimulationParams] = None,
    l4: L4Overrides = (),
) -> None:
    """Forget one cached result everywhere: memory and disk.

    The supervisor calls this when a job's payload fails validation
    (e.g. a chaos-corrupted result): the poisoned entry must not survive
    to be served to the retry, or to any later campaign.
    """
    params = params or SimulationParams(accesses_per_core=DEFAULT_ACCESSES)
    key = _key(workload, config_name, scale, params, l4)
    _memory_cache.pop(key, None)
    if _DISK_CACHE:
        _store().remove(json.dumps(key))


def set_cache_path(path) -> Path:
    """Redirect the disk cache (memory state drops; workers follow.)

    ``cli chaos`` isolates its reference and chaotic campaigns in
    separate throwaway stores this way.  The environment mirror keeps
    spawn-start worker processes (which re-import this module) pointed
    at the same store as fork-start ones (which inherit it).
    """
    global _CACHE_PATH
    _CACHE_PATH = Path(path)
    os.environ["REPRO_CACHE_PATH"] = str(_CACHE_PATH)
    from repro.exec.cache import reset_cache_health

    reset_cache_health()
    drop_memory_state()
    return _CACHE_PATH


def cache_stats() -> Dict[str, object]:
    """One snapshot of the whole result-cache stack, JSON-ready.

    Joins the sharded store's shape (shards, bytes, quarantine evidence)
    and this process's hit/miss/write-error ledger with the in-memory
    layer's entry count and the model digest every key carries.  Served
    verbatim by the campaign service's ``GET /healthz`` and printed by
    ``cli cache-info``.
    """
    stats = _store().stats()
    stats["disk_cache_enabled"] = _DISK_CACHE
    stats["memory_entries"] = len(_memory_cache)
    stats["model_digest"] = MODEL_DIGEST
    return stats


def drop_memory_state() -> None:
    """Forget all in-process cache state, keeping disk intact.

    Emulates a fresh process: results and config digests are computed
    again, and the next lookup reads its shard.  Used by tests and the
    benchmarks to verify warm-cache behaviour without re-execing.
    """
    _memory_cache.clear()
    _config_digests.clear()


def speedup(
    workload: str,
    config_name: str,
    baseline: str = "base",
    *,
    scale: int = DEFAULT_SCALE,
    params: Optional[SimulationParams] = None,
) -> float:
    """Weighted speedup of a config over a baseline for one workload."""
    test = cached_run(workload, config_name, scale=scale, params=params)
    ref = cached_run(workload, baseline, scale=scale, params=params)
    return test.weighted_speedup_over(ref)
