"""Named machine configurations, result caching, and speedup computation.

Every benchmark file regenerates its figure/table from `cached_run` results,
so a (workload, config) pair simulates once per process (and once per
machine if the disk cache is enabled) no matter how many figures use it —
the same economy the paper gets from deriving many plots from one set of
simulation campaigns.

The disk cache is *sharded*: each entry lives in its own file under
``.sim_cache.d/`` (see :class:`repro.exec.cache.ShardedResultCache`), so
the parallel scheduler's N worker processes can read and write results
concurrently without clobbering each other.  A monolithic
``.sim_cache.json`` left by an earlier revision is migrated into the
shard directory once, then renamed aside.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.exec.cache import ShardedResultCache
from repro.sim.engine import SimulationParams, run_workload
from repro.sim.linestore import LineStore
from repro.sim.metrics import SimResult

DEFAULT_SCALE = int(os.environ.get("REPRO_SCALE", 4096))
"""Capacity scale factor vs the paper machine (see DESIGN.md Sec 5)."""

DEFAULT_ACCESSES = int(os.environ.get("REPRO_ACCESSES", 6000))
"""L3 accesses simulated per core (raise for higher-fidelity runs)."""

_CACHE_VERSION = 7  # bump when simulator behaviour or result schema changes
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


def resolve_config(name: str, scale: int = DEFAULT_SCALE) -> SystemConfig:
    """Config by name, including the prefetch-variant names."""
    if name in PREFETCH_CONFIGS:
        base_name, mode = PREFETCH_CONFIGS[name]
        cfg = make_config(base_name, scale)
        import dataclasses

        return dataclasses.replace(cfg, l3_prefetch=mode, name=name)
    return make_config(name, scale)


# ---------------------------------------------------------------------------
# result cache

_memory_cache: Dict[Tuple, SimResult] = {}
_disk_loaded = False
_disk_store: Dict[str, dict] = {}

# The executor actually invoked for uncached simulations: `run_workload`,
# unless a test injects a stand-in (a flaky or counting executor) through
# `set_run_executor`.  Signature matches `run_workload`.
_run_executor: Callable[..., SimResult] = run_workload


def set_run_executor(executor: Optional[Callable[..., SimResult]]) -> None:
    """Install the callable used for uncached runs (None restores default)."""
    global _run_executor
    _run_executor = executor if executor is not None else run_workload


_DEFAULT_SAMPLE_EVERY = SimulationParams().capacity_sample_every


def _key(workload: str, config_name: str, scale: int, params: SimulationParams) -> Tuple:
    key = [
        _CACHE_VERSION,
        workload,
        config_name,
        scale,
        params.accesses_per_core,
        params.warmup_fraction,
        params.seed,
    ]
    # Fault-free runs keep their historical keys; fault-injected runs get
    # distinct entries per (rate, ecc) point.
    if params.fault_rate:
        key += [params.fault_rate, params.ecc]
    # Likewise the capacity sampling interval (it changes
    # effective_capacity): keyed only when it is not the default.
    if params.capacity_sample_every != _DEFAULT_SAMPLE_EVERY:
        key += ["capacity_sample_every", params.capacity_sample_every]
    return tuple(key)


class CacheEntryError(ValueError):
    """A disk-cache entry does not match the current SimResult schema."""


def _cache_dir() -> Path:
    """The shard directory, derived from the (env-overridable) cache path."""
    return _CACHE_PATH.with_suffix(".d")


def _store() -> ShardedResultCache:
    return ShardedResultCache(_cache_dir())


def _migrated_path() -> Path:
    return _CACHE_PATH.with_name(_CACHE_PATH.name + ".migrated")


def _quarantine_path() -> Path:
    return _CACHE_PATH.with_suffix(".corrupt.json")


def _quarantine_file() -> None:
    """Move an unreadable cache file aside instead of silently ignoring it."""
    try:
        os.replace(_CACHE_PATH, _quarantine_path())
    except OSError:
        pass


def _quarantine_entry(disk_key: str, entry: object) -> None:
    """Append one schema-drifted entry to the quarantine file and drop it."""
    _disk_store.pop(disk_key, None)
    if _DISK_CACHE:
        _store().remove(disk_key)  # keep it from resurrecting on next load
    path = _quarantine_path()
    try:
        quarantined = {}
        if path.exists():
            try:
                quarantined = json.loads(path.read_text())
            except (json.JSONDecodeError, OSError):
                quarantined = {}
        if not isinstance(quarantined, dict):
            quarantined = {}
        quarantined[disk_key] = entry
        path.write_text(json.dumps(quarantined))
    except (OSError, TypeError):
        pass


def _migrate_monolithic() -> None:
    """One-time import of a legacy monolithic ``.sim_cache.json``.

    Valid entries are copied into the shard directory (existing shards
    win, so concurrent migrations converge), then the monolithic file is
    renamed aside.  A truncated or non-dict file is quarantined exactly
    as before — the evidence survives, the cache starts fresh.
    """
    if not _CACHE_PATH.exists():
        return
    try:
        loaded = json.loads(_CACHE_PATH.read_text())
    except json.JSONDecodeError:
        _quarantine_file()
        return
    except OSError:
        return
    if not isinstance(loaded, dict):
        _quarantine_file()
        return
    try:
        _store().import_entries(loaded)
    except OSError:
        return  # unwritable directory: leave the monolithic file in place
    try:
        os.replace(_CACHE_PATH, _migrated_path())
    except OSError:
        pass


def _load_disk() -> None:
    global _disk_loaded
    if _disk_loaded or not _DISK_CACHE:
        _disk_loaded = True
        return
    _disk_loaded = True
    _migrate_monolithic()
    _disk_store.update(_store().read_all())


def _save_entry(disk_key: str, entry: dict) -> None:
    """Persist one entry to its shard file (atomic; concurrency-safe).

    Writing per entry instead of rewriting a monolithic store means two
    processes finishing different simulations at the same time *merge*
    their results on disk instead of last-writer-wins clobbering.  A
    write that fails does not fail the run — but it is counted in the
    ``exec.cache.write_error`` metric, logged once per shard, and feeds
    the per-shard circuit breaker (see ``ShardedResultCache.safe_write``)
    instead of vanishing silently.
    """
    if not _DISK_CACHE:
        return
    _store().safe_write(disk_key, entry)


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
    if d.get("index_distribution") is not None:
        d["index_distribution"] = tuple(d["index_distribution"])
    try:
        return SimResult(**d)
    except TypeError as exc:
        raise CacheEntryError(str(exc)) from exc


def _lookup(key: Tuple, disk_key: str) -> Optional[SimResult]:
    """Memory, then loaded disk store, then a fresh shard read (so results
    written by a concurrent process after our load are still found)."""
    hit = _memory_cache.get(key)
    if hit is not None:
        return hit
    _load_disk()
    entry = _disk_store.get(disk_key)
    if entry is None and _DISK_CACHE:
        entry = _store().read(disk_key)
        if entry is not None:
            _disk_store[disk_key] = entry
    if entry is None:
        return None
    try:
        result = _result_from_dict(entry)
    except CacheEntryError:
        # Stale or corrupt entry: quarantine it and re-simulate rather
        # than crashing mid-benchmark.
        _quarantine_entry(disk_key, entry)
        return None
    _memory_cache[key] = result
    return result


def peek_cached(
    workload: str,
    config_name: str,
    *,
    scale: int = DEFAULT_SCALE,
    params: Optional[SimulationParams] = None,
) -> Optional[SimResult]:
    """The cached result for this run, or None — never simulates."""
    params = params or SimulationParams(accesses_per_core=DEFAULT_ACCESSES)
    key = _key(workload, config_name, scale, params)
    return _lookup(key, json.dumps(key))


def seed_cache(
    workload: str,
    config_name: str,
    result: SimResult,
    *,
    scale: int = DEFAULT_SCALE,
    params: Optional[SimulationParams] = None,
) -> None:
    """Install an externally computed result (e.g. from a worker process).

    The parallel scheduler seeds the parent's caches with results its
    workers return, so the serial replay that renders the tables runs
    entirely from memory.
    """
    params = params or SimulationParams(accesses_per_core=DEFAULT_ACCESSES)
    key = _key(workload, config_name, scale, params)
    disk_key = json.dumps(key)
    _memory_cache[key] = result
    if not _DISK_CACHE:
        return  # _disk_store mirrors disk; don't grow it past clear_cache()
    _load_disk()
    if disk_key not in _disk_store:
        entry = _result_to_dict(result)
        _disk_store[disk_key] = entry
        # A forked worker has usually persisted the shard already; skip
        # the redundant write when it has.
        if not _store().exists(disk_key):
            _save_entry(disk_key, entry)


def cached_run(
    workload: str,
    config_name: str,
    *,
    scale: int = DEFAULT_SCALE,
    params: Optional[SimulationParams] = None,
    store: Optional[LineStore] = None,
) -> SimResult:
    """Run (or fetch) one simulation; a run draws on ``store`` (see
    :func:`~repro.sim.engine.run_workload`)."""
    params = params or SimulationParams(accesses_per_core=DEFAULT_ACCESSES)
    key = _key(workload, config_name, scale, params)
    disk_key = json.dumps(key)
    found = _lookup(key, disk_key)
    if found is not None:
        return found
    config = resolve_config(config_name, scale)
    result = _run_executor(workload, config, params, store=store)
    _memory_cache[key] = result
    if _DISK_CACHE:
        entry = _result_to_dict(result)
        _disk_store[disk_key] = entry
        _save_entry(disk_key, entry)
    return result


def clear_cache(disk: bool = False) -> None:
    """Drop cached results (tests use this to force fresh runs)."""
    global _disk_loaded
    _memory_cache.clear()
    if disk:
        _disk_store.clear()
        _disk_loaded = False  # a later lookup re-scans (now empty) shards
        _store().clear()
        for path in (_CACHE_PATH, _migrated_path()):
            if path.exists():
                path.unlink()


def invalidate(
    workload: str,
    config_name: str,
    *,
    scale: int = DEFAULT_SCALE,
    params: Optional[SimulationParams] = None,
) -> None:
    """Forget one cached result everywhere: memory, loaded store, disk.

    The supervisor calls this when a job's payload fails validation
    (e.g. a chaos-corrupted result): the poisoned entry must not survive
    to be served to the retry, or to any later campaign.
    """
    params = params or SimulationParams(accesses_per_core=DEFAULT_ACCESSES)
    key = _key(workload, config_name, scale, params)
    disk_key = json.dumps(key)
    _memory_cache.pop(key, None)
    _disk_store.pop(disk_key, None)
    if _DISK_CACHE:
        _store().remove(disk_key)


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
    layer's entry counts.  Served verbatim by the campaign service's
    ``GET /healthz`` and printed by ``cli cache-info``.
    """
    stats = _store().stats()
    stats["disk_cache_enabled"] = _DISK_CACHE
    stats["memory_entries"] = len(_memory_cache)
    stats["loaded_disk_entries"] = len(_disk_store)
    return stats


def drop_memory_state() -> None:
    """Forget all in-process cache state, keeping disk intact.

    Emulates a fresh process: the next lookup reloads from the shard
    directory.  Used by tests and the parallel benchmark script to verify
    warm-cache behaviour without actually re-execing.
    """
    global _disk_loaded
    _memory_cache.clear()
    _disk_store.clear()
    _disk_loaded = False


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
