"""Concurrency-safe sharded result store: one file per cache entry.

Every cache key owns its own entry file, so N workers writing N different
keys touch N different files and merge by construction, while two writers
of the *same* key race only between bit-identical payloads (simulations
are deterministic functions of the key, which names everything that was
simulated).

Layout (``root`` is ``<cache path>.d/``, e.g. ``.sim_cache.d/``)::

    .sim_cache.d/
        <sha256(key)[:32]>.json     one entry: {"key": ..., "result": ...}
        <shard>.json.corrupt        quarantined entry files

Each entry file is written with temp file + fsync + atomic rename, so
readers never observe a torn entry.  The store knows nothing about
:class:`~repro.sim.metrics.SimResult` schemas — entries are opaque JSON
values; a reader passes :meth:`ShardedResultCache.read` its own decoder,
and an entry the decoder rejects is quarantined like an unreadable one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Set

from repro.chaos import controller as _chaos

_ENTRY_SUFFIX = ".json"
_QUARANTINE_SUFFIX = ".corrupt"

_LOG = logging.getLogger("repro.exec.cache")

# -- write-error accounting + per-shard circuit breaker ----------------------
#
# State is process-local (each worker keeps its own books); the campaign
# parent publishes its view through the scheduler's metrics registry as
# ``exec.cache.write_error`` / ``exec.cache.breakers_open``.  A shard
# whose writes keep failing (dead disk, revoked permissions, ENOSPC)
# trips its breaker after ``breaker_threshold`` consecutive errors, and
# every later write is skipped outright — the campaign stops burning
# syscalls and log noise on a disk that is not coming back, while the
# in-memory result still flows to the tables.

DEFAULT_BREAKER_THRESHOLD = 3


class CacheHealth:
    """Process-local ledger of shard reads, write failures, open breakers."""

    def __init__(self, breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD):
        self.breaker_threshold = breaker_threshold
        self.write_errors = 0
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.consecutive: Dict[str, int] = {}
        self.open_breakers: Set[str] = set()
        self.skipped_writes = 0
        self._logged: Set[str] = set()

    def record_error(self, path: Path, exc: OSError) -> None:
        key = str(path)
        self.write_errors += 1
        self.consecutive[key] = self.consecutive.get(key, 0) + 1
        if key not in self._logged:
            # one line per shard, however many times it fails
            self._logged.add(key)
            _LOG.warning(
                "cache shard write failed (%s): %s — counting further "
                "errors for this shard silently",
                path,
                exc,
            )
        if (
            self.consecutive[key] >= self.breaker_threshold
            and key not in self.open_breakers
        ):
            self.open_breakers.add(key)
            _LOG.warning(
                "cache shard %s: circuit breaker open after %d consecutive "
                "write errors; skipping further writes to it",
                path,
                self.consecutive[key],
            )

    def record_success(self, path: Path) -> None:
        self.consecutive.pop(str(path), None)

    def is_open(self, path: Path) -> bool:
        return str(path) in self.open_breakers

    def snapshot(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "write_errors": self.write_errors,
            "skipped_writes": self.skipped_writes,
            "open_breakers": sorted(self.open_breakers),
        }


_health = CacheHealth()


def cache_health() -> CacheHealth:
    """This process's cache-health ledger (the scheduler exports it)."""
    return _health


def reset_cache_health(
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
) -> None:
    """Fresh books (tests, and campaigns that redirect the cache path)."""
    global _health
    _health = CacheHealth(breaker_threshold)


class ShardedResultCache:
    """A directory of single-entry JSON files keyed by hashed cache key."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # -- paths ---------------------------------------------------------------

    def entry_path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
        return self.root / f"{digest}{_ENTRY_SUFFIX}"

    # -- reads ---------------------------------------------------------------

    def read(
        self, key: str, decode: Optional[Callable[[object], object]] = None
    ) -> Optional[object]:
        """The entry stored under ``key`` (passed through ``decode`` when
        given), or None, quarantining a shard that cannot be used.

        Any unusable shard — truncated JSON, an ``OSError``, a write torn
        mid-UTF-8-sequence (which surfaces as ``UnicodeDecodeError``, a
        ``ValueError`` that is *not* a ``JSONDecodeError``), a foreign
        payload, or an entry ``decode`` rejects with a ``ValueError`` —
        counts as a plain miss; the evidence moves aside, the caller
        re-simulates.
        """
        path = self.entry_path(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            _health.misses += 1
            return None
        except (ValueError, OSError):
            return self._reject(path)
        if not isinstance(payload, dict) or payload.get("key") != key:
            return self._reject(path)  # hash collision or foreign payload
        entry = payload.get("result")
        if decode is not None:
            try:
                entry = decode(entry)
            except ValueError:
                return self._reject(path)
        _health.hits += 1
        return entry

    def read_all(self) -> Dict[str, object]:
        """Every readable entry as ``{key: result}`` (quarantines bad files)."""
        entries: Dict[str, object] = {}
        if not self.root.is_dir():
            return entries
        for path in sorted(self.root.glob(f"*{_ENTRY_SUFFIX}")):
            try:
                payload = json.loads(path.read_text())
            except (ValueError, OSError):
                self._quarantine(path)
                continue
            if not isinstance(payload, dict) or "key" not in payload:
                self._quarantine(path)
                continue
            entries[str(payload["key"])] = payload.get("result")
        return entries

    def exists(self, key: str) -> bool:
        return self.entry_path(key).exists()

    def stats(self) -> Dict[str, object]:
        """Store shape plus this process's read/write accounting.

        ``shards``/``bytes`` walk the directory (cheap at result-cache
        scale); ``quarantined_files`` counts the ``.corrupt`` evidence
        left by torn reads.  The hit/miss/write_error counters come from
        the process-local :class:`CacheHealth` ledger, so a long-lived
        service can watch its cache behave over time (``GET /healthz``)
        and the CLI can print the same numbers (``cli cache-info``).
        """
        shards = 0
        nbytes = 0
        quarantined_files = 0
        if self.root.is_dir():
            for path in self.root.iterdir():
                name = path.name
                if name.endswith(_QUARANTINE_SUFFIX):
                    quarantined_files += 1
                    continue
                if not name.endswith(_ENTRY_SUFFIX):
                    continue
                shards += 1
                try:
                    nbytes += path.stat().st_size
                except OSError:
                    pass
        return {
            "root": str(self.root),
            "shards": shards,
            "bytes": nbytes,
            "quarantined_files": quarantined_files,
            **_health.snapshot(),
        }

    # -- writes --------------------------------------------------------------

    def write(self, key: str, result: object) -> None:
        """Atomically persist one entry (temp file + fsync + rename).

        Concurrent writers of *different* keys write different files, so
        nothing is ever clobbered; concurrent writers of the *same* key
        rename complete files over each other, so readers always see one
        whole entry.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.entry_path(key)
        payload = json.dumps({"key": key, "result": result})
        # chaos seams: an injected ENOSPC raises here; an injected torn
        # write bypasses the atomic discipline and leaves a truncated
        # file at the final path — exactly what a torn disk leaves.
        _chaos.check_write_error(path)
        if _chaos.take_torn_write(path):
            path.write_text(payload[: max(1, len(payload) // 3)])
            return
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def safe_write(self, key: str, result: object) -> bool:
        """:meth:`write` that survives a failing disk; True on success.

        An ``OSError`` is *counted* (``exec.cache.write_error``), its
        path logged once per shard, and the per-shard circuit breaker
        fed — never swallowed silently.  Once a shard's breaker is open,
        later writes to it are skipped without touching the filesystem.
        The caller's result is unaffected either way: a result cache
        that cannot persist degrades to a memory cache, not a crash.
        """
        path = self.entry_path(key)
        if _health.is_open(path):
            _health.skipped_writes += 1
            return False
        try:
            self.write(key, result)
        except OSError as exc:
            _health.record_error(path, exc)
            return False
        _health.record_success(path)
        return True

    def remove(self, key: str) -> None:
        try:
            self.entry_path(key).unlink()
        except OSError:
            pass

    def clear(self) -> None:
        """Delete every entry (and the directory, if then empty)."""
        if not self.root.is_dir():
            return
        for path in self.root.glob(f"*{_ENTRY_SUFFIX}"):
            try:
                path.unlink()
            except OSError:
                pass
        try:
            self.root.rmdir()
        except OSError:
            pass  # quarantined files (or a racing writer) keep it alive

    # -- internals -----------------------------------------------------------

    @classmethod
    def _reject(cls, path: Path) -> None:
        """Quarantine a shard a read cannot use; the read is a miss."""
        cls._quarantine(path)
        _health.misses += 1

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move an unusable entry file aside so the evidence survives."""
        _health.quarantined += 1
        try:
            os.replace(path, path.with_name(path.name + _QUARANTINE_SUFFIX))
        except OSError:
            pass
