"""Content-addressed promotion of the sharded result cache.

The ``.sim_cache.d/`` shard store names entries by the *hash of their
key*; a long-lived service wants the stronger invariant of naming
results by the *hash of their content*:

* identical results reached through different keys (e.g. the same
  simulation re-planned after a harmless key-schema extension) share one
  object on disk;
* an object file can always be verified against its own name, so a torn
  or tampered object is detected on read and quarantined — a reader can
  never be handed half a result;
* refs (key → content digest) are one tiny atomic file each, so
  promotion can run while worker processes write new shards and while
  other service processes read — concurrent-reader safety falls out of
  the same rename discipline the shard store uses.

Layout (``root`` is ``<cache path>.cas/``, beside ``.sim_cache.d/``)::

    .sim_cache.cas/
        objects/<sha256>.json    canonical result payload, self-named
        refs/<sha256(key)>.json  {"key": ..., "object": <digest>}
        promote.lock             single-writer promotion lease (pid)

Promotion is **single-writer**: one process at a time walks the shard
store and installs missing objects/refs, guarded by an ``O_EXCL`` lock
file carrying the holder's pid.  A lock whose pid is dead is stolen, so
a crashed promoter never wedges the store.  Readers ignore the lock
entirely — every visible file is complete by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

_OBJECT_SUFFIX = ".json"
_QUARANTINE_SUFFIX = ".corrupt"
_LOCK_NAME = "promote.lock"


def canonical_payload(result: object) -> bytes:
    """The canonical JSON encoding a content digest is computed over."""
    return json.dumps(
        result, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def content_digest(result: object) -> str:
    return hashlib.sha256(canonical_payload(result)).hexdigest()


class PromotionLock:
    """An ``O_EXCL`` pid-stamped lease on the promotion walk."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.held = False

    def acquire(self) -> bool:
        """Take the lease; steals a dead holder's lock, never a live one's."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(2):
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                if not self._holder_alive():
                    try:
                        self.path.unlink()
                    except OSError:
                        return False
                    continue  # stale lock removed: one retry
                return False
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            self.held = True
            return True
        return False

    def release(self) -> None:
        if self.held:
            self.held = False
            try:
                self.path.unlink()
            except OSError:
                pass

    def _holder_alive(self) -> bool:
        try:
            pid = int(self.path.read_text().strip() or 0)
        except (OSError, ValueError):
            return False  # unreadable/empty lock: treat as stale
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True  # exists, owned by someone else
        except OSError:
            return True
        return True

    def __enter__(self) -> "PromotionLock":
        self.acquire()
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


class ContentStore:
    """Content-addressed object store with key refs, safe under contention."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.refs = self.root / "refs"
        # per-process read accounting (``/healthz`` reports it);
        # never persisted — a restarted process starts its window fresh
        self.get_hits = 0
        self.get_misses = 0

    # -- paths ---------------------------------------------------------------

    def object_path(self, digest: str) -> Path:
        return self.objects / f"{digest}{_OBJECT_SUFFIX}"

    def ref_path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.refs / f"{digest}{_OBJECT_SUFFIX}"

    def lock(self) -> PromotionLock:
        return PromotionLock(self.root / _LOCK_NAME)

    # -- writes --------------------------------------------------------------

    def put(self, key: str, result: object) -> str:
        """Install ``result`` under ``key``; returns the content digest.

        Objects are immutable and self-named, so concurrent writers of
        the same content race only between byte-identical files; the ref
        is renamed into place atomically after its object exists, so a
        reader that sees a ref can always dereference it.
        """
        payload = canonical_payload(result)
        digest = hashlib.sha256(payload).hexdigest()
        obj = self.object_path(digest)
        if not obj.exists():
            self._atomic_write(obj, payload)
        self._atomic_write(
            self.ref_path(key),
            json.dumps({"key": key, "object": digest}).encode("utf-8"),
        )
        return digest

    # -- reads ---------------------------------------------------------------

    def get(self, key: str) -> Optional[object]:
        """The result stored under ``key``, or None.

        Every read verifies the object against its own name; a mismatch
        (torn disk, bit rot) quarantines the object and reads as a miss
        — the shard store or a re-simulation backfills it.
        """
        result = self._get(key)
        if result is None:
            self.get_misses += 1
        else:
            self.get_hits += 1
        return result

    def _get(self, key: str) -> Optional[object]:
        ref_path = self.ref_path(key)
        try:
            ref = json.loads(ref_path.read_text())
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            self._quarantine(ref_path)
            return None
        if not isinstance(ref, dict) or ref.get("key") != key:
            self._quarantine(ref_path)
            return None
        digest = str(ref.get("object", ""))
        obj_path = self.object_path(digest)
        try:
            payload = obj_path.read_bytes()
        except OSError:
            return None
        if hashlib.sha256(payload).hexdigest() != digest:
            self._quarantine(obj_path)
            return None
        try:
            return json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):  # digest-matched garbage
            self._quarantine(obj_path)
            return None

    def has(self, key: str) -> bool:
        return self.ref_path(key).exists()

    # -- promotion -----------------------------------------------------------

    def promote(self, entries: Dict[str, object]) -> int:
        """Single-writer install of every entry not yet ref'd; the count.

        Returns -1 without touching the store when another live process
        holds the promotion lease (its walk covers these entries too).
        """
        lock = self.lock()
        if not lock.acquire():
            return -1
        try:
            promoted = 0
            for key, result in entries.items():
                if result is None or self.has(key):
                    continue
                self.put(key, result)
                promoted += 1
            return promoted
        finally:
            lock.release()

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        objects = 0
        nbytes = 0
        quarantined = 0
        if self.objects.is_dir():
            for path in self.objects.iterdir():
                if path.name.endswith(_QUARANTINE_SUFFIX):
                    quarantined += 1
                    continue
                if path.name.endswith(_OBJECT_SUFFIX):
                    objects += 1
                    try:
                        nbytes += path.stat().st_size
                    except OSError:
                        pass
        refs = 0
        if self.refs.is_dir():
            refs = sum(
                1
                for path in self.refs.iterdir()
                if path.name.endswith(_OBJECT_SUFFIX)
            )
        return {
            "root": str(self.root),
            "objects": objects,
            "refs": refs,
            "bytes": nbytes,
            "quarantined": quarantined,
            "get_hits": self.get_hits,
            "get_misses": self.get_misses,
        }

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _atomic_write(path: Path, payload: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
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

    @staticmethod
    def _quarantine(path: Path) -> None:
        try:
            os.replace(path, path.with_name(path.name + _QUARANTINE_SUFFIX))
        except OSError:
            pass
