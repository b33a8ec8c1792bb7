"""Run-provenance manifests: which code/config/seed produced this number.

Every :class:`~repro.sim.metrics.SimResult` — and therefore every cache
shard persisted by the harness — carries a manifest block built here, so
any table cell in the report is traceable to the exact run that produced
it.  The manifest is attached with ``compare=False`` semantics: two runs
of the same simulation are equal as results even though their manifests
record different wall clocks.

Deterministic fields (config digest, model digest, workload, seed,
params) identify the *computation*; environmental fields (git SHA, host,
wall clock, elapsed time, versions) identify the *execution*.  The config
digest and the model digest are also part of the result-cache key
(``repro.harness.runner._key``), so a cached result always names the
configuration and the model code that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional

MANIFEST_SCHEMA = 1

MODEL_PACKAGES = (
    "cache", "compression", "core", "dram", "dramcache", "resilience",
    "sim", "trace", "workloads",
)
"""The packages under ``repro/`` whose source decides what a simulation
computes (with ``config.py``).  The harness stays out: the content of its
``STANDARD_CONFIGS`` reaches the cache key through the config digest."""

_UNRESOLVED = object()
_git_sha_cache: object = _UNRESOLVED


def canonical_config_json(config) -> str:
    """Stable JSON for a (nested-dataclass) configuration object."""
    if dataclasses.is_dataclass(config):
        payload = dataclasses.asdict(config)
    else:
        payload = config
    return json.dumps(payload, sort_keys=True, default=repr)


def config_digest(config) -> str:
    """Short content digest of the full machine configuration."""
    return hashlib.sha256(
        canonical_config_json(config).encode("utf-8")
    ).hexdigest()[:16]


def model_source_digest(root: Path) -> str:
    """Short SHA-256 over the model's source files under package ``root``.

    Hashes each ``.py`` file of :data:`MODEL_PACKAGES` plus ``config.py``
    as its path relative to ``root`` followed by its bytes, in sorted
    path order, so any edit, addition, removal or rename changes it.
    """
    paths = [root / "config.py"]
    for package in MODEL_PACKAGES:
        paths.extend((root / package).rglob("*.py"))
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(root).as_posix() for path in paths):
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update((root / rel).read_bytes())
    return digest.hexdigest()[:16]


MODEL_DIGEST = model_source_digest(Path(__file__).resolve().parents[1])
"""Digest of the model code this process loaded, taken once at import.

A long-lived daemon and the workers it forks run the code they imported;
a digest taken later could hash files edited since."""


def git_sha() -> Optional[str]:
    """The repository HEAD this process runs from (cached per process).

    ``REPRO_GIT_SHA`` overrides (CI images without a .git directory);
    None when neither the env var nor a git checkout is available.
    """
    global _git_sha_cache
    if _git_sha_cache is not _UNRESOLVED:
        return _git_sha_cache  # type: ignore[return-value]
    sha: Optional[str] = os.environ.get("REPRO_GIT_SHA") or None
    if sha is None:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True,
                text=True,
                timeout=5,
            )
            if proc.returncode == 0:
                sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    _git_sha_cache = sha
    return sha


def _repro_version() -> Optional[str]:
    # imported lazily: repro/__init__ imports the engine, which imports us
    try:
        import repro

        return getattr(repro, "__version__", None)
    except Exception:
        return None


def build_manifest(
    workload: str,
    config,
    params=None,
    *,
    elapsed_s: Optional[float] = None,
) -> Dict[str, object]:
    """The provenance block stamped onto one finished run.

    ``params`` is a :class:`~repro.sim.engine.SimulationParams`; trace
    replays (which have none) pass None and get a null params block.
    """
    return {
        "schema": MANIFEST_SCHEMA,
        "workload": workload,
        "config": getattr(config, "name", str(config)),
        "config_digest": config_digest(config),
        "model_digest": MODEL_DIGEST,
        "scale": getattr(config, "scale", None),
        "seed": getattr(params, "seed", None),
        "params": None if params is None else {
            "accesses_per_core": params.accesses_per_core,
            "warmup_fraction": params.warmup_fraction,
            "fault_rate": params.fault_rate,
            "ecc": params.ecc,
        },
        "git_sha": git_sha(),
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "repro_version": _repro_version(),
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "elapsed_s": None if elapsed_s is None else round(elapsed_s, 6),
    }


def format_manifest(manifest: Optional[Dict[str, object]]) -> str:
    """Human rendering for ``repro manifest show``."""
    if not manifest:
        return "(no manifest recorded — result predates the provenance layer)"
    lines = []
    for key in (
        "workload", "config", "config_digest", "model_digest", "scale",
        "seed", "git_sha", "host", "platform", "python", "repro_version",
        "wall_clock_utc", "elapsed_s", "attempts",
    ):
        if key in manifest:
            lines.append(f"{key:16s} {manifest[key]}")
    params = manifest.get("params")
    if isinstance(params, dict):
        for key in sorted(params):
            lines.append(f"params.{key:9s} {params[key]}")
    return "\n".join(lines)
