"""Ambient chaos controller: the seams consult it, the policy decides.

The controller holds process-local state: the active
:class:`~repro.chaos.policy.ChaosPolicy` (installed by the supervisor's
pool initializer in every worker) and the *current site* — the
``(job_id, attempt)`` the worker is executing, set via :func:`job_site`
around each job attempt.  Injection seams call the
``maybe_*`` hooks; with no policy or no site they are a handful of
``None`` checks, so the fault-free hot path pays nothing.

Every injected fault is appended to the policy's ledger *before* it
fires (a crash is ``os._exit`` — there is no after), giving ``cli
chaos`` a cross-process record to assert coverage against.

Process-fatal classes (crash, hang) only fire inside pool worker
processes: injecting them in the campaign parent would kill the
supervisor the chaos run exists to exercise.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from contextlib import contextmanager
from typing import Optional, Tuple

from repro.chaos import ledger as ledger_mod
from repro.chaos.policy import ChaosPolicy

_policy: Optional[ChaosPolicy] = None
_site: Optional[Tuple[str, int]] = None

CRASH_EXIT_CODE = 86  # distinctive, so a real segfault is distinguishable


def configure(policy: ChaosPolicy) -> None:
    """Install the active policy in this process."""
    global _policy
    _policy = policy


def deactivate() -> None:
    """Remove the active policy (and forget any current site)."""
    global _policy, _site
    _policy = None
    _site = None


@contextmanager
def job_site(job_id: str, attempt: int):
    """Scope injection decisions to one job execution attempt."""
    global _site
    previous = _site
    _site = (job_id, attempt)
    try:
        yield
    finally:
        _site = previous


def _decision(fault: str) -> bool:
    """Roll the active policy for ``fault`` at the current site."""
    if _policy is None or _site is None:
        return False
    site, attempt = _site
    return _policy.should_inject(fault, site, attempt)


def _in_worker() -> bool:
    try:
        return multiprocessing.parent_process() is not None
    except AttributeError:  # pragma: no cover - py<3.8 has no parent_process
        return False


def _record(fault: str) -> None:
    if _policy is None or _site is None:
        return
    site, attempt = _site
    ledger_mod.append_jsonl(
        _policy.ledger_path,
        {"fault": fault, "site": site, "attempt": attempt, "pid": os.getpid()},
    )


# -- injection seams ---------------------------------------------------------


def maybe_crash() -> None:
    """Die like a segfaulted worker (only ever inside a pool worker)."""
    if _in_worker() and _decision("crash"):
        _record("crash")  # the ledger line is the fault's last words
        os._exit(CRASH_EXIT_CODE)


def maybe_hang() -> None:
    """Wedge past the supervisor's deadline (only inside a pool worker).

    The sleep is bounded by the policy's ``hang_seconds`` so a chaos run
    without a watchdog still terminates — slowly, which is the point.
    """
    if _in_worker() and _decision("hang"):
        _record("hang")
        time.sleep(_policy.hang_seconds)


def corrupt(result):
    """Return ``result``, possibly poisoned into a detectably-bad payload.

    The poison (negative cycle count) passes through every code path a
    real result takes — including the result cache — so detection and
    cache invalidation are exercised end to end, not just the happy path.
    """
    if not _decision("corrupt"):
        return result
    _record("corrupt")
    try:
        return dataclasses.replace(result, cycles=-1.0)
    except TypeError:  # not a dataclass: garble it wholesale
        return None


def check_write_error(path: os.PathLike) -> None:
    """Raise the injected ``ENOSPC`` before a shard write begins."""
    if _decision("write_error"):
        _record("write_error")
        import errno

        raise OSError(
            errno.ENOSPC, f"chaos: injected write error for {os.fspath(path)}"
        )


def take_torn_write(path: os.PathLike) -> bool:
    """True when this shard write should be torn (caller writes a
    truncated file at the final path, simulating a torn disk)."""
    if _decision("torn_write"):
        _record("torn_write")
        return True
    return False


# -- executor wrapping -------------------------------------------------------


def install_executor_chaos() -> None:
    """Wrap the harness run-executor with the crash/hang/corrupt seams.

    Idempotent; installed by the supervisor's pool worker initializer.
    A crash kills the worker before the result cache is touched —
    exactly like a real segfault would.
    """
    from repro.harness import runner as runner_mod

    base = runner_mod._run_executor
    if getattr(base, "_chaos_wrapped", None) is not None:
        return

    def chaotic_executor(workload, config, params=None, **kwargs):
        maybe_crash()
        maybe_hang()
        return corrupt(base(workload, config, params, **kwargs))

    chaotic_executor._chaos_wrapped = base
    runner_mod.set_run_executor(chaotic_executor)


def uninstall_executor_chaos() -> None:
    """Restore the executor the chaos wrapper replaced (if installed)."""
    from repro.harness import runner as runner_mod

    base = getattr(runner_mod._run_executor, "_chaos_wrapped", None)
    if base is not None:
        runner_mod.set_run_executor(base)
