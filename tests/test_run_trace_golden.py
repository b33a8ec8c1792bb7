"""Golden replays: ``run_trace`` results pinned field by field.

``run_trace`` replays a trace as a one-core source for ``run_workload``'s
loop.  The golden file holds the results of the replays below from before
that fold, when ``run_trace`` kept a loop of its own; each replay must
still match it, except for what the shared loop reports that the old one
did not:

* ``cip_accuracy``, ``cip_write_accuracy`` and ``index_distribution`` are
  now filled (they were None);
* ``effective_capacity`` is the mean of samples taken every 512 measured
  accesses (it was the end-of-run value), so it stays pinned only where
  fewer than 512 accesses are measured.

The cases cover three workloads x three designs x two warmups on a
``capture_trace`` recording, a ``read_trace`` stream (no ``len()``, no
line data) and a plain list of accesses.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.sim.engine import CAPACITY_SAMPLE_EVERY, run_trace
from repro.trace import capture_trace, read_trace, write_trace
from repro.workloads.base import Access, TraceGenerator
from repro.workloads.registry import get_profile

GOLDEN = Path(__file__).with_name("run_trace_golden.json")

DESIGNS = {
    "base": {},
    "dice": {"compressed": True, "index_scheme": "dice"},
    "scc": {"compressed": True, "index_scheme": "scc"},
}
RECORDINGS = {"gcc": (1, 400), "soplex": (3, 500), "lbm": (5, 1500)}
NEW_FIELDS = ("cip_accuracy", "cip_write_accuracy", "index_distribution")


def _config(design: str) -> SystemConfig:
    return SystemConfig.paper_scale(65536, **DESIGNS[design])


def _recording(workload: str):
    seed, count = RECORDINGS[workload]
    generator = TraceGenerator(get_profile(workload), scale=65536, seed=seed)
    return capture_trace(generator, count)


def _plain_list():
    return [
        Access(line_addr=(i * 7) % 90, is_write=i % 5 == 0, pc=i % 3,
               inst_gap=20 + i % 11)
        for i in range(700)
    ]


CASES = {
    **{
        f"{workload}-{design}-w{warmup}": (workload, design, warmup)
        for workload in RECORDINGS
        for design in DESIGNS
        for warmup in (0.0, 0.5)
    },
    **{f"read_trace-{design}-w0.0": ("read_trace", design, 0.0)
       for design in DESIGNS},
    "list-base-w0.5": ("list", "base", 0.5),
    "list-dice-w0.0": ("list", "dice", 0.0),
}


def _trace(source: str, tmp_path: Path):
    if source == "read_trace":
        path = tmp_path / "gcc.trace"
        write_trace(path, _recording("gcc").accesses)
        return read_trace(path)  # a generator: no len(), no line_data
    if source == "list":
        return _plain_list()
    return _recording(source)


def replay(case: str, tmp_path: Path):
    source, design, warmup = CASES[case]
    return run_trace(
        _trace(source, tmp_path), _config(design), name=case,
        warmup_fraction=warmup,
    )


def _fields(result) -> dict:
    fields = dataclasses.asdict(result)
    fields.pop("manifest")
    return json.loads(json.dumps(fields))  # tuples as lists, like the file


def _measured(source: str, warmup: float) -> int:
    if source == "list":
        total = len(_plain_list())
    else:
        total = RECORDINGS["gcc" if source == "read_trace" else source][1]
    return total - int(total * warmup)


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_matches_golden(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())[case]
    got = _fields(replay(case, tmp_path))
    source, design, warmup = CASES[case]
    for name in NEW_FIELDS:
        assert golden.pop(name) is None
        got.pop(name)
    if _measured(source, warmup) >= CAPACITY_SAMPLE_EVERY:
        golden.pop("effective_capacity")
        got.pop("effective_capacity")
    assert got == golden


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_replay_reports_what_run_workload_reports(design, tmp_path):
    """The fields the old loop left None now come from the shared one."""
    result = replay(f"gcc-{design}-w0.5", tmp_path)
    if design == "dice":
        assert result.cip_accuracy is not None
        assert result.index_distribution is not None
    else:
        assert result.cip_accuracy is None
        assert result.index_distribution is None


def test_streamed_replay_reads_the_trace_once(tmp_path):
    """Without ``len()`` and warmup 0 the trace is not materialized: the
    replay pulls each access from the stream exactly once."""
    accesses = _recording("gcc").accesses
    pulled = []

    def stream():
        for access in accesses:
            pulled.append(access)
            yield access

    streamed = run_trace(stream(), _config("dice"))
    listed = run_trace(list(accesses), _config("dice"))
    assert pulled == accesses
    assert _fields(streamed) == _fields(listed)
