"""In-memory span recorder and the patch tables of the traced run.

The traced run measures each layer of ``src/repro`` from the outside: it
replaces the public calls listed below with wrappers that time them, runs
the workload, and puts the originals back.  The program itself is not
changed and its own tracing (``REPRO_TRACE``, ``REPRO_PROF``) stays off;
``REPRO_PROF`` in particular would switch ``run_workload`` to its
per-access loop and so profile a different program.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly encloses.  A call made inside a span of
the same layer (``DICECache.read`` calling ``CompressedDRAMCache.read``, or
the hybrid compressor calling its pool members) is not a span of its own:
its time stays in the enclosing span, so each layer's calls are counted at
the layer's boundary only.

Spans are aggregated per (id, metric) in memory, the id naming the sim cell
or campaign step the main thread is running, and written out once, when the
run ends.  Each thread keeps its own stack and table, so the campaign
daemon's thread and the client's thread never share mutable state.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

# (metric, "module" or "module:Class", attribute[, absorb prefix]).
# Every attribute is patched where its callers look it up: on the class for
# methods, on each importing module for functions bound by ``from`` imports.
SIM_LAYERS: Tuple[tuple, ...] = (
    ("workloads.trace", "repro.workloads.base:TraceGenerator", "chunks"),
    ("workloads.line_data", "repro.workloads.base:TraceGenerator", "line_data"),
    # nested codec calls (hybrid pool members, the pair codec's per-line
    # sizes) stay inside the enclosing compression span
    ("compression.size", "repro.compression.base:Compressor",
     "compressed_size", "compression."),
    ("compression.pair", "repro.dramcache.cset:PairSizeCache", "size",
     "compression."),
    ("core.read", "repro.core.compressed_cache:CompressedDRAMCache", "read"),
    ("core.read", "repro.core.dice:DICECache", "read"),
    ("core.install", "repro.core.compressed_cache:CompressedDRAMCache",
     "install"),
    ("core.install", "repro.core.dice:DICECache", "install"),
    ("core.cip", "repro.core.cip:CacheIndexPredictor", "predict_bai"),
    ("core.cip", "repro.core.cip:CacheIndexPredictor", "record_outcome"),
    ("dramcache.read", "repro.dramcache.alloy:AlloyCache", "read"),
    ("dramcache.read", "repro.dramcache.scc:SCCDRAMCache", "read"),
    ("dramcache.install", "repro.dramcache.alloy:AlloyCache", "install"),
    ("dramcache.install", "repro.dramcache.scc:SCCDRAMCache", "install"),
    ("dramcache.cset", "repro.dramcache.cset:CompressedSet", "insert"),
    ("dramcache.cset", "repro.dramcache.cset:CompressedSet", "would_fit"),
    ("dramcache.mapi", "repro.dramcache.mapi:MAPIPredictor", "predict_miss"),
    ("dramcache.mapi", "repro.dramcache.mapi:MAPIPredictor", "update"),
    ("dram.device", "repro.dram.device:DRAMDevice", "access"),
    ("dram.mainmemory", "repro.dram.mainmemory:MainMemory", "read"),
    ("dram.mainmemory", "repro.dram.mainmemory:MainMemory", "write"),
    ("dram.mainmemory", "repro.dram.mainmemory:MainMemory", "read_data"),
    ("cache.hierarchy", "repro.cache.hierarchy:OnChipHierarchy", "lookup"),
    ("cache.hierarchy", "repro.cache.hierarchy:OnChipHierarchy", "write"),
    ("cache.hierarchy", "repro.cache.hierarchy:OnChipHierarchy", "install"),
    ("cache.hierarchy", "repro.cache.hierarchy:OnChipHierarchy",
     "install_bonus"),
    ("sim.access", "repro.sim.system:MemorySystem", "handle_access"),
    ("sim", "repro.sim.engine", "run_workload"),
)

CAMPAIGN_LAYERS: Tuple[tuple, ...] = (
    # the CLI plans through harness/campaign.prefetch_experiments, which
    # imports build_plan from repro.exec; the daemon's _plan_submission
    # imports it from repro.exec.planner
    ("exec.plan", "repro.exec", "build_plan"),
    ("exec.plan", "repro.exec.planner", "build_plan"),
    ("exec.cache.read", "repro.exec.cache:ShardedResultCache", "read"),
    ("exec.cache.read", "repro.exec.cache:ShardedResultCache", "read_all"),
    ("exec.cache.write", "repro.exec.cache:ShardedResultCache", "write"),
    ("harness.lookup", "repro.harness.runner", "peek_cached"),
    ("harness.lookup", "repro.harness.runner", "cached_run"),
    ("harness.lookup", "repro.harness.experiments", "cached_run"),
    ("harness.render", "repro.harness.cli", "run_one"),
    ("service.store.get", "repro.service.store:ContentStore", "get"),
    ("service.store.put", "repro.service.store:ContentStore", "put"),
    ("service.store.put", "repro.service.store:ContentStore", "promote"),
)

GENERATORS = {("repro.workloads.base:TraceGenerator", "chunks")}
"""Generator methods: each item the generator yields is one span."""


def layer_names(table: Sequence[tuple]) -> List[str]:
    """The distinct metrics of a patch table, in table order."""
    return list(dict.fromkeys(row[0] for row in table))


class Recorder:
    """Per-thread span stacks; per-(id, metric) calls, total and self time."""

    def __init__(self) -> None:
        self.current = "setup"  # id of the cell or step now running
        self.spans: List[dict] = []  # the outer spans, one per id
        self._local = threading.local()
        self._tables: List[Dict[Tuple[str, str], list]] = []
        self._lock = threading.Lock()
        self._origin = time.perf_counter()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
        return state

    @contextmanager
    def span(self, span_id: str, name: str) -> Iterator[None]:
        """An outer span: sets the id that inner spans are filed under."""
        previous, self.current = self.current, span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.current = previous
            self.spans.append({
                "id": span_id, "name": name,
                "start_s": start - self._origin, "end_s": end - self._origin,
            })

    def wrap(self, metric: str, fn, absorb: str = ""):
        """``fn`` timed as a span of ``metric``."""
        absorb = absorb or metric
        perf = time.perf_counter
        state = self._state
        recorder = self

        def traced(*args, **kwargs):
            stack, table = state()
            if stack and stack[-1][0].startswith(absorb):
                return fn(*args, **kwargs)
            frame = [metric, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (recorder.current, metric)
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, metric: str, fn, absorb: str = ""):
        """A generator function whose every ``next`` is a span."""
        recorder = self

        def traced(*args, **kwargs):
            step = recorder.wrap(metric, fn(*args, **kwargs).__next__, absorb)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> Dict[str, List[float]]:
        """metric -> [calls, total_s, self_s] summed over ids and threads."""
        out: Dict[str, List[float]] = {}
        for table in self._tables:
            for (_id, metric), row in list(table.items()):
                acc = out.setdefault(metric, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += row[i]
        return out

    def by_id(self) -> Dict[str, Dict[str, dict]]:
        out: Dict[str, Dict[str, dict]] = {}
        for table in self._tables:
            for (span_id, metric), row in list(table.items()):
                slot = out.setdefault(span_id, {}).setdefault(
                    metric, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                slot["calls"] += row[0]
                slot["total_s"] += row[1]
                slot["self_s"] += row[2]
        return out

    def write(self, path: Path, **meta) -> None:
        """Write every span of the run as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**meta, "spans": self.spans, "layers": self.by_id()}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _owner(target: str):
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


@contextmanager
def patched(recorder: Recorder, table: Sequence[tuple]) -> Iterator[None]:
    """Wrap every call in ``table`` for the duration of the block."""
    saved = []
    try:
        for metric, target, attr, *rest in table:
            owner = _owner(target)
            if isinstance(owner, type):
                if attr not in owner.__dict__:
                    raise AttributeError(f"{target} defines no {attr!r}")
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            absorb = rest[0] if rest else ""
            if (target, attr) in GENERATORS:
                wrapper = recorder.wrap_generator(metric, original, absorb)
            else:
                wrapper = recorder.wrap(metric, original, absorb)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
