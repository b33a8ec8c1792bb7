"""Workload profiles and the unified trace generator.

A profile captures the three properties that determine how a workload
responds to DRAM-cache compression (see DESIGN.md):

* intensity and footprint — Table 3's L3 MPKI and memory footprint;
* access pattern — how much spatial locality (sequential run lengths) and
  temporal locality (a hot region of given size, hit with given probability)
  the L3-access stream has;
* compressibility — a per-page data-class distribution calibrated to Fig 4.

The generator emits the L3 access stream (the paper's simulator sees the
same granularity from its PinPoint slices): tuples of line address,
read/write, a synthetic PC (for MAP-I), and the instruction gap since the
previous access (for the core timing model).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple

from repro.config import LINE_SIZE
from repro.workloads.data import LineDataFactory

_PAGE_SALT = 0xD1CE_CAFE_F00D


def _stable_hash(text: str) -> int:
    """Process-independent string hash (builtin hash() is salted)."""
    return zlib.crc32(text.encode("utf-8"))


class Access(NamedTuple):
    """One L3 access from one core's trace.

    A NamedTuple rather than a dataclass: the engine materializes millions
    of these on its inner loop, and tuple records are both cheaper to
    allocate and free of per-instance ``__dict__``.
    """

    line_addr: int
    is_write: bool
    pc: int
    inst_gap: int  # instructions retired since the previous access


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything needed to synthesize one benchmark's behaviour."""

    name: str
    suite: str  # "spec" | "gap" | "nonint"
    footprint_bytes: int  # paper-scale footprint (Table 3)
    l3_mpki: float  # paper-scale L3 miss rate (Table 3)
    seq_run: float = 4.0  # mean sequential run length in lines
    hot_fraction: float = 0.6  # probability an access targets the hot region
    hot_ratio: float = 0.1  # hot-region size as a fraction of the footprint
    write_frac: float = 0.25
    zipf_hot: bool = False  # zipf-like skew inside the hot region (graphs)
    rereference: float = 0.33  # probability of a short-distance re-access
    class_weights: Dict[str, float] = field(
        default_factory=lambda: {"rand": 1.0}
    )

    @property
    def per_core_divisor(self) -> int:
        """Table 3 footprints cover 8 rate-mode copies; each core owns 1/8."""
        return 8

    INTENSITY = 0.5
    """Global access-intensity factor, calibrated (with the core model)
    against Fig 1(f): the scaled machine reaches DDR saturation at a lower
    absolute rate than the paper's, so the raw Table 3 rates overdrive it."""

    @property
    def l3_apki(self) -> float:
        """L3 *accesses* per kilo-instruction.

        Table 3 reports L3 misses; with the paper's average baseline L3 hit
        rate of 37% (Table 6), accesses ~= misses / 0.63.
        """
        return self.l3_mpki / 0.63 * self.INTENSITY

    def footprint_lines(self, scale: int) -> int:
        """Per-core footprint in lines after system scaling.

        The floor keeps heavily scaled small-footprint workloads (sphinx,
        libq) from collapsing to a handful of pages, which would erase both
        their class diversity and their set-conflict behaviour.
        """
        return max(
            128, self.footprint_bytes // self.per_core_divisor // scale // LINE_SIZE
        )


class TraceGenerator:
    """Deterministic, endless L3-access stream for one core."""

    def __init__(
        self,
        profile: WorkloadProfile,
        scale: int,
        seed: int = 0,
        core_offset: int = 0,
    ) -> None:
        self.profile = profile
        self.scale = scale
        self.seed = seed
        self.core_offset = core_offset
        self.footprint = profile.footprint_lines(scale)
        self.hot_lines = max(16, int(self.footprint * profile.hot_ratio))
        # Hot region starts even-aligned so spatial pairs stay inside it.
        self.hot_base = 0
        self.data = LineDataFactory(
            profile.class_weights, seed=_stable_hash(profile.name) & 0xFFFF
        )
        # initial contents already synthesized, by local line address; a
        # run points this at its line store's table for ``self.data``
        self.lines: Dict[int, bytes] = {}
        self._rng = random.Random(
            (seed * 1_000_003) ^ _stable_hash(profile.name)
        )
        self._gap_mean = max(1.0, 1000.0 / profile.l3_apki)
        self._stream_pos = self._rng.randrange(self.footprint)
        self._page_table: Dict[int, int] = {}
        self._translate_seed = _PAGE_SALT ^ (seed * 0x9E3779B1)

    LINES_PER_PAGE = 64  # 4 KB pages

    def translate(self, virtual_line: int) -> int:
        """Virtual -> physical line translation at page granularity.

        The paper models a virtual memory system (Sec 3.1); without it, the
        8 rate-mode copies — whose virtual footprints are identical — would
        collide onto the same cache sets.  Pages keep their internal layout
        (spatial pairs survive, which BAI relies on) but land at hashed
        physical frames.
        """
        page, offset = divmod(virtual_line, self.LINES_PER_PAGE)
        frame = self._page_table.get(page)
        if frame is None:
            h = page * 0x9E3779B97F4A7C15 ^ self._translate_seed
            h = (h ^ (h >> 31)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
            frame = (h >> 17) & ((1 << 26) - 1)
            self._page_table[page] = frame
        return frame * self.LINES_PER_PAGE + offset

    def line_data(self, line_addr: int) -> bytes:
        """Initial memory contents for a (physical) line of this workload."""
        local = line_addr - self.core_offset
        data = self.lines.get(local)
        if data is None:
            data = self.lines[local] = self.data.line_data(local)
        return data

    def _zipf_offset(self, span: int) -> int:
        """Heavily skewed offset in [0, span): frequency ~ 1/rank."""
        u = self._rng.random()
        # inverse-CDF of a truncated pareto-ish distribution
        return min(span - 1, int(span * (u ** 3)))

    def _run_start(self) -> int:
        rng = self._rng
        if rng.random() < self.profile.hot_fraction:
            span = self.hot_lines
            if self.profile.zipf_hot:
                start = self.hot_base + self._zipf_offset(span)
            else:
                start = self.hot_base + rng.randrange(span)
            return start
        # Cold access: advance a streaming cursor with occasional jumps so
        # cold traffic has the profile's spatial locality but little reuse.
        if rng.random() < 0.2:
            self._stream_pos = rng.randrange(self.footprint)
        return self._stream_pos

    DEFAULT_CHUNK = 64
    """Accesses per refill.  A run draws fewer than this many per core
    beyond what it serves, so a short job synthesizes little traffic it
    never simulates."""

    def chunks(self, size: int = DEFAULT_CHUNK) -> Iterator[List[Access]]:
        """Batched view of the endless stream for tight consumer loops.

        Yields a list of ``size`` accesses drawn from :meth:`__iter__` —
        the exact same access sequence, so any consumer switching between
        the per-access and chunked APIs sees bit-identical traffic.  The
        buffer is preallocated once and *reused* across yields; consumers
        must finish with one chunk before requesting the next and must not
        hold references to it across iterations.
        """
        if size <= 0:
            raise ValueError("chunk size must be positive")
        source = iter(self)
        buf: List[Access] = [None] * size  # type: ignore[list-item]
        while True:
            for i in range(size):
                buf[i] = next(source)
            yield buf

    def __iter__(self) -> Iterator[Access]:
        rng = self._rng
        profile = self.profile
        run_mean = max(1.0, profile.seq_run)
        recent: list = []  # small window feeding short-distance re-accesses
        while True:
            # Short-distance rereference: L2-miss streams revisit lines at
            # reuse distances the L3 captures (paper Table 6: 37% base L3
            # hit rate).  A small recency window reproduces that.
            if recent and rng.random() < profile.rereference:
                line = recent[rng.randrange(len(recent))]
                gap = max(0, int(rng.expovariate(1.0 / self._gap_mean)))
                yield Access(
                    line_addr=line,
                    is_write=rng.random() < profile.write_frac,
                    pc=0x3000 + (line & 0x3F),
                    inst_gap=gap,
                )
                continue
            start = self._run_start()
            in_hot = start < self.hot_lines
            run_len = 1 + int(rng.expovariate(1.0 / run_mean)) if run_mean > 1 else 1
            pc_base = 0x1000 if in_hot else 0x2000
            pc = pc_base + ((((start >> 6) * 2654435761) ^ int(in_hot)) & 0x3F)
            for i in range(run_len):
                line = start + i
                if in_hot:
                    if line >= self.hot_base + self.hot_lines:
                        break
                else:
                    line %= self.footprint
                    self._stream_pos = (line + 1) % self.footprint
                gap = max(0, int(rng.expovariate(1.0 / self._gap_mean)))
                addr = self.core_offset + self.translate(line)
                recent.append(addr)
                if len(recent) > 48:
                    recent.pop(0)
                yield Access(
                    line_addr=addr,
                    is_write=rng.random() < profile.write_frac,
                    pc=pc,
                    inst_gap=gap,
                )
