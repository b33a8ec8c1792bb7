"""What no design changes, kept from one run to the next.

A line's initial bytes depend only on its workload's data profile and its
address, and its compressed sizes depend only on its bytes.  A campaign
replays each workload under many designs, so every process keeps one
:class:`LineStore` (:func:`process_store`) and every run it executes draws
from it: each line is synthesized once and each distinct content sized
once per process, not once per run.  A forked pool worker starts from its
parent's store, copy-on-write; the parents that fork workers (``cli`` and
the campaign daemon) never simulate, so theirs is empty.

Runs still build their own trace generators, compressors and caches; they
only read and fill the store's tables, so every result is bit-identical
to a run on a fresh store, and a worker crash loses only the memo.
Stored-to data never enters the store: it stays in the run's own
``MainMemory``.

The store is not thread-safe (its memos refresh recency with ``del`` then
re-insert), which holds because a process runs one simulation at a time.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.workloads.data import LineDataFactory

DEFAULT_MAX_LINES = 1 << 16
"""Initial line contents a store keeps across runs (about 11 MB, at the
169 B per line measured).

A run's own factories are never evicted, however many lines they hold, so
a mix's eight members always fit; the bound applies to what earlier runs
left behind."""


class LineStore:
    """Initial line contents, hybrid sizes and pair sizes, across runs.

    * ``line_tables`` hands a run one table per data factory, keyed by
      local line address.  Tables are evicted whole, least recently used
      first, once the store holds more than ``max_lines`` lines.
    * ``sizes`` is the hybrid compressor's size memo and ``pairs`` the
      pair-size memo; each run's :class:`~repro.compression.base.CodecMemo`
      and :class:`~repro.dramcache.cset.PairSizeCache` bound them by entry
      count and keep their own hit and miss counters.
    """

    def __init__(self, max_lines: int = DEFAULT_MAX_LINES) -> None:
        self.max_lines = max_lines
        self.sizes: Dict[bytes, int] = {}
        self.pairs: Dict[Tuple[bytes, bytes], int] = {}
        # factory key -> {local line address: initial bytes}; dict order
        # is recency, least recently used first
        self._tables: Dict[Hashable, Dict[int, bytes]] = {}

    @property
    def lines(self) -> int:
        """Initial line contents held, over every table."""
        return sum(len(table) for table in self._tables.values())

    def line_tables(
        self, factories: Sequence[LineDataFactory]
    ) -> List[Dict[int, bytes]]:
        """One table per factory, for a run about to start.

        Factories with equal keys (every core of a rate-mode workload)
        share a table.  The run's tables become the most recently used,
        then older tables are evicted until the store is within its bound
        or only the run's own remain.
        """
        tables = self._tables
        own = []
        for factory in factories:
            key = factory.key
            table = tables.pop(key, None)
            tables[key] = {} if table is None else table
            own.append(key)
        held = self.lines
        for key in list(tables):
            if held <= self.max_lines or key in own:
                break
            held -= len(tables.pop(key))
        return [tables[key] for key in own]


_PROCESS_STORE = LineStore()


def process_store() -> LineStore:
    """The store every run in this process draws on unless handed one."""
    return _PROCESS_STORE
