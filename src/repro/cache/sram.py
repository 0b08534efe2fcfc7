"""Set-associative cache arrays with LRU replacement.

The array is policy-free storage: it answers lookups, installs lines and
reports evictions. Write policies (write-through L1, write-back LLC) are
implemented by the cache controllers in :mod:`repro.cache.l1` and
:mod:`repro.cache.llc_slice`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional


@dataclass
class EvictedLine:
    """A line pushed out of the array by an install."""

    line_addr: int
    dirty: bool


class CacheArray:
    """A sets x ways array of cache lines with per-set LRU ordering.

    Lines are keyed by their *line address* (byte address / line size).
    Each set is an ``OrderedDict`` mapping line address to a dirty bit,
    ordered least- to most-recently used.
    """

    def __init__(self, sets: int, ways: int) -> None:
        if sets <= 0 or ways <= 0:
            raise ValueError("sets and ways must be positive")
        self.sets = sets
        self.ways = ways
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def set_index(self, line_addr: int) -> int:
        """The set a line address maps to."""
        return line_addr % self.sets

    def lookup(self, line_addr: int, mark_dirty: bool = False) -> bool:
        """Return True on hit; updates LRU order (and the dirty bit)."""
        # set_index is inlined here and below: lookup/install run for
        # every L1 and LLC access.
        line_set = self._sets[line_addr % self.sets]
        if line_addr in line_set:
            line_set.move_to_end(line_addr)
            if mark_dirty:
                line_set[line_addr] = True
            self.hits += 1
            return True
        self.misses += 1
        return False

    def probe(self, line_addr: int) -> bool:
        """Check presence without touching LRU order or statistics."""
        return line_addr in self._sets[line_addr % self.sets]

    def install(self, line_addr: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Install a line as MRU; returns the evicted victim, if any.

        Installing a line that is already present refreshes its LRU
        position and ORs in the dirty bit.
        """
        line_set = self._sets[line_addr % self.sets]
        if line_addr in line_set:
            line_set[line_addr] = line_set[line_addr] or dirty
            line_set.move_to_end(line_addr)
            return None
        victim = None
        if len(line_set) >= self.ways:
            victim_addr, victim_dirty = line_set.popitem(last=False)
            victim = EvictedLine(victim_addr, victim_dirty)
            self.evictions += 1
        line_set[line_addr] = dirty
        return victim

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (coherence invalidation); returns True if present."""
        line_set = self._sets[line_addr % self.sets]
        if line_addr in line_set:
            del line_set[line_addr]
            return True
        return False

    def flush(self) -> List[EvictedLine]:
        """Drop every line; returns the dirty ones (write-back flush)."""
        dirty_lines = []
        for line_set in self._sets:
            for line_addr, dirty in line_set.items():
                if dirty:
                    dirty_lines.append(EvictedLine(line_addr, True))
            line_set.clear()
        return dirty_lines

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        if accesses == 0:
            return 0.0
        return self.hits / accesses

    def lines_in_set(self, index: int) -> List[int]:
        """The line addresses currently cached in one set."""
        return list(self._sets[index])
