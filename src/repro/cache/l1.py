"""The per-SM L1 data cache.

Write-through, write-no-allocate, 128 MSHR entries (Table 1). Stores are
forwarded downstream without allocating; loads allocate MSHR entries and
merge. GPUs use software coherence, so the L1 is flushed (invalidated) at
kernel boundaries (Section 5.3).
"""

from __future__ import annotations

from repro.cache.mshr import MSHRFile
from repro.cache.sram import CacheArray
from repro.config.gpu import CacheConfig
from repro.sim.request import MemoryRequest


class L1Cache:
    """Write-through write-no-allocate L1 data cache."""

    def __init__(self, sm_id: int, config: CacheConfig) -> None:
        self.sm_id = sm_id
        self.config = config
        self.array = CacheArray(config.sets, config.ways)
        self.mshr = MSHRFile(config.mshr_entries, name=f"l1.{sm_id}.mshr")
        self.latency = config.latency
        self.load_hits = 0
        self.load_misses = 0
        self.stores = 0
        self.flushes = 0

    def access_store(self, request: MemoryRequest) -> None:
        """Write through: update the line if present (no allocate)."""
        self.stores += 1
        # Write-through keeps a present line valid and up to date; the
        # line stays clean because the LLC receives the data too.
        self.array.lookup(request.line_addr)

    def flush(self) -> None:
        """Invalidate all lines (software coherence, kernel boundary)."""
        self.array.flush()
        self.flushes += 1

    @property
    def load_hit_rate(self) -> float:
        total = self.load_hits + self.load_misses
        if total == 0:
            return 0.0
        return self.load_hits / total
