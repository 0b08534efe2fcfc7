"""Miss Status Holding Registers.

An MSHR file tracks outstanding misses. Requests to a line that already
has an entry merge into it (no duplicate memory traffic); a full MSHR file
stalls the requester, which is one of the structural hazards that make
high-bandwidth local LLC slices valuable in NUBA.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from repro.sim.request import MemoryRequest


class MSHROutcome(enum.Enum):
    #: A new entry was allocated; the miss must be sent downstream.
    ALLOCATED = "allocated"
    #: Merged into an existing entry; no downstream traffic needed.
    MERGED = "merged"
    #: The file is full; the requester must stall and retry.
    FULL = "full"


class MSHRFile:
    """A bounded file of per-line miss entries with request merging."""

    def __init__(self, entries: int, name: str = "mshr") -> None:
        if entries <= 0:
            raise ValueError("MSHR file needs at least one entry")
        self.entries = entries
        self.name = name
        #: line -> waiters.  An LLC entry lists requests.  An L1 entry
        #: (driven inline by ``SMCore``) holds the carried request
        #: followed by the warps of the loads merged into it.
        self._pending: Dict[int, list] = {}
        self.allocations = 0
        self.merges = 0
        self.stalls = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, line_addr: int) -> bool:
        return line_addr in self._pending

    @property
    def full(self) -> bool:
        return len(self._pending) >= self.entries

    def allocate(self, request: MemoryRequest) -> MSHROutcome:
        """Track a missing request; see :class:`MSHROutcome`."""
        pending = self._pending
        waiters = pending.get(request.line_addr)
        if waiters is not None:
            waiters.append(request)
            self.merges += 1
            return MSHROutcome.MERGED
        occupancy = len(pending)
        if occupancy >= self.entries:
            self.stalls += 1
            return MSHROutcome.FULL
        pending[request.line_addr] = [request]
        self.allocations += 1
        occupancy += 1
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        return MSHROutcome.ALLOCATED

    def release(self, line_addr: int) -> List[MemoryRequest]:
        """Free the entry for a filled line; returns all merged waiters."""
        waiters = self._pending.pop(line_addr, None)
        if waiters is None:
            raise KeyError(f"no MSHR entry for line 0x{line_addr:x}")
        return waiters
