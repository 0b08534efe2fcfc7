"""Warp scheduling: Greedy-Then-Oldest (Table 1).

GTO keeps issuing from the same warp until it stalls (memory dependence
or stream end) and then switches to the oldest ready warp. Each SM has
two schedulers, i.e. up to two issue slots per cycle; warps are split
between the schedulers by parity, as in GPGPU-sim.

A :class:`GTOScheduler` holds one scheduler's warps, its greedy warp and
its counters; ``SMCore._issue`` applies the policy to them each cycle.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sm.warp import Warp


class GTOScheduler:
    """One GTO scheduler instance managing a subset of an SM's warps."""

    __slots__ = ("scheduler_id", "_warps", "_greedy", "issues",
                 "idle_cycles")

    def __init__(self, scheduler_id: int = 0) -> None:
        self.scheduler_id = scheduler_id
        #: Warps in age order (index 0 = oldest).
        self._warps: List[Warp] = []
        self._greedy: Optional[Warp] = None
        self.issues = 0
        self.idle_cycles = 0

    def add_warp(self, warp: Warp) -> None:
        """Register a warp (appended as youngest)."""
        self._warps.append(warp)

    def remove_warp(self, warp: Warp) -> None:
        """Deregister a retired warp."""
        self._warps.remove(warp)
        if self._greedy is warp:
            self._greedy = None

    @property
    def warps(self) -> List[Warp]:
        return list(self._warps)

    def notify_stall(self, warp: Warp) -> None:
        """The issued warp stalled; its next issue slot goes to the
        oldest ready warp."""
        if self._greedy is warp:
            self._greedy = None
