"""Warps and the instruction stream they execute.

A warp executes a lazily generated instruction stream. Two instruction
kinds exist at this abstraction level:

* :class:`Compute` -- occupies the warp for a number of issue cycles
  (arithmetic, shared-memory work, control flow);
* :class:`MemAccess` -- a coalesced global-memory access touching one or
  more 128 B lines, identified by ``(vpage, line_in_page)`` pairs plus the
  data structure it reads (for compiler-driven read-only marking).

Loads block the warp until every line returns; stores are fire-and-forget
(write-through L1, software coherence). This captures the GPU execution
model property NUBA relies on: with enough warps per SM, performance is
bandwidth-bound, not latency-bound (Section 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

from repro.sim.request import AccessKind


@dataclass(frozen=True)
class Compute:
    """Non-memory work occupying the warp for ``cycles`` issue slots."""

    cycles: int = 1


@dataclass(frozen=True)
class Barrier:
    """CTA-wide synchronisation (``bar.sync``).

    Every warp of the CTA must arrive before any proceeds. At the
    barrier the SM invalidates its L1 (software coherence, Section 5.3:
    "at synchronization boundaries ... the SMs flush their L1 cache").
    """


@dataclass(frozen=True)
class MemAccess:
    """A coalesced memory instruction.

    ``targets`` are ``(vpage, line_in_page)`` pairs -- one entry per cache
    line the 32 lanes coalesced into. ``space`` names the data structure
    being accessed so the compiler pass can mark read-only instructions.
    """

    kind: AccessKind
    targets: Tuple[Tuple[int, int], ...]
    space: str = ""


Instruction = Union[Compute, MemAccess, Barrier]


class Warp:
    """One warp's execution state inside an SM."""

    __slots__ = (
        "warp_id",
        "cta_id",
        "stream",
        "ready_at",
        "outstanding",
        "done",
        "stalled_instr",
        "instructions_issued",
        "sched_index",
        "at_barrier",
        "load_cb",
    )

    def __init__(self, warp_id: int, cta_id: int,
                 stream: Iterator[Instruction]) -> None:
        self.warp_id = warp_id
        self.cta_id = cta_id
        self.stream = stream
        self.ready_at = 0
        self.outstanding = 0  # loads in flight
        self.done = False
        #: Memory instruction that could not fully issue (MSHR/queue
        #: stall); retried before advancing the stream.
        self.stalled_instr: Optional[MemAccess] = None
        self.instructions_issued = 0
        #: Which SM scheduler this warp was assigned to (set at launch).
        self.sched_index = 0
        #: True while the warp waits at a CTA barrier (Section 5.3).
        self.at_barrier = False
        #: Pre-bound completion callback of the requests this warp's
        #: loads and atomics send out of the SM; binding
        #: ``load_returned`` per request would allocate a method object
        #: each time.
        self.load_cb = self.load_returned

    def block_on_loads(self, count: int) -> None:
        """Stall the warp until ``count`` loads return."""
        self.outstanding += count

    def load_returned(self, _request: object = None) -> None:
        """One in-flight load finished (usable as a request callback)."""
        if self.outstanding <= 0:
            raise RuntimeError("load return for a warp with none in flight")
        self.outstanding -= 1

    @property
    def finished(self) -> bool:
        """Stream exhausted and no loads in flight."""
        return self.done and self.outstanding == 0


def make_stream(instructions: Sequence[Instruction]) -> Iterator[Instruction]:
    """Wrap a concrete instruction list as a stream (tests, small kernels)."""
    return iter(instructions)
