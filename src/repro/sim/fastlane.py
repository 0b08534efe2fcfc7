"""Busy-path fast-lane switchboard (docs/PERFORMANCE.md, "Busy path").

The quiescence engine made *idle* cycles nearly free; the caches
gated here attack the *busy* path instead: per-request Python work
that dominates saturated NUBA runs.  Three independent optimisations,
each provably result-neutral (the equivalence arguments live next to
each implementation and in docs/PERFORMANCE.md):

* ``intern_bodies`` -- interning of deterministic warp instruction
  bodies (:mod:`repro.workloads.patterns`).
* ``request_pool`` -- a :class:`~repro.sim.request.MemoryRequest`
  freelist recycled at retirement (:mod:`repro.sim.request`).
* ``route_table`` -- per-frame memoisation of channel/slice/bank
  routing (:mod:`repro.vm.address_map`).

All three are on by default.  ``disabled()`` is the debugging escape
hatch mirroring ``Simulator(strict=True)``: it turns every flag off
*and* clears every registered cache so a suspected fast-lane bug can
be bisected against the plain path.  Equivalence is enforced by
tests/test_fastlane_equivalence.py: fast-lane on vs. strict mode with
the fast lane disabled must produce field-identical results, stats
snapshots and tracer event streams.

Some consumers snapshot a flag at construction time (the
address-map memo gate); ``disabled()`` is therefore meant to wrap
*system construction plus the run*, which is how the
equivalence tests use it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List


class FastLaneFlags:
    """The three independent fast-lane switches (all default on)."""

    __slots__ = ("intern_bodies", "request_pool", "route_table")

    def __init__(self) -> None:
        self.intern_bodies = True
        self.request_pool = True
        self.route_table = True

    def snapshot(self) -> dict:
        """The current flag values as a plain dict."""
        return {name: getattr(self, name) for name in self.__slots__}

    def restore(self, snapshot: dict) -> None:
        """Restore flag values captured by :meth:`snapshot`."""
        for name, value in snapshot.items():
            setattr(self, name, value)

    def set_all(self, value: bool) -> None:
        """Set every flag to ``value``."""
        for name in self.__slots__:
            setattr(self, name, value)


#: Process-wide flags read by the cache implementations.
FLAGS = FastLaneFlags()

#: Clearers for every process-wide fast-lane cache (interned bodies,
#: the request freelist); per-object caches (address-map memos) die
#: with their owners and need no registration.
_cache_clearers: List[Callable[[], None]] = []


#: Hot-path classes held to the `repro lint` hot-class contract
#: (H001/H002 in docs/LINT.md): must declare ``__slots__`` (or be a
#: dataclass, slotted on 3.10+ via ``_DATACLASS_KWARGS``) and must not
#: create attributes outside ``__init__``.  Entries are
#: ``"module:ClassName"``.  The registry lives next to the flags on
#: purpose: adding a flag-gated optimisation and registering the
#: classes it touches happen in the same diff.
HOT_CLASSES = (
    "repro.sim.engine:_Slot",
    "repro.sim.queues:BoundedQueue",
    "repro.sim.queues:DelayLine",
    "repro.sim.queues:BandwidthLink",
    "repro.sim.request:MemoryRequest",
    "repro.sim.request:RequestTracker",
    "repro.sim.stats:Histogram",
    "repro.sim.stats:StatsRegistry",
    "repro.sim.fastlane:FastLaneFlags",
    "repro.sm.warp:Warp",
    "repro.sm.cta:CTA",
    "repro.sm.scheduler:GTOScheduler",
    "repro.mem.dram:Bank",
    "repro.vm.tlb:L1TLB",
    "repro.obs.profiler:_TickProxy",
)


def register_cache(clearer: Callable[[], None]) -> Callable[[], None]:
    """Register (and return) a cache clearer; usable as a decorator."""
    _cache_clearers.append(clearer)
    return clearer


def reset() -> None:
    """Drop the contents of every registered fast-lane cache."""
    for clearer in _cache_clearers:
        clearer()


@contextmanager
def disabled():
    """Run a block with every fast-lane optimisation off.

    Caches are cleared on entry (so the block never observes stale
    fast-lane state) and again on exit (so nothing populated while
    disabled leaks into re-enabled runs).
    """
    saved = FLAGS.snapshot()
    FLAGS.set_all(False)
    reset()
    try:
        yield
    finally:
        FLAGS.restore(saved)
        reset()
