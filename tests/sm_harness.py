"""A lone ``SMCore`` on a stub memory system, ticked cycle by cycle.

The L1's load path (probe, MSHR merge, fill) runs inside ``SMCore``,
so the L1, SM and atomics tests check it by driving an SM and watching
which lines leave it as requests.
"""

from dataclasses import replace

from repro.cache.l1 import L1Cache
from repro.config.gpu import CacheConfig
from repro.config.presets import small_config
from repro.sim.request import AccessKind
from repro.sm.core import SMCore
from repro.sm.cta import DistributedCTAScheduler
from repro.sm.warp import MemAccess
from repro.vm.tlb import L2TLB, MMU, TranslationProvider
from repro.vm.walker import WalkerPool


class IdentityDriver(TranslationProvider):
    """Maps page ``v`` to frame ``v`` on first touch."""

    def __init__(self) -> None:
        self.mapped = set()

    def lookup_translation(self, vpage, sm_id):
        return vpage if vpage in self.mapped else None

    def handle_fault(self, vpage, sm_id):
        self.mapped.add(vpage)
        return vpage


def load(*targets):
    """A load of ``(vpage, line_in_page)`` targets."""
    return MemAccess(AccessKind.LOAD, tuple(targets))


def store(*targets):
    """A store of ``(vpage, line_in_page)`` targets."""
    return MemAccess(AccessKind.STORE, tuple(targets))


def atomic(*targets):
    """An atomic of ``(vpage, line_in_page)`` targets."""
    return MemAccess(AccessKind.ATOMIC, tuple(targets))


def make_mmu(gpu, driver=None):
    """A fresh MMU (own L2 TLB and walkers) over ``driver``."""
    tlb = gpu.tlb
    l2 = L2TLB(tlb.l2_entries, tlb.l2_ways, tlb.l2_latency)
    walkers = WalkerPool(tlb.page_walkers, tlb.walk_latency)
    return MMU(0, tlb, l2, walkers, driver or IdentityDriver())


class SMHarness:
    """SM 0 running one CTA whose warp ``i`` executes ``streams[i]``.

    Requests that leave the SM land in ``sent``, and ``log`` keeps
    their ``(kind, line_addr, req_id)`` as they left (a completed
    request goes back to the pool and may be reused).  ``reply`` hands
    a request back as the interconnect would.
    """

    def __init__(self, streams, sets=4, ways=2, mshr=4, mapped=()):
        gpu = small_config(num_channels=2,
                           warps_per_sm=max(4, len(streams)))
        gpu = replace(gpu, l1=CacheConfig(sets=sets, ways=ways,
                                          mshr_entries=mshr))
        self.gpu = gpu
        self.driver = IdentityDriver()
        self.driver.mapped.update(mapped)
        self.mmu = make_mmu(gpu, self.driver)
        self.sent = []
        self.log = []
        self.sm = SMCore(0, gpu, L1Cache(0, gpu.l1), self.mmu,
                         request_sink=self._sink)
        self.l1 = self.sm.l1
        scheduler = DistributedCTAScheduler(
            1, 1, len(streams), lambda cta, warp: iter(streams[warp]))
        self.sm.start_kernel(scheduler, set(), now=0)
        self.warps = list(self.sm._active_ctas[0].warps)
        self.cycle = 0

    def _sink(self, request):
        self.sent.append(request)
        self.log.append((request.kind, request.line_addr, request.req_id))
        return True

    def line(self, vpage, line_in_page):
        """The physical line a target maps to."""
        return vpage * self.sm._lines_per_page + line_in_page

    def run(self, cycles):
        """Tick the SM for ``cycles`` consecutive cycles."""
        for _ in range(cycles):
            self.sm.tick(self.cycle)
            self.cycle += 1

    def run_until(self, condition, limit=2000):
        """Tick until ``condition()`` holds; returns the cycle it held
        after (the cycle of the last tick)."""
        for _ in range(limit):
            self.sm.tick(self.cycle)
            self.cycle += 1
            if condition():
                return self.cycle - 1
        raise AssertionError("condition never held")

    def reply(self, request):
        """Deliver the reply of a request that left the SM."""
        assert self.sm.deliver_reply(request)

    def sent_kinds(self):
        """Kinds of the requests that left the SM, in order."""
        return [kind for kind, _, _ in self.log]
