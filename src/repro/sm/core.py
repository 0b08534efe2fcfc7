"""The SM core: issue logic, L1 interaction and CTA management.

Each cycle the SM:

1. drains memory replies (L1 fills, releasing waiting warps),
2. performs up to two L1 accesses for translated requests,
3. issues up to two instructions (one per GTO scheduler, Table 1).

Memory instructions go through address translation (per-SM MMU), then the
L1 data cache; misses are handed to the system router (``request_sink``)
which implements the architecture-specific path (crossbar for UBA, local
links or NoC for NUBA).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Set, Tuple

from repro.cache.l1 import L1Cache
from repro.config.gpu import GPUConfig
from repro.sim.engine import Component
from repro.sim.queues import BoundedQueue, DelayLine
from repro.sim import request as _request_mod
from repro.sim.request import (
    AccessKind,
    MemoryRequest,
    release as release_request,
)
from repro.sm.cta import CTA, DistributedCTAScheduler
from repro.sm.scheduler import GTOScheduler
from repro.sm.warp import Barrier, Compute, MemAccess, Warp
from repro.vm.tlb import MMU

#: Maximum requests waiting for translation/L1 before memory issue stalls
#: (models a finite load-store unit queue).
LSU_QUEUE_LIMIT = 48

#: How often (cycles) the SM scans for retired CTAs to refill.
CTA_REFILL_PERIOD = 8

#: "No warp self-advances" sentinel for the ready watermark (far
#: beyond any reachable cycle count).
_FAR = 1 << 60

#: Kernel-launch stagger between SMs (cycles). The GigaThread engine
#: distributes CTAs to SMs in order, so low-numbered SMs start (and
#: first-touch shared pages) earlier -- the effect behind first-touch's
#: skewed placement of shared pages (Section 4).
CTA_LAUNCH_STAGGER = 8


class SMCore(Component):
    """One Streaming Multiprocessor."""

    def __init__(
        self,
        sm_id: int,
        gpu: GPUConfig,
        l1: L1Cache,
        mmu: MMU,
        request_sink: Callable[[MemoryRequest], bool],
    ) -> None:
        super().__init__(f"sm{sm_id}")
        self.sm_id = sm_id
        self.gpu = gpu
        #: ``gpu.lines_per_page`` read once (a property on a frozen
        #: config), not once per memory instruction.
        self._lines_per_page = gpu.lines_per_page
        self.l1 = l1
        self.mmu = mmu
        self.request_sink = request_sink
        self.schedulers = [
            GTOScheduler(i) for i in range(gpu.sm.warp_schedulers)
        ]
        self._lsu: List[Tuple[int, int, MemoryRequest]] = []  # ready heap
        self._lsu_seq = 0
        self._out: BoundedQueue[MemoryRequest] = BoundedQueue(
            64, name=f"{self.name}.out"
        )
        self._replies: BoundedQueue[MemoryRequest] = BoundedQueue(
            64, name=f"{self.name}.replies"
        )
        self._hit_returns: DelayLine[MemoryRequest] = DelayLine(l1.latency)
        self._cta_source: Optional[DistributedCTAScheduler] = None
        self._active_ctas: List[CTA] = []
        self._launch_at = 0
        #: Floor on the next cycle any warp self-advances (compute
        #: latency expiry, replay, barrier release, post-store ready).
        #: Every ``warp.ready_at`` assignment lowers it; the verdict
        #: scan raises it back to the exact minimum when due, so the
        #: full warp scan runs only when a self-advance is imminent
        #: (see the tick tail).  0 == "unknown, must scan".
        self._next_self_ready = 0
        self._read_only_spaces: Set[str] = set()
        self._max_ctas = max(
            1, gpu.sm.warps_per_sm // max(1, self._warps_per_cta_guess())
        )

        # Statistics.
        self.instructions = 0
        self.loads_issued = 0
        self.loads_completed = 0
        self.stores_issued = 0
        self.stall_cycles = 0
        self.barriers_completed = 0

    def _warps_per_cta_guess(self) -> int:
        return 4  # refined when a kernel is attached

    # ------------------------------------------------------------------
    # Kernel attach / CTA management.
    # ------------------------------------------------------------------

    def start_kernel(
        self,
        cta_source: DistributedCTAScheduler,
        read_only_spaces: Set[str],
        now: int = 0,
    ) -> None:
        """Attach a kernel: its CTA scheduler and compiler annotations."""
        self._cta_source = cta_source
        self._read_only_spaces = read_only_spaces
        self._active_ctas = []
        self._launch_at = now + self.sm_id * CTA_LAUNCH_STAGGER
        self._next_self_ready = 0  # previous kernel's watermark is stale
        self._max_ctas = max(
            1, self.gpu.sm.warps_per_sm // cta_source.warps_per_cta
        )
        self._refill_ctas()
        if not self._slot.awake:
            self.wake()

    def _refill_ctas(self) -> None:
        if self._cta_source is None:
            return
        # Retire finished CTAs (single pass; the common periodic scan
        # finds nothing to retire and allocates no lists).
        retired = False
        for cta in self._active_ctas:
            if cta.finished:
                retired = True
                for warp in cta.warps:
                    self.schedulers[warp.sched_index].remove_warp(warp)
        if retired:
            self._active_ctas = [
                cta for cta in self._active_ctas if not cta.finished
            ]
        # Launch new CTAs while there are slots and work.
        while len(self._active_ctas) < self._max_ctas:
            cta = self._cta_source.next_cta(self.sm_id)
            if cta is None:
                break
            self._active_ctas.append(cta)
            # Fresh warps carry ready_at values that never crossed a
            # watermark site; force the next tick's full ready scan or
            # a stale (possibly far-future) watermark turns into a
            # timed sleep over runnable warps.
            self._next_self_ready = 0
            for index, warp in enumerate(cta.warps):
                warp.sched_index = index % len(self.schedulers)
                self.schedulers[warp.sched_index].add_warp(warp)

    @property
    def drained(self) -> bool:
        """True when this SM has fully drained its assigned work."""
        if self._active_ctas and not all(c.finished for c in self._active_ctas):
            return False
        if self._cta_source is not None and self._cta_source.remaining(self.sm_id):
            return False
        return not (self._lsu or self._out or self._replies)

    # ------------------------------------------------------------------
    # Reply ingress (called by links / NoC delivery).
    # ------------------------------------------------------------------

    def deliver_reply(self, request: MemoryRequest) -> bool:
        """Accept a memory reply from the interconnect."""
        if not self._slot.awake:
            self.wake()
        # BoundedQueue.push inlined (one call per reply).
        queue = self._replies
        items = queue._items
        occupancy = len(items)
        if occupancy >= queue.capacity:
            return False
        items.append(request)
        queue.total_pushed += 1
        occupancy += 1
        if occupancy > queue.peak_occupancy:
            queue.peak_occupancy = occupancy
        return True

    # ------------------------------------------------------------------
    # Per-cycle work.
    # ------------------------------------------------------------------

    def tick(self, now: int) -> object:
        if now < self._launch_at:
            return False  # must observe its staggered launch cycle
        if self._replies._items:
            self._drain_replies(now)
        hit_returns = self._hit_returns._items
        if hit_returns and hit_returns[0][0] <= now:
            while hit_returns and hit_returns[0][0] <= now:
                request = hit_returns.popleft()[1]
                # == request.complete(now), inlined on the hit path.
                request.complete_cycle = now
                callback = request.on_complete
                if callback is not None:
                    callback(request)
                self.loads_completed += 1
                release_request(request)
        if self._out._items:
            self._drain_out()
        if self._lsu:
            self._access_l1(now)
        issued = self._issue(now)
        if not now & (CTA_REFILL_PERIOD - 1):
            self._refill_ctas()
        # Activity verdict from end-of-tick state.  An SM that issued
        # this cycle is plainly active -- skip the verdict scan, the
        # dominant case while a kernel runs.  Queued replies or
        # outbound requests need per-cycle ticks; otherwise every
        # internal time-driven path (LSU heap, L1 hit returns, warps
        # waiting out compute latencies) matures at a known cycle, so
        # a stalled SM sleeps until the earliest of them -- a reply
        # delivery wakes it early.  Skipped cycles still count as
        # stall/idle cycles, reproduced exactly in on_skipped.
        if issued:
            return False
        if self._replies._items or self._out._items:
            return False
        deadline = -1
        lsu = self._lsu
        if lsu:
            ready_at = lsu[0][0]
            if ready_at <= now:
                return False  # matured beyond this cycle's port budget
            deadline = ready_at
        hit_items = self._hit_returns._items
        if hit_items:
            at = hit_items[0][0]
            if deadline < 0 or at < deadline:
                deadline = at
        next_ready = self._next_self_ready
        if next_ready <= now + 1:
            # The watermark is due: rescan.  (Above it, no warp can
            # self-advance -- every ready_at assignment lowers it.)
            next_ready = _FAR
            for scheduler in self.schedulers:
                for warp in scheduler._warps:
                    if (not warp.done and not warp.at_barrier
                            and warp.outstanding == 0):
                        ready_at = warp.ready_at
                        if ready_at <= now + 1:
                            return False  # issuable now or next cycle
                        if ready_at < next_ready:
                            next_ready = ready_at
            # Raise the watermark to the exact scan minimum; it only
            # drops again when a new ready_at is assigned.
            self._next_self_ready = next_ready
        # _FAR is "no warp self-advances", not a deadline: such an SM
        # waits for a reply, so it sleeps untimed.
        if next_ready < _FAR and (deadline < 0 or next_ready < deadline):
            deadline = next_ready
        ctas = self._active_ctas
        for cta in ctas:
            if cta.finished:
                return False  # the next refill scan would retire it
        source = self._cta_source
        if (source is not None and len(ctas) < self._max_ctas
                and source.remaining(self.sm_id)):
            return False  # the next refill scan would launch a CTA
        if deadline < 0:
            return True
        return deadline

    # -- activity contract ---------------------------------------------

    def on_skipped(self, cycles: int) -> None:
        """A blocked SM counts stall (and per-scheduler idle) cycles
        every strict-mode tick; reproduce them for skipped ticks."""
        self.stall_cycles += cycles
        for scheduler in self.schedulers:
            scheduler.idle_cycles += cycles

    def _drain_replies(self, now: int) -> None:
        replies = self._replies._items
        l1 = self.l1
        array_install = l1.array.install
        mshr_release = l1.mshr.release
        completed = 0
        while replies:
            request = replies.popleft()
            if request.kind is AccessKind.ATOMIC:
                # Atomics never allocated in the L1; complete directly
                # (== request.complete(now), inlined).
                request.complete_cycle = now
                callback = request.on_complete
                if callback is not None:
                    callback(request)
                completed += 1
                release_request(request)
                continue
            # == l1.fill(line_addr), inlined.  The carried reply
            # request is itself on the MSHR waiter list, so releasing
            # every waiter retires it too.
            line_addr = request.line_addr
            array_install(line_addr, dirty=False)
            for waiter in mshr_release(line_addr):
                # == waiter.complete(now), inlined.
                waiter.complete_cycle = now
                callback = waiter.on_complete
                if callback is not None:
                    callback(waiter)
                completed += 1
                release_request(waiter)
        self.loads_completed += completed

    def _drain_out(self) -> None:
        items = self._out._items
        sink = self.request_sink
        while items:
            if not sink(items[0]):
                break
            request = items.popleft()
            if self.tracer.enabled:
                self.tracer.emit(
                    "sm.miss", "sm", self.name,
                    args={
                        "req": request.req_id,
                        "kind": request.kind.value,
                        "line": request.line_addr,
                        "slice": request.home_slice,
                    },
                )

    def _access_l1(self, now: int) -> None:
        """Up to two L1 port accesses per cycle for translated requests.

        ``BoundedQueue.push`` on the miss queue, ``DelayLine.push`` on
        the hit-return line and ``L1Cache.access_load`` are inlined:
        the loop-top capacity check already guarantees space for this
        iteration's single push, and the load path (one call per
        coalesced line) replicates ``access_load`` branch for branch so
        hit/miss accounting stays exact.
        """
        lsu = self._lsu
        out = self._out
        out_items = out._items
        hit_items = self._hit_returns._items
        hit_delay = self._hit_returns.delay
        l1 = self.l1
        array_lookup = l1.array.lookup
        mshr = l1.mshr
        mshr_pending = mshr._pending
        heappop = heapq.heappop
        for _ in range(len(self.schedulers)):
            if not lsu or lsu[0][0] > now:
                return
            occupancy = len(out_items)
            if occupancy >= out.capacity:
                return  # cannot emit misses; try again next cycle
            ready_at, seq, request = heappop(lsu)
            kind = request.kind
            if kind is AccessKind.STORE:
                l1.access_store(request)
            elif kind is AccessKind.ATOMIC:
                # Atomics bypass the L1 and execute at the LLC
                # (Section 5.3); any cached copy becomes stale.
                l1.array.invalidate(request.line_addr)
            else:
                # == l1.access_load(request), inlined -- including the
                # MSHR allocate, whose accounting (merges/stalls/
                # allocations/peak) mirrors MSHRFile.allocate exactly.
                line_addr = request.line_addr
                if array_lookup(line_addr):
                    l1.load_hits += 1
                    request.hit_level = "l1"
                    hit_items.append((now + hit_delay, request))
                    continue
                waiters = mshr_pending.get(line_addr)
                if waiters is not None:
                    waiters.append(request)
                    mshr.merges += 1
                    l1.load_misses += 1
                    continue  # fill will complete the waiter
                mshr_occupancy = len(mshr_pending)
                if mshr_occupancy >= mshr.entries:
                    # L1 MSHRs full: retry shortly.
                    mshr.stalls += 1
                    heapq.heappush(lsu, (now + 4, seq, request))
                    return
                mshr_pending[line_addr] = [request]
                mshr.allocations += 1
                mshr_occupancy += 1
                if mshr_occupancy > mshr.peak_occupancy:
                    mshr.peak_occupancy = mshr_occupancy
                l1.load_misses += 1
                # A new miss falls through to the shared miss enqueue.
            out_items.append(request)
            out.total_pushed += 1
            occupancy += 1
            if occupancy > out.peak_occupancy:
                out.peak_occupancy = occupancy

    def _issue(self, now: int) -> int:
        issued = 0
        for scheduler in self.schedulers:
            # GTOScheduler.pick inlined (greedy first, else oldest) --
            # the call ran twice per awake-SM cycle and dominated the
            # issue path's profile; statistics match pick exactly.
            warp = scheduler._greedy
            if (warp is None or warp.done or warp.at_barrier
                    or warp.outstanding != 0 or warp.ready_at > now):
                warp = None
                for candidate in scheduler._warps:
                    if (not candidate.done and not candidate.at_barrier
                            and candidate.outstanding == 0
                            and candidate.ready_at <= now):
                        scheduler._greedy = candidate
                        warp = candidate
                        break
                if warp is None:
                    scheduler.idle_cycles += 1
                    continue
            scheduler.issues += 1
            # == warp.next_instruction(), with next()'s C-level default
            # instead of a method call plus try/except per fetch.
            instr = warp.stalled_instr
            if instr is not None:
                warp.stalled_instr = None
            else:
                instr = next(warp.stream, None)
                if instr is None:
                    warp.done = True
                    scheduler.notify_stall(warp)
                    continue
            issued += 1
            warp.instructions_issued += 1
            if type(instr) is Compute:
                ready_at = now + instr.cycles
                warp.ready_at = ready_at
                if ready_at < self._next_self_ready:
                    self._next_self_ready = ready_at
                continue
            if type(instr) is Barrier:
                self._arrive_at_barrier(warp, scheduler, now)
                continue
            self._issue_mem(warp, instr, scheduler, now)
        # Accumulated locally; an LSU-full replay inside _issue_mem
        # decrements self.instructions, and addition commutes, so the
        # end-of-tick value matches the per-issue increments exactly.
        if issued:
            self.instructions += issued
        else:
            self.stall_cycles += 1
        return issued

    def _issue_mem(
        self,
        warp: Warp,
        instr: MemAccess,
        scheduler: GTOScheduler,
        now: int,
    ) -> None:
        if len(self._lsu) > LSU_QUEUE_LIMIT:
            # LSU queue full: replay the instruction later.
            warp.stalled_instr = instr
            warp.ready_at = now + 2
            if now + 2 < self._next_self_ready:
                self._next_self_ready = now + 2
            self.instructions -= 1
            warp.instructions_issued -= 1
            scheduler.notify_stall(warp)
            return
        kind = instr.kind
        if kind is AccessKind.LOAD and instr.space in self._read_only_spaces:
            kind = AccessKind.LOAD_RO
        is_store = kind is AccessKind.STORE
        translate = self.mmu.translate
        lines_per_page = self._lines_per_page
        lsu = self._lsu
        heappush = heapq.heappush
        seq = self._lsu_seq
        sm_id = self.sm_id
        load_cb = None if is_store else warp.load_cb
        count = 0
        # ``request.acquire`` inlined (one call per coalesced line):
        # the field resets mirror the dataclass constructor exactly,
        # except that ``issue_cycle``/``on_complete`` skip the default
        # store because they are assigned real values right away.  The
        # pool list and id counter are re-read from the module each
        # call so fastlane resets and test reseeds stay visible.
        pool = _request_mod._pool
        req_ids = _request_mod._req_ids
        for vpage, line_in_page in instr.targets:
            ready_at, frame = translate(vpage, now)
            line_addr = frame * lines_per_page + line_in_page
            if pool:
                request = pool.pop()
                request.kind = kind
                request.line_addr = line_addr
                request.sm_id = sm_id
                request.req_id = next(req_ids)
                request.vpage = vpage
                request.home_slice = -1
                request.home_channel = -1
                request.owner_slice = -1
                request.src_partition = -1
                request.home_partition = -1
                request.is_local = False
                request.is_replica_access = False
                request.is_reply = False
                request.complete_cycle = -1
                request.hit_level = ""
            else:
                request = MemoryRequest(kind, line_addr, sm_id, vpage=vpage)
            request.issue_cycle = now
            request.on_complete = load_cb
            count += 1
            seq += 1
            heappush(lsu, (ready_at, seq, request))
        self._lsu_seq = seq
        if is_store:
            self.stores_issued += count
        else:
            self.loads_issued += count
            warp.block_on_loads(count)
            scheduler.notify_stall(warp)
        warp.ready_at = now + 1
        if now + 1 < self._next_self_ready:
            self._next_self_ready = now + 1

    def _arrive_at_barrier(self, warp: Warp, scheduler, now: int) -> None:
        """``bar.sync``: block the warp until its whole CTA arrives;
        releasing the barrier invalidates the L1 (software coherence at
        synchronisation boundaries, Section 5.3)."""
        warp.at_barrier = True
        scheduler.notify_stall(warp)
        cta = next(
            (c for c in self._active_ctas if c.cta_id == warp.cta_id), None
        )
        if cta is None:
            warp.at_barrier = False
            return
        if all(w.at_barrier or w.finished for w in cta.warps):
            for member in cta.warps:
                member.at_barrier = False
                member.ready_at = now + 1
            if now + 1 < self._next_self_ready:
                self._next_self_ready = now + 1
            self.l1.flush()
            self.barriers_completed += 1

    # ------------------------------------------------------------------
    # Coherence.
    # ------------------------------------------------------------------

    def flush_l1(self) -> None:
        """Kernel-boundary L1 invalidation (software coherence)."""
        self.l1.flush()
        self.mmu.flush()
