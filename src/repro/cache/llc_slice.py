"""The LLC slice microarchitecture (Figure 5).

A slice owns a tag/data array that can perform one access per cycle, a
Local Memory Request (LMR) queue fed by the partition's point-to-point
links, a Remote Memory Request (RMR) queue fed by the inter-partition NoC,
and an MSHR file. A round-robin arbiter alternates between the LMR and
RMR queues when both hold requests (step 4 in Figure 5); fills returning
from memory have priority because they free MSHRs and unblock the most
work per port cycle.

The slice is architecture-agnostic: the system builder wires the routing
callbacks (``reply_sink``, ``miss_sink``, ``replica_miss_sink``,
``writeback_sink``) so the same component serves memory-side UBA, SM-side
UBA and NUBA.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.cache.mshr import MSHRFile, MSHROutcome
from repro.cache.sram import CacheArray
from repro.config.gpu import CacheConfig
from repro.sim.engine import Component
from repro.sim.queues import BoundedQueue, DelayLine
from repro.sim.request import (
    AccessKind,
    MemoryRequest,
    release as release_request,
)

#: Sink callbacks return False when the downstream structure is full.
Sink = Callable[[MemoryRequest], bool]


class LLCSlice(Component):
    """One LLC slice: 96 KB, 16-way, 48 sets, write-back (Table 1)."""

    #: Fill-queue operations: (kind, payload) where kind is "fill",
    #: "replica" or "inval".
    _FILL, _REPLICA, _INVAL = "fill", "replica", "inval"

    def __init__(
        self,
        slice_id: int,
        config: CacheConfig,
        queue_capacity: int = 32,
    ) -> None:
        super().__init__(f"llc{slice_id}")
        self.slice_id = slice_id
        self.config = config
        self.array = CacheArray(config.sets, config.ways)
        self.mshr = MSHRFile(config.mshr_entries, name=f"{self.name}.mshr")
        self.lmr = BoundedQueue(queue_capacity, name=f"{self.name}.lmr")
        self.rmr = BoundedQueue(queue_capacity, name=f"{self.name}.rmr")
        self.fill_queue = BoundedQueue(
            queue_capacity * 2, name=f"{self.name}.fill"
        )
        #: Pipelined access latency: actions take effect ``latency``
        #: cycles after the port cycle of the array access.
        self._pipeline = DelayLine(config.latency)
        self._retry_replies: Deque[MemoryRequest] = deque()
        self._retry_misses: Deque[MemoryRequest] = deque()
        self._rr_pick_local = True

        # Routing callbacks, wired by the system builder.
        self.reply_sink: Optional[Sink] = None
        self.miss_sink: Optional[Sink] = None
        self.replica_miss_sink: Optional[Sink] = None
        self.writeback_sink: Optional[Callable[[int], bool]] = None

        # Statistics.
        self.hits = 0
        self.misses = 0
        self.local_accesses = 0
        self.remote_accesses = 0
        self.replica_hits = 0
        self.replica_fills = 0
        self.writebacks = 0
        self.invalidations = 0
        self.port_cycles = 0
        self.flush_ops = 0

    # ------------------------------------------------------------------
    # Ingress (called by links / NoC delivery).
    # ------------------------------------------------------------------

    def accept_local(self, request: MemoryRequest) -> bool:
        """Enqueue a request arriving over the partition link (LMR)."""
        if not self._slot.awake:
            self.wake()
        # BoundedQueue.push inlined (one call per delivered request).
        queue = self.lmr
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

    def accept_remote(self, request: MemoryRequest) -> bool:
        """Enqueue a request arriving over the NoC (RMR)."""
        if not self._slot.awake:
            self.wake()
        # BoundedQueue.push inlined (one call per delivered request).
        queue = self.rmr
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

    def fill(self, request: MemoryRequest) -> bool:
        """Data returned from memory (or a remote home slice for replica
        misses); releases MSHR waiters when processed."""
        if not self._slot.awake:
            self.wake()
        return self.fill_queue.push((self._FILL, request))

    def fill_replica(self, line_addr: int) -> bool:
        """Install a read-only replica without waiters (MDR, Section 5.2)."""
        if not self._slot.awake:
            self.wake()
        return self.fill_queue.push((self._REPLICA, line_addr))

    def invalidate(self, line_addr: int) -> bool:
        """Coherence invalidation (SM-side UBA cross-partition stores)."""
        if not self._slot.awake:
            self.wake()
        return self.fill_queue.push((self._INVAL, line_addr))

    def flush(self) -> list:
        """Kernel-boundary flush (Section 5.3); returns the dirty lines.

        The system pushes the returned dirty lines into the memory
        controller as writebacks so the flush cost is modelled faithfully.
        """
        dirty = self.array.flush()
        self.flush_ops += 1
        return [line.line_addr for line in dirty]

    # ------------------------------------------------------------------
    # Per-cycle work.
    # ------------------------------------------------------------------

    def tick(self, now: int) -> object:
        # The deque objects are stable (mutated in place), so the
        # hoisted locals stay valid across the drain/arbitrate calls
        # and the activity verdict reads them instead of re-walking the
        # attribute chains.
        retry_replies = self._retry_replies
        retry_misses = self._retry_misses
        if retry_replies or retry_misses:
            self._drain_retries()
        pipeline = self._pipeline._items
        if pipeline and pipeline[0][0] <= now:
            self._deliver_pipeline(now)
        fill_items = self.fill_queue._items
        lmr_items = self.lmr._items
        rmr_items = self.rmr._items
        if fill_items or lmr_items or rmr_items:
            self._arbitrate(now)
        # Activity verdict from end-of-tick state: queued requests,
        # fills and blocked retries need per-cycle ticks; a pipeline
        # with nothing else pending matures at a known cycle (the
        # delivery sweep above guarantees remaining heads are in the
        # future), so the slice sleeps until then -- any ingress push
        # (request, fill, invalidate) wakes it early.  Outstanding MSHR
        # entries alone do not keep it awake: misses in flight need no
        # tick until their fill arrives.
        if (lmr_items or rmr_items or fill_items
                or retry_replies or retry_misses):
            return False
        if pipeline:
            return pipeline[0][0]
        return True

    def _drain_retries(self) -> None:
        while self._retry_replies:
            if not self.reply_sink(self._retry_replies[0]):
                break
            self._retry_replies.popleft()
        while self._retry_misses:
            request = self._retry_misses[0]
            if not self._send_miss(request):
                break
            self._retry_misses.popleft()

    def _send_miss(self, request: MemoryRequest) -> bool:
        if request.is_replica_access and request.home_slice != self.slice_id:
            return self.replica_miss_sink(request)
        return self.miss_sink(request)

    def _deliver_pipeline(self, now: int) -> None:
        for action, request in self._pipeline.pop_ready(now):
            if action == "reply":
                if not self.reply_sink(request):
                    self._retry_replies.append(request)
            else:  # "miss"
                if not self._send_miss(request):
                    self._retry_misses.append(request)

    def _arbitrate(self, now: int) -> None:
        """Issue at most one operation to the tag/data array per cycle."""
        if self.fill_queue._items:
            self.port_cycles += 1
            self._process_fill_op(now)
            return
        queue = self._pick_queue()
        if queue is None:
            return
        request = queue.pop()
        self.port_cycles += 1
        self._process_request(request, now, queue)

    def _pick_queue(self) -> Optional[BoundedQueue]:
        """Round-robin between LMR and RMR (Figure 5, step 4)."""
        lmr, rmr = self.lmr, self.rmr
        if lmr._items:
            if rmr._items:
                pick = lmr if self._rr_pick_local else rmr
                self._rr_pick_local = not self._rr_pick_local
                return pick
            return lmr
        if rmr._items:
            return rmr
        return None

    # ------------------------------------------------------------------
    # Array operations.
    # ------------------------------------------------------------------

    def _process_request(
        self, request: MemoryRequest, now: int, source: BoundedQueue
    ) -> None:
        if request.src_partition == request.home_partition:
            self.local_accesses += 1
        else:
            self.remote_accesses += 1

        kind = request.kind
        if kind is AccessKind.STORE:
            self._process_store(request, now)
            return

        # Atomics execute at the slice's raster-operation units
        # (Section 5.3): they behave like loads that dirty the line.
        is_atomic = kind is AccessKind.ATOMIC
        if self.array.lookup(request.line_addr, mark_dirty=is_atomic):
            self.hits += 1
            if request.is_replica_access:
                self.replica_hits += 1
            request.hit_level = "llc"
            if self.tracer.enabled:
                self.tracer.emit_llc_access(now, self.name, request, True)
            self._pipeline.push(("reply", request), now)
            return

        self.misses += 1
        outcome = self.mshr.allocate(request)
        if outcome is MSHROutcome.FULL:
            # Put the request back at the head of its queue and stall.
            source.push_front(request)
            self.misses -= 1  # not actually processed this cycle
            self.port_cycles -= 1
            return
        if self.tracer.enabled:
            self.tracer.emit_llc_access(now, self.name, request, False)
        if outcome is MSHROutcome.ALLOCATED:
            self._pipeline.push(("miss", request), now)
        # MERGED: nothing to send; the fill will release the waiter.

    def _process_store(self, request: MemoryRequest, now: int) -> None:
        """Write-back, write-allocate store handling.

        Store misses use write-validate (the full line is produced by the
        coalesced 32-thread store) so no memory fetch is required; dirty
        victims generate writebacks.
        """
        if self.array.lookup(request.line_addr, mark_dirty=True):
            self.hits += 1
        else:
            self.misses += 1
            victim = self.array.install(request.line_addr, dirty=True)
            self._handle_victim(victim)
        request.hit_level = "llc"
        request.complete(now)
        # Stores retire here (write-validate, no reply): recycle.
        release_request(request)

    def _process_fill_op(self, now: int) -> None:
        kind, payload = self.fill_queue.pop()
        if kind == self._INVAL:
            self.invalidations += 1
            self.array.invalidate(payload)
            return
        if kind == self._REPLICA:
            self.replica_fills += 1
            victim = self.array.install(payload, dirty=False)
            self._handle_victim(victim)
            return
        # Demand fill: install and release waiters.
        request = payload
        victim = self.array.install(request.line_addr, dirty=False)
        self._handle_victim(victim)
        if request.is_replica_access:
            self.replica_fills += 1
        if request.line_addr in self.mshr:
            for waiter in self.mshr.release(request.line_addr):
                waiter.hit_level = waiter.hit_level or "mem"
                if waiter.kind is AccessKind.ATOMIC:
                    # The atomic modified the freshly installed line.
                    self.array.lookup(request.line_addr, mark_dirty=True)
                self._pipeline.push(("reply", waiter), now)
        else:
            # Fill without an MSHR entry (e.g. prefetch-style replica
            # install racing a flush): still reply to the carried request.
            request.hit_level = request.hit_level or "mem"
            self._pipeline.push(("reply", request), now)

    def _handle_victim(self, victim) -> None:
        if victim is not None and victim.dirty:
            self.writebacks += 1
            if self.writeback_sink is not None:
                # Writeback drops are not tolerated; the sink buffers.
                self.writeback_sink(victim.line_addr)

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def pending_work(self) -> int:
        return (
            len(self.lmr)
            + len(self.rmr)
            + len(self.fill_queue)
            + len(self._pipeline)
            + len(self._retry_misses)
            + len(self._retry_replies)
            + len(self.mshr)
        )
