"""The per-channel FR-FCFS memory controller (Table 1).

First-Ready First-Come-First-Served: among queued requests whose bank is
ready, row hits are served before row misses; ties break by arrival
order. One request is issued per cycle at most, and completed lines are
serialised over the channel data bus (one 128 B line per ~8 core cycles,
matching 22.5 GB/s per channel).

Requests are either demand accesses (loads needing a fill/reply) or
writebacks from LLC slices (no reply). The ``fill_sink`` callback routes
completed demand requests back toward the owning LLC slice.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.config.gpu import MemoryConfig
from repro.mem.dram import Bank, CoreClockTimings
from repro.sim.engine import Component
from repro.sim.request import (
    AccessKind,
    MemoryRequest,
    acquire as acquire_request,
    release as release_request,
)



class MemoryController(Component):
    """One memory channel: request queue, banks and data bus."""

    def __init__(
        self,
        channel_id: int,
        config: MemoryConfig,
        bank_of: Callable[[int], int],
        row_of: Callable[[int], int],
        fill_sink: Callable[[MemoryRequest], bool],
    ) -> None:
        super().__init__(f"mc{channel_id}")
        self.channel_id = channel_id
        self.config = config
        self.timings = CoreClockTimings.from_config(
            config.timing, config.clock_ratio
        )
        self.banks = [Bank() for _ in range(config.banks_per_channel)]
        self.bank_of = bank_of
        self.row_of = row_of
        self.fill_sink = fill_sink
        self.queue_capacity = config.queue_entries
        #: FR-FCFS scheduling window: how deep into the queue the
        #: scheduler looks for a row hit each cycle (hardware
        #: schedulers use a similar CAM width).  1 degenerates to FCFS.
        self._window = config.sched_window
        self._queue: Deque[Tuple[MemoryRequest, int, int]] = deque()
        #: Completions ordered by finish cycle. The data bus serialises
        #: every line (``done_at`` equals the advancing bus reservation),
        #: so completions are appended in strictly increasing order and a
        #: deque replaces the former heap.
        self._completions: Deque[Tuple[int, Optional[MemoryRequest]]] = deque()
        self._retry_fills: Deque[MemoryRequest] = deque()
        self._bus_free_at = 0
        self._line_cycles = config.line_transfer_cycles

        # Statistics.
        self.reads = 0
        self.writes = 0
        self.lines_transferred = 0
        self.busy_cycles = 0

    # ------------------------------------------------------------------
    # Ingress.
    # ------------------------------------------------------------------

    def enqueue(self, request: MemoryRequest) -> bool:
        """Accept a demand request or writeback; False when full."""
        if len(self._queue) >= self.queue_capacity:
            return False
        if not self._slot.awake:
            self.wake()
        line = request.line_addr
        self._queue.append((request, self.bank_of(line), self.row_of(line)))
        return True

    def enqueue_writeback(self, line_addr: int) -> bool:
        """Accept a dirty-line writeback from an LLC slice.

        Writebacks must not be dropped, so they are accepted even when the
        queue is nominally full (real controllers reserve writeback slots).
        """
        if not self._slot.awake:
            self.wake()
        request = acquire_request(AccessKind.STORE, line_addr, sm_id=-1)
        self._queue.append(
            (request, self.bank_of(line_addr), self.row_of(line_addr))
        )
        return True

    @property
    def pending(self) -> int:
        return (len(self._queue) + len(self._completions)
                + len(self._retry_fills))

    # ------------------------------------------------------------------
    # Per-cycle work.
    # ------------------------------------------------------------------

    def tick(self, now: int) -> object:
        if self._retry_fills or self._completions:
            self._deliver(now)
        # One command per cycle; bank accesses overlap (bank-level
        # parallelism) and the data bus serialises the resulting line
        # transfers via the bus reservation in _schedule.
        queue = self._queue
        if queue:
            occupancy = len(queue)
            self._schedule(now)
            if queue:
                if len(queue) < occupancy or self._retry_fills:
                    return False  # issued (or retrying): stay awake
                # Stalled scan: every bank in the FR-FCFS window is
                # busy past `now` (anything ready would have issued),
                # so the next issue opportunity is the earliest of
                # those banks' free cycles -- bounded by an earlier
                # completion maturing on the data bus.
                banks = self.banks
                window = self._window
                deadline = None
                index = 0
                for entry in queue:
                    if index >= window:
                        break
                    busy_until = banks[entry[1]].busy_until
                    if deadline is None or busy_until < deadline:
                        deadline = busy_until
                    index += 1
                completions = self._completions
                if completions and completions[0][0] < deadline:
                    deadline = completions[0][0]
                return deadline
        if self._retry_fills:
            return False  # blocked fill: retry the sink every cycle
        completions = self._completions
        if completions:
            return completions[0][0]
        # Drained: bank and bus timing compare against absolute cycles
        # when the next request arrives (enqueue wakes us), so sleeping
        # any length of time is invisible.
        return True

    def _deliver(self, now: int) -> None:
        while self._retry_fills:
            if not self.fill_sink(self._retry_fills[0]):
                return
            self._retry_fills.popleft()
        completions = self._completions
        while completions and completions[0][0] <= now:
            request = completions.popleft()[1]
            if request is None:
                continue  # writeback: no reply
            if not self.fill_sink(request):
                self._retry_fills.append(request)

    def _schedule(self, now: int) -> None:
        """Issue one request per cycle following FR-FCFS.

        The window scan inlines ``Bank.ready``/``Bank.is_row_hit``
        (attribute compares) -- it runs every cycle a channel has
        queued work and the per-entry call overhead dominated the
        controller's profile.
        """
        queue = self._queue
        banks = self.banks
        picked_index = -1
        fallback_index = -1
        index = 0
        for entry in queue:
            if index >= self._window:
                break
            bank = banks[entry[1]]
            if bank.busy_until <= now:
                if bank.open_row == entry[2]:
                    picked_index = index
                    break
                if fallback_index < 0:
                    fallback_index = index
            index += 1
        if picked_index < 0:
            picked_index = fallback_index
        if picked_index < 0:
            return

        request, bank_id, row = queue[picked_index]
        del queue[picked_index]
        bank = self.banks[bank_id]
        is_write = request.kind is AccessKind.STORE
        row_hit = bank.is_row_hit(row)
        data_at = bank.access(row, now, self.timings, is_write=is_write)
        # Serialise the line over the channel data bus.
        bus_start = max(data_at, self._bus_free_at)
        self._bus_free_at = bus_start + self._line_cycles
        done_at = bus_start + self._line_cycles
        self.busy_cycles += self._line_cycles
        self.lines_transferred += 1
        if self.tracer.enabled:
            self.tracer.emit_dram_service(
                now, self.name, request.line_addr, is_write, row_hit,
                done_at,
            )
        if is_write:
            self.writes += 1
            completion = None
            if request.sm_id == -1:
                # Writeback scheduled; nothing references it any more.
                release_request(request)
        else:
            self.reads += 1
            completion = request
        self._completions.append((done_at, completion))

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------

    @property
    def row_hit_rate(self) -> float:
        hits = sum(bank.row_hits for bank in self.banks)
        total = hits + sum(bank.row_misses for bank in self.banks)
        if total == 0:
            return 0.0
        return hits / total

    def bandwidth_utilization(self, cycles: int) -> float:
        """Fraction of data-bus cycles spent transferring lines."""
        if cycles <= 0:
            return 0.0
        return self.busy_cycles / cycles
