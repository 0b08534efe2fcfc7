"""DRAM bank and FR-FCFS memory-controller tests."""

import pytest

from repro.config.gpu import HBMTimingConfig, MemoryConfig
from repro.mem.controller import MemoryController
from repro.mem.dram import Bank, CoreClockTimings
from repro.sim.request import AccessKind, MemoryRequest

TIMINGS = CoreClockTimings.from_config(HBMTimingConfig(), ratio=4)


class TestBank:
    def test_row_empty_then_hit(self):
        bank = Bank()
        first = bank.access(row=1, now=0, timings=TIMINGS)
        assert first == TIMINGS.row_empty
        start = bank.busy_until
        second = bank.access(row=1, now=start, timings=TIMINGS)
        assert second == start + TIMINGS.row_hit

    def test_row_conflict_pays_precharge(self):
        bank = Bank()
        bank.access(row=1, now=0, timings=TIMINGS)
        now = max(bank.busy_until, bank.activate_ready_at)
        data_at = bank.access(row=2, now=now, timings=TIMINGS)
        assert data_at == now + TIMINGS.row_miss

    def test_row_hits_pipeline_at_column_gap(self):
        bank = Bank()
        bank.access(row=1, now=0, timings=TIMINGS)
        after_first = bank.busy_until
        bank.access(row=1, now=after_first, timings=TIMINGS)
        assert bank.busy_until == after_first + TIMINGS.column_gap

    def test_activate_spacing_enforced(self):
        bank = Bank()
        bank.access(row=1, now=0, timings=TIMINGS)
        # An immediate row switch must wait for tRC from the activate.
        data_at = bank.access(row=2, now=bank.busy_until, timings=TIMINGS)
        assert data_at >= TIMINGS.activate_gap

    def test_row_hit_rate(self):
        bank = Bank()
        bank.access(1, 0, TIMINGS)
        bank.access(1, 1000, TIMINGS)
        assert bank.row_hit_rate == pytest.approx(0.5)


def _controller(queue_entries=8):
    config = MemoryConfig(
        stacks=1, channels_per_stack=1, queue_entries=queue_entries
    )
    fills = []

    def fill_sink(request):
        fills.append(request)
        return True

    mc = MemoryController(
        0, config,
        bank_of=lambda line: (line // 16) % config.banks_per_channel,
        row_of=lambda line: line // 256,
        fill_sink=fill_sink,
    )
    return mc, fills


def _read(line):
    request = MemoryRequest(AccessKind.LOAD, line, sm_id=0)
    request.owner_slice = 0
    return request


def _run(mc, cycles, start=0):
    for cycle in range(start, start + cycles):
        mc.tick(cycle)
    return start + cycles


class TestMemoryController:
    def test_read_completes_and_fills(self):
        mc, fills = _controller()
        request = _read(0)
        assert mc.enqueue(request)
        _run(mc, 200)
        assert fills == [request]
        assert mc.reads == 1

    def test_queue_capacity(self):
        mc, _ = _controller(queue_entries=2)
        assert mc.enqueue(_read(0))
        assert mc.enqueue(_read(1))
        assert not mc.enqueue(_read(2))

    def test_writeback_accepted_even_when_full(self):
        mc, _ = _controller(queue_entries=1)
        mc.enqueue(_read(0))
        assert mc.enqueue_writeback(99)

    def test_writeback_produces_no_fill(self):
        mc, fills = _controller()
        mc.enqueue_writeback(0)
        _run(mc, 300)
        assert fills == []
        assert mc.writes == 1
        assert mc.pending == 0

    def test_frfcfs_prefers_row_hits(self):
        mc, fills = _controller()
        # Open a row in bank 0, then queue a conflicting and a hitting
        # request: the row hit (arriving later) must finish first.
        opener = _read(0)          # bank 0, row 0
        mc.enqueue(opener)
        _run(mc, 150)
        conflict = _read(256)      # bank 0 (256//16=16%16=0), row 1
        row_hit = _read(1)         # bank 0, row 0 (open)
        mc.enqueue(conflict)
        mc.enqueue(row_hit)
        _run(mc, 400, start=150)
        assert fills.index(row_hit) < fills.index(conflict)

    def test_bus_serialises_line_transfers(self):
        mc, fills = _controller()
        # Requests to different banks, same rows: limited by the bus
        # (8 cycles per 128 B line at 22.5 GB/s).
        for i in range(8):
            mc.enqueue(_read(i * 16))  # different banks
        _run(mc, 2000)
        assert len(fills) == 8
        assert mc.lines_transferred == 8
        assert mc.busy_cycles == 8 * mc.config.line_transfer_cycles

    def test_bandwidth_utilization(self):
        mc, _ = _controller()
        mc.enqueue(_read(0))
        _run(mc, 200)
        assert 0 < mc.bandwidth_utilization(200) <= 1

    def test_retry_fill_on_backpressure(self):
        config = MemoryConfig(stacks=1, channels_per_stack=1)
        fills = []
        accept = [False]

        def fill_sink(request):
            if accept[0]:
                fills.append(request)
                return True
            return False

        mc = MemoryController(
            0, config, bank_of=lambda l: 0, row_of=lambda l: 0,
            fill_sink=fill_sink,
        )
        mc.enqueue(_read(0))
        _run(mc, 300)
        assert fills == []
        assert mc.pending == 1
        accept[0] = True
        _run(mc, 5, start=300)
        assert len(fills) == 1


class TestSchedulingWindow:
    """The FR-FCFS window is configurable (``MemoryConfig.sched_window``):
    a window of 1 degenerates to plain FCFS, a wide window recovers the
    row-hit preference."""

    def _controller(self, window):
        config = MemoryConfig(
            stacks=1, channels_per_stack=1, sched_window=window
        )
        fills = []

        def fill_sink(request):
            fills.append(request)
            return True

        mc = MemoryController(
            0, config,
            bank_of=lambda line: (line // 16) % config.banks_per_channel,
            row_of=lambda line: line // 256,
            fill_sink=fill_sink,
        )
        return mc, fills

    def test_window_one_degenerates_to_fcfs(self):
        mc, fills = self._controller(window=1)
        opener = _read(0)          # bank 0, row 0
        mc.enqueue(opener)
        _run(mc, 150)
        conflict = _read(256)      # bank 0, row 1 (arrives first)
        row_hit = _read(1)         # bank 0, row 0 (open)
        mc.enqueue(conflict)
        mc.enqueue(row_hit)
        _run(mc, 400, start=150)
        # The scheduler only ever sees the queue head: arrival order
        # wins even though a row hit waits one slot behind.
        assert fills.index(conflict) < fills.index(row_hit)

    def test_wide_window_prefers_row_hits(self):
        mc, fills = self._controller(window=16)
        opener = _read(0)
        mc.enqueue(opener)
        _run(mc, 150)
        conflict = _read(256)
        row_hit = _read(1)
        mc.enqueue(conflict)
        mc.enqueue(row_hit)
        _run(mc, 400, start=150)
        assert fills.index(row_hit) < fills.index(conflict)

    def _alternating_row_hit_rate(self, window):
        """Row-hit rate for rows 0/1 of bank 0 enqueued interleaved."""
        mc, fills = self._controller(window=window)
        for i in range(8):
            # lines 0,256,1,257,...: same bank, rows ping-pong in
            # arrival order so only reordering can batch row hits.
            mc.enqueue(_read((i % 2) * 256 + i // 2))
        _run(mc, 3000)
        assert len(fills) == 8
        return mc.row_hit_rate

    def test_wide_window_recovers_row_hit_rate(self):
        fcfs_rate = self._alternating_row_hit_rate(window=1)
        wide_rate = self._alternating_row_hit_rate(window=16)
        # FCFS ping-pongs between the two rows (every access a
        # conflict); the windowed scheduler batches each open row.
        assert fcfs_rate == 0.0
        assert wide_rate >= 0.5
