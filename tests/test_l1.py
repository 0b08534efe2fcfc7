"""L1 data cache tests (write-through, write-no-allocate).

The L1's load path runs inside ``SMCore``: these tests drive a lone SM
(tests/sm_harness.py) and check which lines leave it as requests.
"""

import pytest

from repro.sim.request import AccessKind
from repro.sm.warp import Compute
from tests.sm_harness import SMHarness, load, store


class TestL1Loads:
    def test_cold_miss_is_new(self):
        h = SMHarness([[load((3, 0))]])
        h.run_until(lambda: h.sent)
        [request] = h.sent
        assert (request.kind, request.line_addr) == (AccessKind.LOAD,
                                                     h.line(3, 0))
        assert h.l1.load_misses == 1
        assert h.l1.mshr.allocations == 1
        assert h.l1.mshr.merges == 0

    def test_second_miss_merges(self):
        h = SMHarness([[load((3, 0))], [load((3, 0))]])
        h.run(500)
        assert len(h.sent) == 1  # one line, one request
        assert h.l1.mshr.merges == 1
        assert h.l1.load_misses == 2

    def test_fill_then_hit(self):
        h = SMHarness([[load((3, 0)), load((3, 0))]])
        h.run_until(lambda: h.sent)
        h.reply(h.sent[0])
        warp = h.warps[0]
        h.run_until(lambda: warp.done and warp.outstanding == 0)
        assert len(h.sent) == 1  # the second load never left the SM
        assert h.l1.load_hits == 1
        assert h.sm.loads_completed == 2

    def test_mshr_full_stalls(self):
        # Page 3 is mapped: line 0 walks the page table, lines 1 and 2
        # repeat its page (TLB hits), so they reach the L1 first and
        # take both MSHRs.
        h = SMHarness([[load((3, 0), (3, 1), (3, 2))]], mshr=2,
                      mapped={3})
        h.run_until(lambda: h.l1.mshr.stalls)
        assert [line for _, line, _ in h.log] == [h.line(3, 1),
                                                   h.line(3, 2)]
        # The stalled line is re-queued whole at now + 4, same seq.
        [entry] = h.sm._lsu
        assert entry[0] == h.cycle - 1 + 4
        assert entry[1:3] == (1, h.line(3, 0))
        h.reply(h.sent[0])
        h.run_until(lambda: len(h.sent) == 3)
        assert h.log[2][1] == h.line(3, 0)
        # Request ids were reserved per line at issue, in target order.
        ids = {line: req_id for _, line, req_id in h.log}
        assert ids[h.line(3, 1)] == ids[h.line(3, 0)] + 1
        assert ids[h.line(3, 2)] == ids[h.line(3, 0)] + 2

    def test_fill_releases_all_merged_waiters(self):
        streams = [[load((5, 0))] for _ in range(3)]
        h = SMHarness(streams)
        h.run(500)
        assert len(h.sent) == 1
        assert [warp.outstanding for warp in h.warps] == [1, 1, 1]
        h.reply(h.sent[0])
        h.run(1)
        assert [warp.outstanding for warp in h.warps] == [0, 0, 0]
        assert h.sm.loads_completed == 3  # every line, merged or not
        assert h.sm._replies.total_pushed == 1
        assert not h.l1.mshr._pending


class TestL1Stores:
    def test_store_does_not_allocate(self):
        # The compute gap lets the store (which walks the page table)
        # reach the L1 before the load does.
        h = SMHarness([[store((3, 0)), Compute(500), load((3, 0))]])
        h.run(1000)
        assert h.sent_kinds() == [AccessKind.STORE, AccessKind.LOAD]
        assert h.l1.mshr.allocations == 1  # the load's only
        assert h.l1.load_misses == 1

    def test_store_keeps_present_line_valid(self):
        h = SMHarness([[load((3, 0)), store((3, 0)), load((3, 0))]])
        h.run_until(lambda: h.sent)
        h.reply(h.sent[0])
        warp = h.warps[0]
        h.run_until(lambda: warp.done and warp.outstanding == 0)
        assert h.sent_kinds() == [AccessKind.LOAD, AccessKind.STORE]
        assert h.l1.load_hits == 1

    def test_store_counted(self):
        h = SMHarness([[store((3, 0))]])
        h.run(500)
        assert h.l1.stores == 1
        assert h.sm.stores_issued == 1


class TestL1Coherence:
    def test_flush_invalidates(self):
        h = SMHarness([[load((3, 0)), load((3, 0))]])
        h.run_until(lambda: h.sent)
        h.sm.l1.flush()  # before the line is even filled
        h.reply(h.sent[0])
        h.run(1)
        h.sm.l1.flush()  # the filled line goes
        h.run(10)
        assert len(h.sent) == 2  # the second load missed again
        assert h.l1.flushes == 2

    def test_hit_rate(self):
        h = SMHarness([[load((3, 0)), load((3, 0))]])
        h.run_until(lambda: h.sent)
        h.reply(h.sent[0])
        h.run(10)
        assert h.l1.load_hit_rate == pytest.approx(0.5)
