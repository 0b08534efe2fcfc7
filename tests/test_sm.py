"""SM tests: warps, GTO scheduling, CTAs, coalescing and the core.

Warp and scheduler behaviour is checked on an ``SMCore`` ticked cycle
by cycle (tests/sm_harness.py): the issue loop in ``SMCore._issue`` is
the only place the GTO policy and the warp's fetch run.
"""

import pytest

from repro.config.presets import small_config
from repro.sim.request import AccessKind
from repro.sm.coalescer import coalesce, coalescing_degree
from repro.sm.cta import DistributedCTAScheduler
from repro.sm.warp import Compute, Warp, make_stream
from tests.sm_harness import SMHarness, load, store


def _on_one_scheduler(*streams):
    """A harness whose warps run ``streams``, all on scheduler 0.

    Warps alternate between the SM's two schedulers, so each stream is
    followed by an empty one for scheduler 1.  Returns the harness,
    the warps in age order and scheduler 0.
    """
    padded = []
    for stream in streams:
        padded += [list(stream), []]
    h = SMHarness(padded)
    return h, h.warps[0::2], h.sm.schedulers[0]


class TestWarp:
    def test_executes_stream(self):
        """Each instruction issues once its predecessor's latency has
        passed; the end of the stream marks the warp done."""
        h = SMHarness([[Compute(2), Compute(1)]])
        warp = h.warps[0]
        h.run(1)  # cycle 0: Compute(2), ready again at 2
        assert warp.instructions_issued == 1
        h.run(2)  # cycle 2: Compute(1), ready again at 3
        assert warp.instructions_issued == 2 and not warp.done
        h.run(1)  # cycle 3: the stream ends
        assert warp.done and warp.instructions_issued == 2

    def test_blocks_on_loads(self):
        h = SMHarness([[load((3, 0), (3, 1)), Compute(1)]], mapped={3})
        warp = h.warps[0]
        h.run_until(lambda: len(h.sent) == 2)
        assert warp.outstanding == 2
        h.reply(h.sent[0])
        h.run(5)
        assert warp.outstanding == 1
        assert warp.instructions_issued == 1  # still blocked
        h.reply(h.sent[1])
        h.run(1)
        assert warp.outstanding == 0
        assert warp.instructions_issued == 2

    def test_load_return_underflow_raises(self):
        warp = Warp(0, 0, make_stream([]))
        with pytest.raises(RuntimeError):
            warp.load_returned()

    def test_ready_respects_ready_at(self):
        h = SMHarness([[Compute(10), Compute(1)]])
        warp = h.warps[0]
        h.run(10)  # cycles 0-9
        assert warp.instructions_issued == 1
        h.run(1)  # cycle 10
        assert warp.instructions_issued == 2

    def test_stalled_instruction_replayed(self):
        """A load the full LSU turned away issues again before the
        stream advances."""
        # 49 store lines to cold pages fill the LSU past its limit for
        # hundreds of cycles (see TestLinesInTheLSU).
        first = store(*[(page, 0) for page in range(100, 132)])
        second = store(*[(page, 0) for page in range(200, 217)])
        probe = load((300, 0))
        h = SMHarness([[first, second, probe, Compute(7)]])
        warp = h.warps[0]
        h.run(3)
        assert warp.stalled_instr is probe
        h.run_until(lambda: h.sm.loads_issued == 1, limit=5000)
        assert warp.stalled_instr is None
        assert warp.instructions_issued == 3
        assert list(warp.stream) == [Compute(7)]  # not fetched yet

    def test_finished_needs_drained_loads(self):
        h = SMHarness([[load((3, 0))]], mapped={3})
        warp = h.warps[0]
        h.run_until(lambda: h.sent)
        h.run(20)
        assert not warp.finished and not warp.done
        h.reply(h.sent[0])
        h.run(1)  # the load returns and the warp reaches the stream end
        assert warp.done and warp.finished


class TestGTOScheduler:
    def test_greedy_sticks_to_same_warp(self):
        h, (a, b), sched = _on_one_scheduler([Compute(1)] * 5,
                                             [Compute(1)] * 5)
        h.run(5)
        assert (a.instructions_issued, b.instructions_issued) == (5, 0)
        assert sched.issues == 5

    def test_falls_back_to_oldest_on_stall(self):
        h, (a, b, c), _ = _on_one_scheduler(
            [load((3, 0)), Compute(1)], [Compute(1)] * 3, [Compute(1)] * 3)
        h.run(1)
        assert a.outstanding == 1  # the load stalls the greedy warp
        h.run(3)
        assert (b.instructions_issued, c.instructions_issued) == (3, 0)

    def test_oldest_ready_preferred(self):
        h, (a, b), _ = _on_one_scheduler([Compute(10), Compute(1)],
                                         [Compute(1)] * 20)
        h.run(11)  # cycles 0-10
        # While a waits out its latency, b (the oldest ready warp) takes
        # the slot; once a is ready again, greedy b keeps it.
        assert (a.instructions_issued, b.instructions_issued) == (1, 10)

    def test_none_when_all_stalled(self):
        h, (a,), sched = _on_one_scheduler([load((3, 0)), Compute(1)])
        h.run(1)
        assert sched.idle_cycles == 0
        h.run(1)
        assert a.outstanding == 1
        assert sched.idle_cycles == 1

    def test_remove_warp(self):
        h, (a, b), sched = _on_one_scheduler([Compute(1)] * 5,
                                             [Compute(1)] * 5)
        h.run(1)  # a is the greedy warp
        sched.remove_warp(a)
        h.run(2)
        assert (a.instructions_issued, b.instructions_issued) == (1, 2)


class TestDistributedCTAScheduler:
    def _factory(self, cta_id, warp_id):
        return make_stream([Compute(1)])

    def test_contiguous_chunks(self):
        sched = DistributedCTAScheduler(8, num_sms=4, warps_per_cta=2,
                                        warp_factory=self._factory)
        # SM 0 must receive CTAs 0 and 1 (contiguous, locality).
        first = sched.next_cta(0)
        second = sched.next_cta(0)
        assert (first.cta_id, second.cta_id) == (0, 1)
        assert sched.next_cta(0) is None

    def test_uneven_division(self):
        sched = DistributedCTAScheduler(5, num_sms=4, warps_per_cta=1,
                                        warp_factory=self._factory)
        counts = [sched.remaining(sm) for sm in range(4)]
        assert sorted(counts) == [1, 1, 1, 2]
        assert sched.total_remaining == 5

    def test_warps_created_per_cta(self):
        sched = DistributedCTAScheduler(2, num_sms=2, warps_per_cta=3,
                                        warp_factory=self._factory)
        cta = sched.next_cta(0)
        assert len(cta.warps) == 3
        assert all(w.cta_id == cta.cta_id for w in cta.warps)

    def test_cta_finished(self):
        sched = DistributedCTAScheduler(1, num_sms=1, warps_per_cta=1,
                                        warp_factory=self._factory)
        cta = sched.next_cta(0)
        assert not cta.finished
        cta.warps[0].done = True  # as the SM marks a stream's end
        assert cta.finished

    def test_needs_ctas(self):
        with pytest.raises(ValueError):
            DistributedCTAScheduler(0, 1, 1, self._factory)


class TestCoalescer:
    def test_same_line_coalesces_to_one(self):
        addrs = [i * 4 for i in range(32)]  # 128 consecutive bytes
        assert coalesce(addrs) == [(0, 0)]
        assert coalescing_degree(addrs) == 32.0

    def test_strided_accesses_split(self):
        addrs = [i * 128 for i in range(4)]
        targets = coalesce(addrs)
        assert targets == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_page_crossing(self):
        targets = coalesce([4095, 4096])
        assert targets == [(0, 31), (1, 0)]

    def test_empty(self):
        assert coalesce([]) == []
        assert coalescing_degree([]) == 0.0


class TestBarriers:
    def _sm_with_two_warps(self):
        """A real SMCore with one CTA of two warps executing barriers."""
        from repro.cache.l1 import L1Cache
        from repro.config.presets import small_config
        from repro.sm.core import SMCore
        from repro.sm.cta import DistributedCTAScheduler
        from repro.sm.warp import Barrier
        from repro.vm.tlb import MMU, L2TLB, TranslationProvider
        from repro.vm.walker import WalkerPool

        gpu = small_config(num_channels=2, warps_per_sm=4)

        class Driver(TranslationProvider):
            def lookup_translation(self, vpage, sm_id):
                return vpage

            def handle_fault(self, vpage, sm_id):
                return vpage

        driver = Driver()
        l2 = L2TLB(gpu.tlb.l2_entries, gpu.tlb.l2_ways, gpu.tlb.l2_latency)
        walkers = WalkerPool(4, 10)
        l1 = L1Cache(0, gpu.l1)
        mmu = MMU(0, gpu.tlb, l2, walkers, driver)
        sm = SMCore(0, gpu, l1, mmu, request_sink=lambda r: True)

        def body(cta, warp):
            yield Compute(1)
            yield Barrier()
            yield Compute(1)

        sched = DistributedCTAScheduler(1, 1, 2, body)
        sm.start_kernel(sched, set(), now=0)
        return sm

    def test_warp_blocks_until_cta_arrives(self):
        sm = self._sm_with_two_warps()
        for cycle in range(50):
            sm.tick(cycle)
        # Both warps passed the barrier and finished their streams.
        assert sm.barriers_completed == 1
        assert all(
            warp.finished
            for cta in sm._active_ctas for warp in cta.warps
        ) or not sm._active_ctas

    def test_barrier_flushes_l1(self):
        sm = self._sm_with_two_warps()
        flushes_before = sm.l1.flushes
        for cycle in range(50):
            sm.tick(cycle)
        assert sm.l1.flushes > flushes_before

    def test_warp_at_barrier_not_ready(self):
        h = SMHarness([[Compute(1)]])
        warp = h.warps[0]
        warp.at_barrier = True
        h.run(3)
        assert warp.instructions_issued == 0
        warp.at_barrier = False
        h.run(1)
        assert warp.instructions_issued == 1


class TestLinesInTheLSU:
    """The load-store unit works on lines: only a line that leaves the
    SM (a primary miss, a store or an atomic) becomes a request."""

    def test_hit_and_merge_complete_without_a_request(self, monkeypatch):
        import repro.sm.core as core_mod
        from repro.sim.request import acquire
        from tests.sm_harness import SMHarness, atomic, load, store

        built = []

        def spy(*args):
            built.append(args[0])
            return acquire(*args)

        monkeypatch.setattr(core_mod, "acquire_request", spy)
        # Warp 1's line misses first (warp 0 walks the page table) and
        # warp 0's merges into it; after the fill warp 0 hits.
        h = SMHarness([[load((3, 0)), load((3, 0))], [load((3, 0))],
                       [store((4, 0)), atomic((4, 1))]])
        h.run(500)
        assert h.l1.mshr.merges == 1
        assert set(built) == {AccessKind.LOAD, AccessKind.STORE,
                              AccessKind.ATOMIC}
        fill_tick = h.cycle
        for request, (kind, _, _) in zip(h.sent, h.log):
            if kind is not AccessKind.STORE:  # no reply at the SM
                h.reply(request)
        h.run(1)
        # The carried load and the merged one complete at the fill
        # tick; warp 0 issues its next load in that same tick.
        first, carried = h.warps[:2]
        assert carried.outstanding == 0
        assert first.instructions_issued == 2
        done = h.run_until(lambda: first.outstanding == 0)
        # Issue at the fill tick, a 1-cycle TLB hit, a 1-cycle L1 hit.
        assert done == fill_tick + 2
        assert h.l1.load_hits == 1
        assert len(built) == len(h.sent) == 3
        assert h.sm.loads_completed == 4  # three load lines, one atomic

    def test_requests_built_equal_lines_that_leave(self, monkeypatch):
        """On a whole PVC run (loads, stores, atomics): one request per
        primary miss, store and atomic line, none for hits or merges."""
        import repro.sm.core as core_mod
        from repro.config.topology import Architecture
        from repro.experiments.runner import ExperimentRunner, RunKey
        from repro.sim.request import acquire
        from repro.workloads.suite import get_benchmark

        calls = []

        def spy(*args):
            calls.append(1)
            return acquire(*args)

        monkeypatch.setattr(core_mod, "acquire_request", spy)
        runner = ExperimentRunner(base_gpu=small_config(num_channels=2))
        system = runner.build(RunKey("PVC", Architecture.NUBA))
        workload = get_benchmark("PVC").instantiate(system.gpu)
        system.run_workload(workload)
        primary = stores = atomics = lines = 0
        for sm in system.sms:
            l1 = sm.l1
            primary += l1.mshr.allocations
            stores += sm.stores_issued
            atomics += sm.loads_issued - l1.load_hits - l1.load_misses
            lines += sm.loads_issued + sm.stores_issued
        assert atomics > 0
        assert len(calls) == primary + stores + atomics
        assert len(calls) < lines

    def test_load_return_underflow_still_raises(self):
        from repro.sim.request import acquire
        from tests.sm_harness import SMHarness

        h = SMHarness([[Compute(1)]])
        warp = h.warps[0]
        h.sm._hit_returns._items.append((0, warp))
        with pytest.raises(RuntimeError, match="none in flight"):
            h.run(1)
        # A merged waiter released by a fill is checked the same way.
        h = SMHarness([[Compute(1)]])
        warp = h.warps[0]
        request = acquire(AccessKind.LOAD, 7, 0)
        h.l1.mshr._pending[7] = [request, warp]
        h.reply(request)
        with pytest.raises(RuntimeError, match="none in flight"):
            h.run(1)

    def test_one_translate_per_same_page_run(self):
        """Translating a page once per run of same-page targets leaves
        the TLB counters and every LSU ready cycle exactly as a
        translate per line on a twin MMU would."""
        from tests.sm_harness import IdentityDriver, SMHarness, load, make_mmu

        # Page 3 is mapped (its first line walks the page table); page
        # 8 is first touched (walk plus fault); page 3 comes back.
        targets = ((3, 0), (3, 1), (3, 2), (8, 0), (8, 5), (3, 3), (3, 4))
        h = SMHarness([[load(*targets)]], mapped={3})
        translated = []
        translate = h.mmu.translate

        def counting(vpage, now):
            translated.append(vpage)
            return translate(vpage, now)

        h.mmu.translate = counting
        h.run(1)
        driver = IdentityDriver()
        driver.mapped.add(3)
        twin = make_mmu(h.gpu, driver)
        expected = [twin.translate(vpage, 0) for vpage, _ in targets]
        entries = sorted(h.sm._lsu, key=lambda entry: entry[1])
        assert [entry[0] for entry in entries] == [
            ready for ready, _ in expected]
        assert [entry[2] for entry in entries] == [
            h.line(frame, line)
            for (_, frame), (_, line) in zip(expected, targets)]
        assert (h.mmu.l1.hits, h.mmu.l1.misses) == (twin.l1.hits,
                                                    twin.l1.misses)
        assert h.mmu.page_faults == twin.page_faults == 1
        assert translated == [3, 8, 3]

    @pytest.mark.parametrize("queued, replays", [(48, False), (49, True)])
    def test_lsu_limit_counts_lines(self, queued, replays):
        """An instruction replays when more than ``LSU_QUEUE_LIMIT``
        lines wait in the LSU, however many instructions they came
        from."""
        from repro.sm.core import LSU_QUEUE_LIMIT
        from tests.sm_harness import SMHarness, load, store

        assert LSU_QUEUE_LIMIT == 48
        # Stores to cold pages: every line walks the page table and
        # faults, so none reaches the L1 for hundreds of cycles.
        first = store(*[(page, 0) for page in range(100, 132)])
        second = store(*[(page, 0) for page in range(200, 200 + queued - 32)])
        probe = load((300, 0))
        h = SMHarness([[first, second, probe]])
        h.run(3)
        warp = h.warps[0]
        assert (warp.stalled_instr is probe) == replays
        if replays:
            assert len(h.sm._lsu) == queued
            assert warp.instructions_issued == 2
            assert h.sm.loads_issued == 0
        else:
            assert len(h.sm._lsu) == queued + 1
            assert h.sm.loads_issued == 1
