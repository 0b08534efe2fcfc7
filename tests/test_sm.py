"""SM tests: warps, GTO scheduling, CTAs, coalescing and the core."""

import pytest

from repro.config.presets import small_config
from repro.sim.request import AccessKind
from repro.sm.coalescer import coalesce, coalescing_degree
from repro.sm.cta import CTA, DistributedCTAScheduler
from repro.sm.scheduler import GTOScheduler
from repro.sm.warp import Compute, MemAccess, Warp, make_stream


def _warp(instructions, warp_id=0, cta_id=0):
    return Warp(warp_id, cta_id, make_stream(instructions))


class TestWarp:
    def test_executes_stream(self):
        warp = _warp([Compute(2), Compute(1)])
        assert warp.next_instruction() == Compute(2)
        assert warp.next_instruction() == Compute(1)
        assert warp.next_instruction() is None
        assert warp.done

    def test_blocks_on_loads(self):
        warp = _warp([])
        warp.block_on_loads(2)
        assert not warp.is_ready(0)
        warp.load_returned()
        warp.load_returned()
        assert warp.is_ready(0)

    def test_load_return_underflow_raises(self):
        with pytest.raises(RuntimeError):
            _warp([]).load_returned()

    def test_ready_respects_ready_at(self):
        warp = _warp([Compute(1)])
        warp.ready_at = 10
        assert not warp.is_ready(9)
        assert warp.is_ready(10)

    def test_stalled_instruction_replayed(self):
        access = MemAccess(AccessKind.LOAD, ((0, 0),))
        warp = _warp([access, Compute(1)])
        assert warp.next_instruction() is access
        warp.stalled_instr = access  # SM could not issue it
        assert warp.next_instruction() is access  # replayed
        assert warp.next_instruction() == Compute(1)

    def test_finished_needs_drained_loads(self):
        warp = _warp([])
        warp.block_on_loads(1)
        warp.next_instruction()
        assert warp.done and not warp.finished
        warp.load_returned()
        assert warp.finished


class TestGTOScheduler:
    def test_greedy_sticks_to_same_warp(self):
        sched = GTOScheduler()
        a = _warp([Compute(1)] * 5, warp_id=0)
        b = _warp([Compute(1)] * 5, warp_id=1)
        sched.add_warp(a)
        sched.add_warp(b)
        assert sched.pick(0) is a
        assert sched.pick(1) is a  # greedy

    def test_falls_back_to_oldest_on_stall(self):
        sched = GTOScheduler()
        a = _warp([Compute(1)], warp_id=0)
        b = _warp([Compute(1)], warp_id=1)
        sched.add_warp(a)
        sched.add_warp(b)
        assert sched.pick(0) is a
        a.block_on_loads(1)
        sched.notify_stall(a)
        assert sched.pick(1) is b

    def test_oldest_ready_preferred(self):
        sched = GTOScheduler()
        a = _warp([Compute(1)], warp_id=0)
        b = _warp([Compute(1)], warp_id=1)
        sched.add_warp(a)
        sched.add_warp(b)
        a.ready_at = 100
        assert sched.pick(0) is b
        # When a becomes ready it is oldest, but greedy prefers b first.
        assert sched.pick(100) is b

    def test_none_when_all_stalled(self):
        sched = GTOScheduler()
        a = _warp([Compute(1)])
        sched.add_warp(a)
        a.block_on_loads(1)
        assert sched.pick(0) is None
        assert sched.idle_cycles == 1

    def test_remove_warp(self):
        sched = GTOScheduler()
        a = _warp([Compute(1)])
        sched.add_warp(a)
        sched.pick(0)
        sched.remove_warp(a)
        assert sched.pick(1) is None


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
        warp = cta.warps[0]
        warp.next_instruction()
        warp.next_instruction()
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
        warp = _warp([])
        warp.at_barrier = True
        assert not warp.is_ready(0)
        warp.at_barrier = False
        assert warp.is_ready(0)


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
