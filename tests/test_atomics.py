"""Atomic-operation tests (Section 5.3: ROP units at the LLC slices)."""

import pytest

from repro.cache.llc_slice import LLCSlice
from repro.config.gpu import CacheConfig
from repro.config.presets import small_config
from repro.config.topology import Architecture, ReplicationPolicy, TopologySpec
from repro.core.builders import build_system
from repro.sim.request import AccessKind, MemoryRequest
from repro.workloads.suite import get_benchmark
from tests.sm_harness import SMHarness, atomic, load


class TestRequestMetadata:
    def test_atomic_is_load_like_for_replies(self):
        assert AccessKind.ATOMIC.is_load
        assert AccessKind.ATOMIC.is_write
        assert not AccessKind.ATOMIC.is_read_only

    def test_packet_sizes(self):
        atomic = MemoryRequest(AccessKind.ATOMIC, 0, sm_id=0)
        assert atomic.request_bytes == 16   # address + operand
        assert atomic.reply_bytes == 16     # old value
        load = MemoryRequest(AccessKind.LOAD, 0, sm_id=0)
        assert load.reply_bytes == 136


class SliceHarness:
    def __init__(self):
        config = CacheConfig(sets=4, ways=2, mshr_entries=8, latency=1,
                             write_back=True, write_allocate=True)
        self.slice = LLCSlice(0, config)
        self.replies = []
        self.misses = []
        self.slice.reply_sink = lambda r: (self.replies.append(r), True)[1]
        self.slice.miss_sink = lambda r: (self.misses.append(r), True)[1]
        self.slice.writeback_sink = lambda line: True
        self.cycle = 0

    def run(self, cycles):
        for _ in range(cycles):
            self.slice.tick(self.cycle)
            self.cycle += 1


def _atomic(line):
    request = MemoryRequest(AccessKind.ATOMIC, line, sm_id=0)
    request.home_slice = 0
    return request


class TestSliceAtomics:
    def test_atomic_hit_replies_and_dirties(self):
        h = SliceHarness()
        h.slice.fill_replica(1)  # pre-install the line (clean)
        h.run(3)
        request = _atomic(1)
        h.slice.accept_local(request)
        h.run(4)
        assert h.replies == [request]
        # The line is now dirty: evicting it must write back.
        dirty = h.slice.flush()
        assert dirty == [1]

    def test_atomic_miss_fetches_then_replies_dirty(self):
        h = SliceHarness()
        request = _atomic(2)
        h.slice.accept_local(request)
        h.run(4)
        assert h.misses == [request]
        h.slice.fill(request)
        h.run(4)
        assert h.replies == [request]
        assert h.slice.flush() == [2]


class TestEndToEnd:
    @pytest.mark.parametrize("arch", list(Architecture))
    def test_pvc_with_atomics_completes(self, arch):
        gpu = small_config(num_channels=4, warps_per_sm=4)
        topo = TopologySpec(architecture=arch,
                            replication=ReplicationPolicy.MDR,
                            mdr_epoch=1000)
        system = build_system(gpu, topo)
        workload = get_benchmark("PVC").instantiate(gpu)
        result = system.run_workload(workload)
        assert result.loads_completed > 0

    def test_atomics_never_replicated(self):
        """MDR must not route atomics to replica slices (read-write)."""
        gpu = small_config(num_channels=4, warps_per_sm=4)
        topo = TopologySpec(architecture=Architecture.NUBA,
                            replication=ReplicationPolicy.FULL,
                            mdr_epoch=1000)
        system = build_system(gpu, topo)
        seen = []
        original = system._route_request

        def spy(request):
            if request.kind is AccessKind.ATOMIC:
                seen.append(request.is_replica_access)
            return original(request)

        system._route_request = spy
        system._sm_request_sink  # routing goes through _sm_request_sink
        # Rebind: _sm_request_sink calls self._route_request dynamically.
        workload = get_benchmark("PVC").instantiate(gpu)
        system.run_workload(workload)
        assert seen  # atomics were issued
        assert not any(seen)

    def test_compiler_marks_counters_read_write(self):
        gpu = small_config(num_channels=4, warps_per_sm=4)
        workload = get_benchmark("PVC").instantiate(gpu)
        kernel = workload.compiled_kernels()[0]
        assert "counters" not in kernel.read_only_spaces

    def test_atomic_invalidates_l1_copy(self):
        """An atomic bypasses the L1 and drops its cached copy of the
        line, so the next load of that line misses again."""
        h = SMHarness([[load((5, 0)), atomic((5, 0)), load((5, 0))]])
        h.run_until(lambda: h.sent)
        h.reply(h.sent[0])  # the line is now in the L1
        h.run_until(lambda: len(h.sent) == 2)
        assert h.sent_kinds() == [AccessKind.LOAD, AccessKind.ATOMIC]
        h.reply(h.sent[1])  # the old value returns
        h.run_until(lambda: len(h.sent) == 3)
        assert h.sent_kinds() == [AccessKind.LOAD, AccessKind.ATOMIC,
                                  AccessKind.LOAD]
        assert h.l1.load_hits == 0
