"""Memory-request and tracker tests."""

import pytest

from repro.sim.request import (
    AccessKind,
    LINE_BYTES,
    MemoryRequest,
    READ_REQUEST_BYTES,
    REPLY_BYTES,
    RequestTracker,
    WRITE_REQUEST_BYTES,
)


class TestAccessKindHash:
    def test_kind_keyed_dict_survives_pickling(self):
        """Members hash by identity; unpickling returns the same
        members, so a pickled kind-keyed table still answers probes."""
        import pickle

        from repro.sim.request import _KIND_REPLY_BYTES

        table = pickle.loads(pickle.dumps(dict(_KIND_REPLY_BYTES)))
        assert table == _KIND_REPLY_BYTES
        for kind in AccessKind:
            assert pickle.loads(pickle.dumps(kind)) is kind
            assert table[kind] == _KIND_REPLY_BYTES[kind]
        assert hash(AccessKind.LOAD) == object.__hash__(AccessKind.LOAD)


class TestPacketSizes:
    """Section 6: 8 B read requests, 16 B writes, 136 B replies."""

    def test_constants(self):
        assert LINE_BYTES == 128
        assert READ_REQUEST_BYTES == 8
        assert WRITE_REQUEST_BYTES == 16
        assert REPLY_BYTES == 136  # 128 B data + 8 B control

    def test_load_sizes(self):
        request = MemoryRequest(AccessKind.LOAD, 0, sm_id=0)
        assert request.request_bytes == 8
        assert request.reply_bytes == 136

    def test_read_only_load_sizes_match_load(self):
        """The read-only bit rides in spare request-link bits: no size
        overhead (Section 5.2)."""
        ro = MemoryRequest(AccessKind.LOAD_RO, 0, sm_id=0)
        assert ro.request_bytes == READ_REQUEST_BYTES

    def test_store_sizes(self):
        request = MemoryRequest(AccessKind.STORE, 0, sm_id=0)
        assert request.request_bytes == 16
        assert request.reply_bytes == 8  # control-only ack


class TestLifecycle:
    def test_unique_ids(self):
        a = MemoryRequest(AccessKind.LOAD, 0, sm_id=0)
        b = MemoryRequest(AccessKind.LOAD, 0, sm_id=0)
        assert a.req_id != b.req_id

    def test_complete_invokes_callback(self):
        seen = []
        request = MemoryRequest(AccessKind.LOAD, 0, sm_id=0)
        request.on_complete = seen.append
        request.issue_cycle = 10
        request.complete(50)
        assert seen == [request]
        assert request.latency == 40

    def test_latency_before_completion_raises(self):
        with pytest.raises(ValueError):
            MemoryRequest(AccessKind.LOAD, 0, sm_id=0).latency

    def test_identity_semantics(self):
        """Requests hash/compare by identity (they are tracked through
        queues and MSHRs, never by value)."""
        a = MemoryRequest(AccessKind.LOAD, 7, sm_id=0)
        b = MemoryRequest(AccessKind.LOAD, 7, sm_id=0)
        assert a != b
        assert len({a, b}) == 2


class TestTracker:
    def _req(self, kind=AccessKind.LOAD, local=True, hit="llc"):
        request = MemoryRequest(kind, 0, sm_id=0)
        request.is_local = local
        request.hit_level = hit
        request.issue_cycle = 0
        request.complete_cycle = 100
        return request

    def test_local_remote_split(self):
        tracker = RequestTracker()
        tracker.record(self._req(local=True))
        tracker.record(self._req(local=False))
        tracker.record(self._req(local=False))
        assert tracker.local_fraction == pytest.approx(1 / 3)

    def test_replies_per_cycle_counts_loads_only(self):
        tracker = RequestTracker()
        tracker.record(self._req(AccessKind.LOAD))
        tracker.record(self._req(AccessKind.STORE))
        assert tracker.replies_per_cycle(100) == pytest.approx(0.01)

    def test_hit_level_accounting(self):
        tracker = RequestTracker()
        tracker.record(self._req(hit="llc"))
        tracker.record(self._req(hit="mem"))
        assert tracker.llc_hits == 1
        assert tracker.mem_accesses == 1

    def test_mean_latency(self):
        tracker = RequestTracker()
        tracker.record(self._req())
        assert tracker.mean_latency == pytest.approx(100.0)

    def test_empty_tracker_safe(self):
        tracker = RequestTracker()
        assert tracker.local_fraction == 0.0
        assert tracker.mean_latency == 0.0
        assert tracker.replies_per_cycle(100) == 0.0
        assert tracker.replies_per_cycle(0) == 0.0

    def test_as_dict_keys(self):
        tracker = RequestTracker()
        tracker.record(self._req())
        data = tracker.as_dict()
        assert data["completed"] == 1
        assert set(data) >= {"local", "remote", "llc_hits", "mean_latency"}
