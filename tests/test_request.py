"""Memory-request, freelist and tracker tests."""

import dataclasses
import itertools

import pytest

from repro.sim import request as request_mod
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


def _dirty(value):
    """A value of the same kind as ``value`` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 977
    if isinstance(value, str):
        return value + "dirty"
    if isinstance(value, AccessKind):
        return (AccessKind.STORE if value is not AccessKind.STORE
                else AccessKind.ATOMIC)
    return object()  # None and callbacks


class TestRequestPool:
    """``acquire`` recycles released requests.  The reference is the
    constructor: a recycled request must equal ``MemoryRequest(...)``
    built with the same arguments, field by field."""

    @pytest.fixture
    def pool(self, monkeypatch):
        """An empty freelist, so the next ``acquire`` recycles exactly
        the request the test released."""
        pool = []
        monkeypatch.setattr(request_mod, "_pool", pool)
        return pool

    def _released_dirty_request(self, pool):
        request = request_mod.acquire(AccessKind.LOAD, 1, 0)
        for spec in dataclasses.fields(MemoryRequest):
            setattr(request, spec.name,
                    _dirty(getattr(request, spec.name)))
        request_mod.release(request)
        assert pool == [request]
        return request

    @staticmethod
    def _assert_same_fields(recycled, fresh):
        for spec in dataclasses.fields(MemoryRequest):
            assert (getattr(recycled, spec.name)
                    == getattr(fresh, spec.name)), spec.name

    def test_recycled_request_equals_constructed(self, pool):
        dirty = self._released_dirty_request(pool)
        args = (AccessKind.ATOMIC, 0x1234, 5)
        kwargs = dict(vpage=42, req_id=9001, issue_cycle=77,
                      on_complete=print)
        recycled = request_mod.acquire(*args, **kwargs)
        assert recycled is dirty and not pool
        self._assert_same_fields(recycled, MemoryRequest(*args, **kwargs))

    def test_recycled_defaults_equal_constructor_defaults(self, pool,
                                                          monkeypatch):
        """With only the required arguments, both draw the id from the
        shared counter and leave every other field at its default."""
        dirty = self._released_dirty_request(pool)
        monkeypatch.setattr(request_mod, "_req_ids", itertools.count(500))
        recycled = request_mod.acquire(AccessKind.LOAD, 3, 1)
        assert recycled is dirty
        monkeypatch.setattr(request_mod, "_req_ids", itertools.count(500))
        self._assert_same_fields(recycled,
                                 MemoryRequest(AccessKind.LOAD, 3, 1))

    def test_full_pool_leaves_request_to_the_collector(self, pool,
                                                       monkeypatch):
        monkeypatch.setattr(request_mod, "_POOL_LIMIT", 1)
        first = MemoryRequest(AccessKind.LOAD, 0, sm_id=0)
        request_mod.release(first)
        request_mod.release(MemoryRequest(AccessKind.LOAD, 1, sm_id=0))
        assert pool == [first]


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
