"""Partition point-to-point link tests (Sections 2-3)."""

import pytest

from repro.noc.p2p import PartitionLinks
from repro.sim.request import AccessKind, MemoryRequest


def _links(width=62.5, latency=1):
    requests, replies = [], []
    links = PartitionLinks(
        0, width, latency,
        request_sink=lambda r: (requests.append(r), True)[1],
        reply_sink=lambda r: (replies.append(r), True)[1],
    )
    return links, requests, replies


def _load(line=0):
    request = MemoryRequest(AccessKind.LOAD, line, sm_id=0)
    return request


class TestPartitionLinks:
    def test_request_and_reply_directions_are_independent(self):
        links, requests, replies = _links()
        links.send_request(_load())
        reply = _load()
        links.send_reply(reply)
        for cycle in range(6):
            links.tick(cycle)
        assert len(requests) == 1
        assert replies == [reply]

    def test_baseline_width_matches_local_link_budget(self):
        """62.5 B/cycle per partition = 2.8 TB/s over 32 partitions at
        1.4 GHz (Section 6)."""
        links, _, _ = _links(width=62.5)
        assert links.request_link.width_bytes == pytest.approx(62.5)

    def test_reply_serialisation(self):
        """A 136 B reply needs three cycles of credit at 62.5 B/cycle.

        The links never report sleep while it waits for credit: a link
        only sleeps with an empty ingress, so the tick that put it to
        sleep already applied the idle credit clamp."""
        links, _, replies = _links(latency=0)
        links.send_reply(_load())
        assert links.tick(0) is False
        assert links.tick(1) is False
        assert replies == []
        links.tick(2)
        links.tick(3)
        assert len(replies) == 1

    def test_pending_accounting(self):
        links, _, _ = _links()
        links.send_request(_load())
        links.send_reply(_load())
        assert links.pending == 2
        for cycle in range(8):
            links.tick(cycle)
        assert links.pending == 0

    def test_bytes_transferred_sums_directions(self):
        links, _, _ = _links(latency=0)
        links.send_request(_load())   # 8 bytes
        links.send_reply(_load())     # 136 bytes
        for cycle in range(8):
            links.tick(cycle)
        assert links.bytes_transferred == 8 + 136

    def test_higher_bandwidth_than_noc_port(self):
        """The architectural point: a partition's local link (62.5
        B/cycle) is ~4x one NoC port (15.6 B/cycle), which is what makes
        local LLC accesses cheap."""
        assert 62.5 / 15.625 == pytest.approx(4.0)
