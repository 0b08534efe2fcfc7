"""NUBA intra-partition point-to-point links (Sections 2-3).

Within a partition, the SMs' L1 caches reach the local LLC slices through
low-complexity point-to-point links: no input buffers or virtual channels,
routing by address bits on the L1 side and a round-robin arbiter on the
LLC side. We model one request link and one reply link per partition,
each with the partition's share of the 2.8 TB/s aggregate local bandwidth.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Component
from repro.sim.queues import BandwidthLink
from repro.sim.request import (
    _KIND_REPLY_BYTES,
    _KIND_REQUEST_BYTES,
    MemoryRequest,
)


class PartitionLinks(Component):
    """Request + reply links for one NUBA partition."""

    def __init__(
        self,
        partition_id: int,
        width_bytes: float,
        latency: int,
        request_sink: Callable[[MemoryRequest], bool],
        reply_sink: Callable[[MemoryRequest], bool],
        capacity: int = 64,
    ) -> None:
        super().__init__(f"p2p{partition_id}")
        self.partition_id = partition_id
        self.request_link: BandwidthLink[MemoryRequest] = BandwidthLink(
            width_bytes,
            latency,
            request_sink,
            capacity=capacity,
            name=f"{self.name}.req",
        )
        self.reply_link: BandwidthLink[MemoryRequest] = BandwidthLink(
            width_bytes,
            latency,
            reply_sink,
            capacity=capacity,
            name=f"{self.name}.rep",
        )

    def send_request(self, request: MemoryRequest) -> bool:
        """Queue a request on the SM-to-LLC direction."""
        if not self._slot.awake:
            self.wake()
        # Direct table probe == request.request_bytes (hot path).
        size = _KIND_REQUEST_BYTES[request.kind]
        accepted = self.request_link.push(request, size)
        if accepted and self.tracer.enabled:
            self.tracer.emit_hop(
                self.tracer.clock(), f"{self.name}.req",
                request.sm_id, request.home_slice,
                size, request,
            )
        return accepted

    def send_reply(self, request: MemoryRequest) -> bool:
        """Queue a reply on the LLC-to-SM direction."""
        if not self._slot.awake:
            self.wake()
        # Direct table probe == request.reply_bytes (hot path).
        size = _KIND_REPLY_BYTES[request.kind]
        accepted = self.reply_link.push(request, size)
        if accepted and self.tracer.enabled:
            self.tracer.emit_hop(
                self.tracer.clock(), f"{self.name}.rep",
                request.home_slice, request.sm_id,
                size, request,
            )
        return accepted

    def tick(self, now: int) -> bool:
        # A direction with nothing queued only clamps credit on a tick
        # (when also nothing is deliverable yet, the delivery loop is a
        # no-op too), so inline those no-op shapes and skip the call.
        request_link = self.request_link
        reply_link = self.reply_link
        moved = (request_link.packets_transferred
                 + reply_link.packets_transferred)
        if request_link.input._items:
            request_link.tick(now)
        else:
            in_flight = request_link._in_flight
            if in_flight and in_flight[0][0] <= now:
                request_link.tick(now)
            elif request_link._credit > request_link.width_bytes:
                request_link._credit = request_link.width_bytes
        if reply_link.input._items:
            reply_link.tick(now)
        else:
            in_flight = reply_link._in_flight
            if in_flight and in_flight[0][0] <= now:
                reply_link.tick(now)
            elif reply_link._credit > reply_link.width_bytes:
                reply_link._credit = reply_link.width_bytes
        # Activity verdict from end-of-tick state: drained -> sleep
        # untimed; otherwise the next known event (in-flight maturity,
        # credit refill) across both directions, or stay awake when
        # either direction can progress within a cycle.  A link pair
        # that moved a packet this cycle is plainly active (the
        # streaming common case): skip the verdict computation.
        if (request_link.packets_transferred
                + reply_link.packets_transferred != moved):
            return False
        if not (
            request_link.input._items
            or request_link._in_flight
            or reply_link.input._items
            or reply_link._in_flight
        ):
            return True
        req_verdict = request_link.wake_verdict(now)
        if req_verdict is False:
            return False
        rep_verdict = reply_link.wake_verdict(now)
        if rep_verdict is False:
            return False
        if req_verdict is True:
            return rep_verdict
        if rep_verdict is True:
            return req_verdict
        return req_verdict if req_verdict < rep_verdict else rep_verdict

    @property
    def pending(self) -> int:
        return self.request_link.pending + self.reply_link.pending

    @property
    def bytes_transferred(self) -> int:
        return (
            self.request_link.bytes_transferred
            + self.reply_link.bytes_transferred
        )
