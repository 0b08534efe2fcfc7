"""A bandwidth- and latency-accurate crossbar model.

The paper's NoC is a hierarchical crossbar assembled from 16 8x8
crossbars with 16 B links and 4-cycle stage latency (Section 6). We model
the aggregate structure: every port can inject and eject ``port width``
bytes per cycle, packets pay the full pipeline latency (stages x stage
latency), and per-port ceilings produce hot-spot congestion (camping in
front of a popular LLC slice, Section 5) without simulating individual
flits.

Packets wider than the per-cycle port width (e.g. 136 B replies over a
16 B link) accumulate credit over multiple cycles, modelling wormhole
serialisation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.engine import Component

#: A sink accepts a delivered item or returns False (downstream full).
Sink = Callable[[object], bool]

#: ``_next_due`` while no packet is in the pipeline.
_NO_ARRIVALS = float("inf")


class Crossbar(Component):
    """An N-port crossbar with per-port bandwidth and pipeline latency."""

    def __init__(
        self,
        name: str,
        ports: int,
        port_bytes_per_cycle: float,
        latency: int,
        queue_capacity: int = 64,
        max_packet_bytes: int = 256,
    ) -> None:
        super().__init__(name)
        if ports <= 0:
            raise ValueError("crossbar needs at least one port")
        if port_bytes_per_cycle <= 0:
            raise ValueError("port width must be positive")
        self.ports = ports
        self.port_width = float(port_bytes_per_cycle)
        self.latency = latency
        self.queue_capacity = queue_capacity
        self._credit_cap = max(self.port_width, float(max_packet_bytes))

        self._in_queues: List[Deque[Tuple[object, int, int]]] = [
            deque() for _ in range(ports)
        ]
        self._in_credit = [0.0] * ports
        self._out_credit = [0.0] * ports
        # Start one cycle in the past so ports have credit at cycle 0.
        self._out_updated = [-1] * ports
        self._arrivals: Dict[int, Deque[Tuple[int, object]]] = {}
        #: Earliest head maturity across the non-empty output pipes
        #: (``_NO_ARRIVALS`` when none).  Every packet matures at its
        #: transfer cycle plus the fixed latency, so a packet entering
        #: a non-empty pipeline never lowers it: it is set when the
        #: first packet enters and recomputed by each delivery.
        self._next_due = _NO_ARRIVALS
        self._sinks: List[Optional[Sink]] = [None] * ports
        self._active: List[int] = []  # input ports with queued packets
        self._rr_offset = 0

        # Statistics (consumed by the power model).
        self.bytes_transferred = 0
        self.packets_transferred = 0
        self.packets_dropped = 0

    # ------------------------------------------------------------------
    # Wiring and ingress.
    # ------------------------------------------------------------------

    def set_sink(self, port: int, sink: Sink) -> None:
        """Wire the delivery callback for one output port."""
        self._sinks[port] = sink

    def inject(self, src_port: int, dest_port: int, item: object,
               size_bytes: int) -> bool:
        """Enqueue a packet at an input port; False when the queue is full."""
        queue = self._in_queues[src_port]
        if len(queue) >= self.queue_capacity:
            return False
        if not queue:
            self._active.append(src_port)
        queue.append((item, size_bytes, dest_port))
        if not self._slot.awake:
            self.wake()
        return True

    @property
    def pending(self) -> int:
        queued = sum(len(q) for q in self._in_queues)
        in_flight = sum(len(d) for d in self._arrivals.values())
        return queued + in_flight

    # ------------------------------------------------------------------
    # Per-cycle work.
    # ------------------------------------------------------------------

    def tick(self, now: int) -> object:
        # Deliver only when a head is due.  A refused head leaves
        # _next_due in the past, so delivery retries every cycle, as a
        # tick of every pipe would.
        if self._next_due <= now:
            self._deliver(now)
        if self._active:
            self._transfer(now)
            if self._active:
                return False  # queued inputs: transfer again next cycle
        # Activity verdict from end-of-tick state: no inputs queued, so
        # the only pending work is pipeline arrivals.  A head already
        # matured means the sink refused it (head-of-line block, retry
        # every cycle); otherwise the earliest maturity across the
        # output pipes is a timed wakeup (port credit accrues lazily
        # against absolute cycles, so the elided ticks mutate nothing).
        if not self._arrivals:
            return True
        return self._next_due

    def _deliver(self, now: int) -> None:
        arrivals = self._arrivals
        next_due = _NO_ARRIVALS
        for dest in list(arrivals):
            pipe = arrivals[dest]
            sink = self._sinks[dest]
            while pipe and pipe[0][0] <= now:
                if sink is None or sink(pipe[0][1]):
                    pipe.popleft()
                else:
                    break  # head-of-line blocking at this output
            if pipe:
                due = pipe[0][0]
                if due < next_due:
                    next_due = due
            else:
                del arrivals[dest]
        self._next_due = next_due

    def _out_budget(self, dest: int, now: int) -> float:
        """Lazily accrue output-port credit."""
        elapsed = now - self._out_updated[dest]
        if elapsed > 0:
            self._out_credit[dest] = min(
                self._credit_cap,
                self._out_credit[dest] + elapsed * self.port_width,
            )
            self._out_updated[dest] = now
        return self._out_credit[dest]

    def _transfer(self, now: int) -> None:
        """Move packets from input queues into the pipeline.

        The output-credit accrual (= :meth:`_out_budget`) is inlined and
        the instance attributes hoisted into locals: this loop runs once
        per cycle for every crossbar with queued traffic and dominated
        the NoC's profile before hoisting.
        """
        still_active: List[int] = []
        active = self._active
        # Rotate the service order for fairness.
        self._rr_offset = (self._rr_offset + 1) % max(1, len(active))
        offset = self._rr_offset
        order = active[offset:] + active[:offset] if offset else active
        in_queues = self._in_queues
        in_credit = self._in_credit
        out_credit = self._out_credit
        out_updated = self._out_updated
        arrivals = self._arrivals
        port_width = self.port_width
        credit_cap = self._credit_cap
        latency = self.latency
        tracer = self.tracer
        trace = tracer.enabled
        bytes_moved = 0
        packets_moved = 0
        for port in order:
            queue = in_queues[port]
            credit = in_credit[port] + port_width
            if credit > credit_cap:
                credit = credit_cap
            while queue:
                item, size, dest = queue[0]
                if credit < size:
                    break
                elapsed = now - out_updated[dest]
                if elapsed > 0:
                    budget = out_credit[dest] + elapsed * port_width
                    if budget > credit_cap:
                        budget = credit_cap
                    out_updated[dest] = now
                else:
                    budget = out_credit[dest]
                if budget < size:
                    out_credit[dest] = budget
                    break  # output port saturated: head-of-line block
                out_credit[dest] = budget - size
                credit -= size
                queue.popleft()
                pipe = arrivals.get(dest)
                if pipe is None:
                    if not arrivals:
                        self._next_due = now + latency
                    pipe = deque()
                    arrivals[dest] = pipe
                pipe.append((now + latency, item))
                bytes_moved += size
                packets_moved += 1
                if trace:
                    tracer.emit_hop(now, self.name, port, dest, size, item)
            in_credit[port] = credit
            if queue:
                still_active.append(port)
        self._active = still_active
        self.bytes_transferred += bytes_moved
        self.packets_transferred += packets_moved

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------

    def aggregate_utilization(self, cycles: int) -> float:
        """Fraction of the aggregate bandwidth actually used."""
        if cycles <= 0:
            return 0.0
        capacity = self.ports * self.port_width * cycles
        return self.bytes_transferred / capacity
