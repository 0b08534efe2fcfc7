"""Queues, delay lines and bandwidth-limited links.

These primitives provide the back-pressure and bandwidth ceilings that the
NUBA evaluation hinges on. A :class:`BandwidthLink` transfers a bounded
number of bytes per cycle and delivers packets after a fixed pipeline
latency -- it models both the NUBA point-to-point partition links and the
per-port behaviour of crossbar NoCs.

All three classes are slotted: queue and delay-line instances number in
the hundreds and sit on every per-cycle path, so avoiding per-instance
``__dict__`` lookups is a measurable win (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Shared empty result for :meth:`DelayLine.pop_ready` calls with no
#: due items -- callers only iterate the result, so handing every such
#: call the same empty list avoids an allocation on a very hot path.
#: (Never mutated: ``pop_ready`` builds a fresh list when items exist.)
_NOTHING_READY: List = []


class BoundedQueue(Generic[T]):
    """A FIFO with a maximum occupancy.

    ``push`` returns ``False`` when the queue is full so that producers can
    stall, which is how structural back-pressure propagates through the
    model (e.g. a full LMR queue stalls the partition link, Figure 5).
    """

    __slots__ = ("capacity", "name", "_items", "peak_occupancy",
                 "total_pushed")

    def __init__(self, capacity: int, name: str = "queue") -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._items: Deque[T] = deque()
        self.peak_occupancy = 0
        self.total_pushed = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item: T) -> bool:
        """Append an item; False when the queue is full."""
        items = self._items
        occupancy = len(items)
        if occupancy >= self.capacity:
            return False
        items.append(item)
        occupancy += 1
        self.total_pushed += 1
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        return True

    def peek(self) -> Optional[T]:
        """The head item without removing it (None if empty)."""
        if not self._items:
            return None
        return self._items[0]

    def push_front(self, item: T) -> None:
        """Return an item to the head of the queue (retry after a popped
        item could not be processed); may exceed capacity by one."""
        self._items.appendleft(item)

    def pop(self) -> T:
        """Remove and return the head item."""
        return self._items.popleft()

    def clear(self) -> None:
        """Drop every queued item."""
        self._items.clear()

    def __iter__(self):
        return iter(self._items)


class DelayLine(Generic[T]):
    """Delivers items a fixed number of cycles after insertion.

    Implemented as a deque of ``(ready_cycle, item)`` pairs; insertion order
    guarantees monotonically non-decreasing ready cycles when the delay is
    constant, so ``pop_ready`` only inspects the head.
    """

    __slots__ = ("delay", "_items")

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay
        self._items: Deque[Tuple[int, T]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item: T, now: int) -> None:
        """Insert an item that becomes ready after the delay."""
        self._items.append((now + self.delay, item))

    def pop_ready(self, now: int) -> List[T]:
        """Remove and return every item whose delay elapsed."""
        items = self._items
        if not items or items[0][0] > now:
            return _NOTHING_READY
        ready: List[T] = []
        while items and items[0][0] <= now:
            ready.append(items.popleft()[1])
        return ready


class BandwidthLink(Generic[T]):
    """A point-to-point link with a byte-per-cycle ceiling and latency.

    Packets are ``(item, size_bytes)`` pairs. Each cycle the link earns
    ``width_bytes`` of credit (fractional widths are supported so narrow
    NoC sweeps remain expressible) and forwards whole packets while credit
    lasts; forwarded packets arrive at the sink after ``latency`` cycles.

    The sink is a callable ``sink(item) -> bool``; returning ``False``
    (downstream queue full) leaves the packet at the head of the arrival
    pipe, modelling head-of-line blocking back-pressure.
    """

    __slots__ = ("width_bytes", "latency", "sink", "name", "_credit_cap",
                 "input", "_in_flight", "_credit", "bytes_transferred",
                 "packets_transferred", "busy_cycles")

    def __init__(
        self,
        width_bytes: float,
        latency: int,
        sink: Callable[[T], bool],
        capacity: int = 64,
        name: str = "link",
        max_packet_bytes: int = 256,
    ) -> None:
        if width_bytes <= 0:
            raise ValueError("link width must be positive")
        self.width_bytes = float(width_bytes)
        self.latency = latency
        self.sink = sink
        self.name = name
        #: Packets wider than one cycle's credit serialise over several
        #: cycles, so busy links may bank credit up to one packet's worth.
        self._credit_cap = max(self.width_bytes, float(max_packet_bytes))
        self.input = BoundedQueue[Tuple[T, int]](capacity, name=f"{name}.in")
        self._in_flight: Deque[Tuple[int, T]] = deque()
        self._credit = 0.0
        self.bytes_transferred = 0
        self.packets_transferred = 0
        self.busy_cycles = 0

    def push(self, item: T, size_bytes: int) -> bool:
        """Enqueue a packet; returns ``False`` when the ingress is full."""
        # BoundedQueue.push inlined: every request/reply on every link
        # funnels through here, and the extra call showed in profiles.
        queue = self.input
        items = queue._items
        occupancy = len(items)
        if occupancy >= queue.capacity:
            return False
        items.append((item, size_bytes))
        occupancy += 1
        queue.total_pushed += 1
        if occupancy > queue.peak_occupancy:
            queue.peak_occupancy = occupancy
        return True

    @property
    def pending(self) -> int:
        return len(self.input) + len(self._in_flight)

    def wake_verdict(self, now: int) -> object:
        """Post-tick activity verdict under the timed-wakeup contract.

        ``True``: fully drained -- sleep until an ingress push.
        ``int``: the head in-flight packet's maturity cycle, the first
        future cycle a tick does real work.
        ``False``: a tick may make progress any cycle (matured head
        refused by the sink retries every cycle; a queued packet
        accrues credit per tick), so the owner must stay awake.

        A link therefore never sleeps with packets queued: each strict
        tick with a non-empty ingress mutates the banked-credit float.
        The tick that produced a sleep verdict ran with an empty
        ingress, so it already applied the idle credit clamp; the
        clamp is idempotent, so the elided ticks would not change the
        credit again.
        """
        in_flight = self._in_flight
        mature = in_flight[0][0] if in_flight else None
        if mature is not None and mature <= now:
            return False  # head-of-line blocked: retry every cycle
        if self.input._items:
            return False  # credit-starved: accrual ticks every cycle
        if mature is None:
            return True
        return mature

    def tick(self, now: int) -> None:
        """Advance the link by one cycle: earn credit, launch packets and
        deliver packets whose latency elapsed."""
        # Deliver arrivals (head-of-line blocking if sink refuses).
        in_flight = self._in_flight
        if in_flight and in_flight[0][0] <= now:
            sink = self.sink
            while in_flight and in_flight[0][0] <= now:
                if not sink(in_flight[0][1]):
                    break
                in_flight.popleft()

        # Transfer new packets within the accumulated credit.
        queued = self.input._items
        if not queued:
            # An idle link cannot bank more than one cycle of bandwidth.
            if self._credit > self.width_bytes:
                self._credit = self.width_bytes
            return
        self.busy_cycles += 1
        credit = self._credit + self.width_bytes
        if credit > self._credit_cap:
            credit = self._credit_cap
        latency = self.latency
        while queued:
            item, size = queued[0]
            if credit < size:
                break
            credit -= size
            queued.popleft()
            in_flight.append((now + latency, item))
            self.bytes_transferred += size
            self.packets_transferred += 1
        self._credit = credit

    def utilization(self, cycles: int) -> float:
        """Fraction of the link's byte budget actually used."""
        if cycles <= 0:
            return 0.0
        return self.bytes_transferred / (self.width_bytes * cycles)
