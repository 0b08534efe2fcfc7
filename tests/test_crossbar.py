"""Crossbar NoC tests: bandwidth ceilings, latency, contention."""

import pytest

from repro.noc.crossbar import Crossbar
from repro.sim.engine import Simulator


class Harness:
    def __init__(self, ports=4, width=16, latency=2):
        self.xbar = Crossbar("x", ports, width, latency)
        self.delivered = {p: [] for p in range(ports)}
        for port in range(ports):
            self.xbar.set_sink(port, self._sink(port))

    def _sink(self, port):
        def sink(item):
            self.delivered[port].append(item)
            return True
        return sink

    def run(self, cycles, start=0):
        for cycle in range(start, start + cycles):
            self.xbar.tick(cycle)
        return start + cycles


class TestCrossbarBasics:
    def test_packet_delivered_after_latency(self):
        h = Harness(latency=3)
        h.xbar.inject(0, 1, "pkt", 8)
        h.run(3)
        assert h.delivered[1] == []
        h.run(1, start=3)
        assert h.delivered[1] == ["pkt"]

    def test_large_packet_serialises(self):
        # 136-byte reply over a 16 B/cycle port: needs 9 busy cycles.
        h = Harness(width=16, latency=0)
        h.xbar.inject(0, 1, "reply", 136)
        h.run(8)
        assert h.delivered[1] == []
        h.run(3, start=8)
        assert h.delivered[1] == ["reply"]

    def test_parallel_disjoint_flows_do_not_interfere(self):
        h = Harness(ports=4, width=16, latency=0)
        for i in range(4):
            h.xbar.inject(0, 2, ("a", i), 16)
            h.xbar.inject(1, 3, ("b", i), 16)
        h.run(6)
        assert len(h.delivered[2]) == 4
        assert len(h.delivered[3]) == 4

    def test_output_contention_halves_throughput(self):
        """Two inputs targeting one output share its ejection bandwidth."""
        h = Harness(ports=4, width=16, latency=0)
        for i in range(10):
            h.xbar.inject(0, 2, ("a", i), 16)
            h.xbar.inject(1, 2, ("b", i), 16)
        h.run(10)
        # Output port 2 ejects 16 B/cycle -> at most ~11 packets in 10
        # cycles (one cycle of banked credit).
        assert len(h.delivered[2]) <= 11

    def test_input_queue_capacity(self):
        h = Harness()
        accepted = sum(
            1 for i in range(200) if h.xbar.inject(0, 1, i, 8)
        )
        assert accepted == h.xbar.queue_capacity

    def test_sink_backpressure_blocks_only_that_output(self):
        h = Harness(ports=4, width=64, latency=0)
        h.xbar.set_sink(1, lambda item: False)  # output 1 refuses
        h.xbar.inject(0, 1, "stuck", 8)
        h.xbar.inject(2, 3, "flows", 8)
        h.run(4)
        assert h.delivered[3] == ["flows"]
        assert h.xbar.pending == 1  # "stuck" waits at output 1

    def test_bytes_accounting(self):
        h = Harness(width=64, latency=0)
        h.xbar.inject(0, 1, "a", 24)
        h.xbar.inject(0, 1, "b", 40)
        h.run(3)
        assert h.xbar.bytes_transferred == 64
        assert h.xbar.packets_transferred == 2

    def test_utilization_bounded(self):
        h = Harness(ports=2, width=8, latency=0)
        for i in range(50):
            h.xbar.inject(0, 1, i, 8)
        h.run(20)
        assert h.xbar.aggregate_utilization(20) <= 1.0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            Crossbar("x", 0, 16, 1)
        with pytest.raises(ValueError):
            Crossbar("x", 4, 0, 1)


class TestCrossbarFairness:
    def test_round_robin_rotation_serves_all_inputs(self):
        h = Harness(ports=3, width=16, latency=0)
        for i in range(30):
            h.xbar.inject(0, 2, ("a", i), 16)
            h.xbar.inject(1, 2, ("b", i), 16)
        h.run(30)
        sources = {tag for tag, _ in h.delivered[2]}
        assert sources == {"a", "b"}
        a_count = sum(1 for tag, _ in h.delivered[2] if tag == "a")
        b_count = sum(1 for tag, _ in h.delivered[2] if tag == "b")
        assert abs(a_count - b_count) <= 4


class _RecordingCrossbar(Crossbar):
    """Records the cycles the engine ticks it at."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tick_cycles = []

    def tick(self, now):
        self.tick_cycles.append(now)
        return super().tick(now)


class TestCrossbarDelivery:
    """Delivery runs only when an output head is due; the verdict is
    the earliest head maturity."""

    def test_refused_head_is_retried_every_cycle(self):
        sim = Simulator()
        xbar = sim.add(_RecordingCrossbar("x", 2, 16, 2))
        offered = []

        def sink(item):
            offered.append(sim.cycle)
            return sim.cycle >= 7

        xbar.set_sink(1, sink)
        xbar.inject(0, 1, "pkt", 8)
        sim.run(20)
        # Due at 2, refused through 6, accepted at 7, then asleep.
        assert offered == [2, 3, 4, 5, 6, 7]
        assert xbar.tick_cycles == [0, 2, 3, 4, 5, 6, 7]
        assert xbar.pending == 0

    def test_future_arrivals_sleep_until_the_earliest(self):
        sim = Simulator()
        xbar = sim.add(_RecordingCrossbar("x", 4, 16, 10))
        delivered = {1: [], 3: []}
        for port in delivered:
            xbar.set_sink(port, lambda item, port=port: (
                delivered[port].append((sim.cycle, item)) or True))
        xbar.inject(0, 1, "a", 8)

        def inject_b(cycle):
            if cycle == 3:
                xbar.inject(2, 3, "b", 8)

        sim.every(3, inject_b)
        sim.run(30)
        # "a" matures at 10 and "b" at 13: the crossbar ticks where
        # packets enter and where heads mature, nowhere in between.
        assert xbar.tick_cycles == [0, 3, 10, 13]
        assert delivered == {1: [(10, "a")], 3: [(13, "b")]}
