"""Multi-Chip-Module GPUs (Section 7.6, Figure 15).

An MCM GPU splits the chip into modules connected by interposer links
whose bandwidth is far below on-module NoC bandwidth (720 GB/s
bidirectional in the paper's four-module setup). We model this by
routing every packet that crosses a module boundary through the source
module's egress :class:`~repro.sim.queues.BandwidthLink` before it enters
the regular interconnect: cross-module traffic pays the link latency and
shares the per-module egress bandwidth.

NUBA's advantage grows in MCM systems because data replication avoids the
scarce inter-module bandwidth (the paper reports +40.0% for MCM vs +30.1%
for an equally sized monolithic GPU).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.config.gpu import GPUConfig, gbps_to_bytes_per_cycle
from repro.config.topology import Architecture, MCMSpec, TopologySpec
from repro.core.builders import MemSideUBASystem, NUBASystem
from repro.core.system import GPUSystem
from repro.sim.engine import Component
from repro.sim.queues import BandwidthLink
from repro.sim.request import MemoryRequest

#: A deferred delivery: (final_sink, request).
_Packet = Tuple[Callable[[MemoryRequest], bool], MemoryRequest]


class ModuleEgressLinks(Component):
    """One egress link per module for cross-module traffic."""

    def __init__(self, modules: int, spec: MCMSpec) -> None:
        super().__init__("mcm-links")
        # "Bidirectional X GB/s" means X/2 per direction.
        width = gbps_to_bytes_per_cycle(spec.inter_module_bandwidth_gbps) / 2
        self.links: List[BandwidthLink[_Packet]] = [
            BandwidthLink(
                width,
                spec.inter_module_latency,
                sink=self._deliver,
                capacity=128,
                name=f"module{m}.egress",
            )
            for m in range(modules)
        ]

    @staticmethod
    def _deliver(packet: _Packet) -> bool:
        final_sink, request = packet
        return final_sink(request)

    def send(self, module: int, request: MemoryRequest, size: int,
             final_sink: Callable[[MemoryRequest], bool]) -> bool:
        """Queue a cross-module packet on the module's egress link."""
        self.wake()
        return self.links[module].push((final_sink, request), size)

    def tick(self, now: int) -> object:
        links = self.links
        moved = 0
        for link in links:
            moved += link.packets_transferred
        for link in links:
            link.tick(now)
        # A module that moved a packet this cycle is plainly active:
        # skip the per-link verdict computation (streaming common case).
        after = 0
        for link in links:
            after += link.packets_transferred
        if after != moved:
            return False
        verdict: object = True
        for link in self.links:
            if not link.input._items and not link._in_flight:
                continue
            link_verdict = link.wake_verdict(now)
            if link_verdict is False:
                return False
            if verdict is True or link_verdict < verdict:
                verdict = link_verdict
        return verdict

    @property
    def pending(self) -> int:
        return sum(link.pending for link in self.links)

    @property
    def bytes_transferred(self) -> int:
        return sum(link.bytes_transferred for link in self.links)


class _MCMMixin:
    """Shared module bookkeeping for MCM systems."""

    def _init_mcm(self, gpu: GPUConfig, spec: MCMSpec) -> None:
        self.mcm_spec = spec
        self.modules = spec.modules
        self._sms_per_module = gpu.num_sms // spec.modules
        self._slices_per_module = gpu.num_llc_slices // spec.modules
        self._partitions_per_module = gpu.num_partitions // spec.modules
        self.egress = ModuleEgressLinks(spec.modules, spec)
        self.sim.add(self.egress)
        self.noc_energy.register_p2p(
            "mcm-links", lambda: self.egress.bytes_transferred
        )

    def module_of_sm(self, sm_id: int) -> int:
        return sm_id // self._sms_per_module

    def module_of_slice(self, slice_id: int) -> int:
        return slice_id // self._slices_per_module

    def module_of_partition(self, partition: int) -> int:
        return partition // self._partitions_per_module


class MCMMemSideUBASystem(_MCMMixin, MemSideUBASystem):
    """Memory-side UBA split across interposer modules (Figure 15a)."""

    def _build_interconnect(self) -> None:
        # Module bookkeeping must exist before the base wiring because the
        # overridden sink factories consult it.
        self._init_mcm(self.gpu, self.topo.mcm)
        MemSideUBASystem._build_interconnect(self)

    def _route_request(self, request: MemoryRequest) -> bool:
        src_module = self.module_of_sm(request.sm_id)
        dst_module = self.module_of_slice(request.home_slice)
        if src_module == dst_module:
            return MemSideUBASystem._route_request(self, request)
        inject = MemSideUBASystem._route_request
        return self.egress.send(
            src_module,
            request,
            request.request_bytes,
            lambda req, _inject=inject: _inject(self, req),
        )

    def _make_slice_reply_sink(self, slice_id: int):
        base_sink = MemSideUBASystem._make_slice_reply_sink(self, slice_id)
        slice_module = self.module_of_slice(slice_id)

        def sink(request: MemoryRequest) -> bool:
            if self.module_of_sm(request.sm_id) == slice_module:
                return base_sink(request)
            return self.egress.send(
                slice_module, request, request.reply_bytes, base_sink
            )

        return sink

    def _interconnect_pending(self) -> int:
        return MemSideUBASystem._interconnect_pending(self) + self.egress.pending


class MCMNUBASystem(_MCMMixin, NUBASystem):
    """NUBA split across interposer modules (Figure 15b)."""

    def _build_interconnect(self) -> None:
        self._init_mcm(self.gpu, self.topo.mcm)
        NUBASystem._build_interconnect(self)

    def _make_partition_request_sink(self, partition: int):
        base_sink = NUBASystem._make_partition_request_sink(self, partition)
        partition_module = self.module_of_partition(partition)

        def sink(request: MemoryRequest) -> bool:
            if request.is_replica_access or request.home_partition == partition:
                return base_sink(request)
            if self.module_of_partition(request.home_partition) == partition_module:
                return base_sink(request)
            return self.egress.send(
                partition_module, request, request.request_bytes, base_sink
            )

        return sink

    def _make_slice_reply_sink(self, slice_id: int):
        base_sink = NUBASystem._make_slice_reply_sink(self, slice_id)
        slice_module = self.module_of_slice(slice_id)

        def sink(request: MemoryRequest) -> bool:
            src_module = self.module_of_partition(request.src_partition)
            if src_module == slice_module:
                return base_sink(request)
            return self.egress.send(
                slice_module, request, request.reply_bytes, base_sink
            )

        return sink

    def _make_replica_miss_sink(self, slice_id: int):
        base_sink = NUBASystem._make_replica_miss_sink(self, slice_id)
        slice_module = self.module_of_slice(slice_id)

        def sink(request: MemoryRequest) -> bool:
            home_module = self.module_of_slice(request.home_slice)
            if home_module == slice_module:
                return base_sink(request)
            return self.egress.send(
                slice_module, request, request.request_bytes, base_sink
            )

        return sink

    def _interconnect_pending(self) -> int:
        return NUBASystem._interconnect_pending(self) + self.egress.pending


def build_mcm_system(gpu: GPUConfig, topo: TopologySpec,
                     strict: bool = False) -> GPUSystem:
    """Factory for MCM systems; ``topo.mcm`` must be set."""
    if topo.mcm is None:
        raise ValueError("topology has no MCM spec")
    if topo.architecture is Architecture.MEM_SIDE_UBA:
        return MCMMemSideUBASystem(gpu, topo, strict=strict)
    if topo.architecture is Architecture.NUBA:
        return MCMNUBASystem(gpu, topo, strict=strict)
    raise ValueError(
        f"MCM variant not modelled for {topo.architecture}"
    )
