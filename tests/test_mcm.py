"""Multi-chip-module system tests (Section 7.6, Figure 15)."""

import pytest

from repro.config.presets import small_config
from repro.config.topology import (
    Architecture,
    MCMSpec,
    ReplicationPolicy,
    TopologySpec,
)
from repro.core.mcm import ModuleEgressLinks, build_mcm_system
from repro.workloads.suite import get_benchmark

GPU = small_config(num_channels=4, warps_per_sm=4)  # 8 SMs, 4 partitions
MCM = MCMSpec(modules=2, inter_module_bandwidth_gbps=90.0,
              inter_module_latency=16)


def _system(arch, rep=ReplicationPolicy.NONE, mcm=MCM):
    topo = TopologySpec(architecture=arch, replication=rep,
                        mdr_epoch=1000, mcm=mcm)
    return build_mcm_system(GPU, topo)


class TestBuilders:
    def test_mem_side_mcm_builds(self):
        system = _system(Architecture.MEM_SIDE_UBA)
        assert system.modules == 2
        assert len(system.egress.links) == 2

    def test_nuba_mcm_builds(self):
        system = _system(Architecture.NUBA)
        assert system.module_of_partition(0) == 0
        assert system.module_of_partition(3) == 1

    def test_requires_mcm_spec(self):
        topo = TopologySpec(architecture=Architecture.NUBA)
        with pytest.raises(ValueError):
            build_mcm_system(GPU, topo)

    def test_sm_side_mcm_not_modelled(self):
        topo = TopologySpec(architecture=Architecture.SM_SIDE_UBA, mcm=MCM)
        with pytest.raises(ValueError):
            build_mcm_system(GPU, topo)

    def test_module_maps(self):
        system = _system(Architecture.MEM_SIDE_UBA)
        assert system.module_of_sm(0) == 0
        assert system.module_of_sm(GPU.num_sms - 1) == 1
        assert system.module_of_slice(0) == 0
        assert system.module_of_slice(GPU.num_llc_slices - 1) == 1


class TestExecution:
    def test_uba_mcm_completes_and_uses_links(self):
        system = _system(Architecture.MEM_SIDE_UBA)
        workload = get_benchmark("AN").instantiate(GPU)
        result = system.run_workload(workload)
        assert result.loads_completed > 0
        # Shared weights force cross-module traffic.
        assert system.egress.bytes_transferred > 0

    def test_nuba_mcm_completes(self):
        system = _system(Architecture.NUBA, rep=ReplicationPolicy.MDR)
        workload = get_benchmark("AN").instantiate(GPU)
        result = system.run_workload(workload)
        assert result.loads_completed > 0

    def test_local_workload_crosses_no_modules(self):
        """A private-data workload placed by LAB stays module-local on
        both architectures -- the inter-module links see no traffic."""
        system = _system(Architecture.NUBA)
        workload = get_benchmark("DWT2D").instantiate(GPU)
        result = system.run_workload(workload)
        assert result.local_fraction > 0.5
        assert system.egress.bytes_transferred == 0

    def test_replication_cuts_inter_module_traffic(self):
        """MDR replication turns cross-module read-only traffic into
        module-local accesses (why NUBA matters more for MCM)."""
        norep = _system(Architecture.NUBA, rep=ReplicationPolicy.NONE)
        norep_result = norep.run_workload(
            get_benchmark("AN").instantiate(GPU)
        )
        mdr = _system(Architecture.NUBA, rep=ReplicationPolicy.MDR)
        mdr_result = mdr.run_workload(
            get_benchmark("AN").instantiate(GPU)
        )
        assert mdr.egress.bytes_transferred < (
            norep.egress.bytes_transferred
        )
        assert mdr_result.cycles <= norep_result.cycles

    def test_scarcer_links_hurt_uba_more(self):
        """Narrower inter-module links slow UBA down; NUBA with MDR,
        whose traffic is mostly local, is less sensitive (the Figure 16
        argument)."""
        narrow = MCMSpec(modules=2, inter_module_bandwidth_gbps=20.0,
                         inter_module_latency=16)

        def cycles(arch, rep, mcm):
            system = _system(arch, rep=rep, mcm=mcm)
            return system.run_workload(
                get_benchmark("AN").instantiate(GPU)
            ).cycles

        uba_slowdown = (
            cycles(Architecture.MEM_SIDE_UBA, ReplicationPolicy.NONE,
                   narrow)
            / cycles(Architecture.MEM_SIDE_UBA, ReplicationPolicy.NONE,
                     MCM)
        )
        nuba_slowdown = (
            cycles(Architecture.NUBA, ReplicationPolicy.MDR, narrow)
            / cycles(Architecture.NUBA, ReplicationPolicy.MDR, MCM)
        )
        assert uba_slowdown >= nuba_slowdown * 0.95


class TestEgressLinks:
    def test_send_delivers_through_final_sink(self):
        links = ModuleEgressLinks(2, MCM)
        delivered = []

        class Req:
            request_bytes = 8

        def sink(r):
            delivered.append(r)
            return True

        request = Req()
        assert links.send(0, request, 8, sink)
        # Wider than a cycle of link credit (~32 B): it waits several
        # cycles for credit, and the links must stay awake meanwhile --
        # they only sleep with an empty ingress.
        wide = Req()
        assert links.send(0, wide, 136, sink)
        waited = 0
        for cycle in range(40):
            verdict = links.tick(cycle)
            if links.links[0].input:
                assert verdict is False, cycle
                waited += 1
        assert waited >= 3
        assert delivered == [request, wide]

    def test_pending_counts(self):
        links = ModuleEgressLinks(2, MCM)
        links.send(1, object(), 8, lambda r: True)
        assert links.pending == 1
