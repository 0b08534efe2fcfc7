"""The experiment runner: configured, cached simulations.

Every figure of the paper is a set of (benchmark, configuration) points.
:class:`ExperimentRunner` executes those points on demand and caches the
results, so e.g. Figures 7, 8, 9 and 13 -- which all derive from the same
iso-resource runs -- simulate each point once.

The default hardware is :func:`repro.config.presets.small_config`, the
proportionally scaled GPU documented in DESIGN.md. ``RunKey`` captures
every knob an experiment can turn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.config.gpu import GPUConfig
from repro.config.presets import (
    small_config,
    with_llc_capacity,
    with_partition_ratio,
)
from repro.config.topology import (
    AddressMapKind,
    Architecture,
    MCMSpec,
    PagePolicy,
    ReplicationPolicy,
    TopologySpec,
)
from repro.core.builders import build_system
from repro.core.mcm import build_mcm_system
from repro.core.system import GPUSystem, RunResult
from repro.workloads.suite import get_benchmark

#: MDR epoch for scaled runs (the paper's 20 K cycles assumes billion
#: cycle simulations; scaled runs are tens of thousands of cycles).
SCALED_MDR_EPOCH = 2000


@dataclass(frozen=True)
class RunKey:
    """One experiment point: a benchmark on a configuration."""

    benchmark: str
    architecture: Architecture = Architecture.MEM_SIDE_UBA
    replication: ReplicationPolicy = ReplicationPolicy.NONE
    page_policy: PagePolicy = PagePolicy.LAB
    address_map: AddressMapKind = AddressMapKind.FIXED_CHANNEL
    lab_threshold: float = 0.9
    noc_gbps: Optional[float] = None  # None = config default
    noc_cluster: int = 1
    llc_capacity_factor: float = 1.0
    slices_per_channel: Optional[int] = None
    page_bytes: Optional[int] = None
    size_factor: float = 1.0  # scales channels/SMs/slices together
    mcm_modules: int = 0  # 0 = monolithic
    mcm_link_gbps: float = 720.0

    def describe(self) -> str:
        """Short human-readable description of the point."""
        parts = [self.benchmark, self.architecture.value,
                 self.replication.value, self.page_policy.value]
        if self.noc_gbps is not None:
            parts.append(f"noc={self.noc_gbps:.0f}GB/s")
        if self.mcm_modules:
            parts.append(f"mcm{self.mcm_modules}")
        return " ".join(parts)


#: The simulator's model version, part of every store fingerprint.  Bump
#: it with every change that moves a result (every re-pin of
#: ``bench/expected.json``); tests/test_store.py pins the two together.
MODEL_VERSION = 1


class ExperimentRunner:
    """Runs and caches experiment points.

    ``store`` is an optional :class:`~repro.experiments.store.ResultStore`
    (or anything with the same ``load``/``save`` signature): when set,
    ``run`` consults the store before simulating and persists every new
    result, keyed by the RunKey *and* this runner's settings
    (:meth:`cache_settings`), so sweeps are resumable across processes.

    ``observer`` is an optional :class:`~repro.obs.observer.RunObserver`
    (or anything with ``attach(key, system)`` / ``finish(key, system,
    result)``): every point the runner actually simulates is
    instrumented through it, which is how ``figure --trace/--timeline``
    produce per-point artifacts. Cached points never reach the
    observer.
    """

    def __init__(self, base_gpu: Optional[GPUConfig] = None,
                 mdr_epoch: int = SCALED_MDR_EPOCH,
                 max_cycles: int = 3_000_000,
                 store=None, observer=None,
                 strict: bool = False) -> None:
        self.base_gpu = base_gpu if base_gpu is not None else small_config()
        self.mdr_epoch = mdr_epoch
        self.max_cycles = max_cycles
        self.store = store
        self.observer = observer
        #: Build systems with quiescence skipping disabled (results are
        #: identical; this exists for debugging and A/B perf runs, so it
        #: is deliberately NOT part of :meth:`cache_settings`).
        self.strict = strict
        self._cache: Dict[RunKey, RunResult] = {}
        self._system_cache: Dict[RunKey, GPUSystem] = {}
        self.simulations_run = 0

    # ------------------------------------------------------------------
    # Configuration assembly.
    # ------------------------------------------------------------------

    def gpu_for(self, key: RunKey) -> GPUConfig:
        """The GPU configuration a key resolves to."""
        gpu = self.base_gpu
        if key.size_factor != 1.0:
            channels = int(gpu.num_channels * key.size_factor)
            memory = replace(
                gpu.memory,
                stacks=1,
                channels_per_stack=channels,
                total_bandwidth_gbps=(
                    gpu.memory.total_bandwidth_gbps * key.size_factor
                ),
            )
            noc = replace(
                gpu.noc,
                ports=channels * 2,
                total_bandwidth_gbps=(
                    gpu.noc.total_bandwidth_gbps * key.size_factor
                ),
            )
            local = replace(
                gpu.local_link,
                total_bandwidth_gbps=(
                    gpu.local_link.total_bandwidth_gbps * key.size_factor
                ),
            )
            gpu = replace(
                gpu,
                num_sms=channels * 2,
                num_llc_slices=channels * 2,
                memory=memory,
                noc=noc,
                local_link=local,
            )
        if key.llc_capacity_factor != 1.0:
            gpu = with_llc_capacity(gpu, key.llc_capacity_factor)
        if key.slices_per_channel is not None:
            gpu = with_partition_ratio(gpu, key.slices_per_channel)
        if key.noc_gbps is not None:
            gpu = replace(gpu, noc=gpu.noc.with_bandwidth(key.noc_gbps))
        if key.noc_cluster != 1:
            gpu = replace(gpu, noc=gpu.noc.with_cluster(key.noc_cluster))
        if key.page_bytes is not None:
            gpu = replace(gpu, page_bytes=key.page_bytes)
        return gpu

    def topology_for(self, key: RunKey) -> TopologySpec:
        """The topology spec a key resolves to."""
        mcm = None
        if key.mcm_modules:
            mcm = MCMSpec(
                modules=key.mcm_modules,
                inter_module_bandwidth_gbps=key.mcm_link_gbps,
            )
        return TopologySpec(
            architecture=key.architecture,
            address_map=key.address_map,
            page_policy=key.page_policy,
            replication=key.replication,
            lab_threshold=key.lab_threshold,
            mdr_epoch=self.mdr_epoch,
            mcm=mcm,
        )

    def build(self, key: RunKey) -> GPUSystem:
        """Construct the simulated system for a key."""
        gpu = self.gpu_for(key)
        topo = self.topology_for(key)
        if key.mcm_modules:
            return build_mcm_system(gpu, topo, strict=self.strict)
        return build_system(gpu, topo, strict=self.strict)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def cache_settings(self) -> Dict[str, object]:
        """Runner inputs that change results without appearing in the
        RunKey: the base GPU (``GPUConfig.digest``), the model version,
        ``mdr_epoch`` and ``max_cycles``.  Folded into store
        fingerprints, so two runners that would simulate different
        results never share disk entries."""
        return {"gpu": self.base_gpu.digest, "model": MODEL_VERSION,
                "mdr_epoch": self.mdr_epoch, "max_cycles": self.max_cycles}

    def lookup(self, key: RunKey) -> Optional[RunResult]:
        """Fetch a result from the in-memory cache or the store, or
        None if the point has never been simulated."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.store is not None:
            stored = self.store.load(key, settings=self.cache_settings())
            if stored is not None:
                self._cache[key] = stored
                return stored
        return None

    def publish(self, key: RunKey, result: RunResult) -> None:
        """Record a result in the in-memory cache and the store (used
        by the sweep orchestrator to inject worker-produced results)."""
        self._cache[key] = result
        if self.store is not None:
            self.store.save(key, result, settings=self.cache_settings())

    def _simulate(self, key: RunKey):
        system = self.build(key)
        if self.observer is not None:
            self.observer.attach(key, system)
        workload = get_benchmark(key.benchmark).instantiate(system.gpu)
        result = system.run_workload(workload, max_cycles=self.max_cycles)
        self.simulations_run += 1
        if self.observer is not None:
            self.observer.finish(key, system, result)
        return system, result

    def run(self, key: RunKey) -> RunResult:
        """Run (or fetch from cache/store) one experiment point."""
        cached = self.lookup(key)
        if cached is not None:
            return cached
        _, result = self._simulate(key)
        self.publish(key, result)
        return result

    def run_system(self, key: RunKey):
        """Run and return the *system* too (for figure-specific stats
        such as sharing histograms).

        The RunResult half goes through the same cache path as
        :meth:`run`, so a figure that inspects the system also warms
        the caches for every other figure sharing the point; the system
        itself is kept in memory so repeated calls don't re-simulate.
        """
        system = self._system_cache.get(key)
        if system is not None:
            result = self.lookup(key)
            if result is not None:
                return system, result
        system, result = self._simulate(key)
        self._system_cache[key] = system
        self.publish(key, result)
        return system, result

    def speedup(self, key: RunKey, baseline: RunKey) -> float:
        """Speedup of one point over another (cached runs)."""
        return self.run(key).speedup_over(self.run(baseline))
