"""GPU hardware configuration (paper Table 1).

All bandwidths are expressed both in GB/s (as quoted in the paper) and in
bytes per core cycle (as consumed by the cycle model). The default values
reproduce Table 1 exactly; scaled-down configurations for fast simulation
are built by :mod:`repro.config.presets`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

#: Core clock in Hz (Table 1: 1.4 GHz).
CORE_CLOCK_HZ = 1.4e9

#: Memory clock in Hz (Table 1: 350 MHz); core-to-memory clock ratio 4.
MEMORY_CLOCK_HZ = 350e6


def gbps_to_bytes_per_cycle(gb_per_s: float, clock_hz: float = CORE_CLOCK_HZ) -> float:
    """Convert a GB/s figure into bytes per core cycle."""
    return gb_per_s * 1e9 / clock_hz


def bytes_per_cycle_to_gbps(bpc: float, clock_hz: float = CORE_CLOCK_HZ) -> float:
    """Convert bytes per core cycle back to GB/s."""
    return bpc * clock_hz / 1e9


@dataclass(frozen=True)
class SMConfig:
    """Streaming Multiprocessor parameters (Table 1)."""

    simt_width: int = 32
    max_threads: int = 2048
    warps_per_sm: int = 64  # 2048 threads / 32 threads-per-warp
    warp_schedulers: int = 2
    scheduler_policy: str = "gto"  # greedy-then-oldest
    shared_memory_kb: int = 96

    def __post_init__(self) -> None:
        if self.warps_per_sm <= 0:
            raise ValueError("warps_per_sm must be positive")


@dataclass(frozen=True)
class CacheConfig:
    """Set-associative cache geometry."""

    sets: int
    ways: int
    line_bytes: int = 128
    mshr_entries: int = 128
    latency: int = 1
    write_back: bool = False
    write_allocate: bool = False

    @property
    def size_bytes(self) -> int:
        return self.sets * self.ways * self.line_bytes

    def __post_init__(self) -> None:
        if self.sets <= 0 or self.ways <= 0:
            raise ValueError("cache sets/ways must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")


#: L1 data cache: 48 KB per SM, 6-way, 64 sets, 128 B block, 128 MSHRs,
#: write-through, write-no-allocate (Table 1).
DEFAULT_L1 = CacheConfig(sets=64, ways=6, mshr_entries=128, latency=1)

#: One LLC slice: 6 MB total / 64 slices = 96 KB, 16-way, 48 sets,
#: write-back, 120-cycle latency (Table 1).
DEFAULT_LLC_SLICE = CacheConfig(
    sets=48, ways=16, mshr_entries=128, latency=120, write_back=True,
    write_allocate=True,
)


@dataclass(frozen=True)
class TLBConfig:
    """Two-level TLB hierarchy (Section 6)."""

    l1_entries: int = 128
    l1_latency: int = 1
    l2_entries: int = 512
    l2_ways: int = 16
    l2_latency: int = 10
    l2_ports: int = 2
    page_walkers: int = 64
    walk_latency: int = 100  # page-table walk cost in core cycles
    #: Page-fault handling penalty: 20 us at 1.4 GHz = 28000 cycles
    #: (Section 6, [96]).
    page_fault_cycles: int = 28_000


@dataclass(frozen=True)
class HBMTimingConfig:
    """HBM timing parameters in *memory* clock cycles (Table 1)."""

    tRC: int = 24
    tRCD: int = 7
    tRP: int = 7
    tCL: int = 7
    tWL: int = 2
    tRAS: int = 17
    tRRDl: int = 5
    tRRDs: int = 4
    tFAW: int = 20
    tRTP: int = 7
    tCCDl: int = 1
    tCCDs: int = 1
    tWTRl: int = 4
    tWTRs: int = 2

    def in_core_cycles(self, ratio: int = 4) -> "HBMTimingConfig":
        """Scale every timing into core cycles (core:memory clock = 4:1)."""
        return HBMTimingConfig(
            **{name: value * ratio for name, value in self.__dict__.items()}
        )


@dataclass(frozen=True)
class MemoryConfig:
    """Memory system parameters (Table 1)."""

    stacks: int = 4
    channels_per_stack: int = 8
    banks_per_channel: int = 16
    queue_entries: int = 64
    scheduler: str = "frfcfs"
    #: FR-FCFS scheduling window: how deep into the controller queue the
    #: scheduler looks for a row hit each cycle (hardware schedulers use
    #: a similar CAM width).  A window of 1 degenerates to plain FCFS.
    sched_window: int = 16
    total_bandwidth_gbps: float = 720.0
    timing: HBMTimingConfig = field(default_factory=HBMTimingConfig)
    clock_ratio: int = 4  # core cycles per memory cycle

    @property
    def num_channels(self) -> int:
        return self.stacks * self.channels_per_stack

    @property
    def channel_bytes_per_cycle(self) -> float:
        """Per-channel data-bus bandwidth in bytes per core cycle."""
        return gbps_to_bytes_per_cycle(
            self.total_bandwidth_gbps / self.num_channels
        )

    @property
    def line_transfer_cycles(self) -> int:
        """Core cycles to stream one 128 B line over one channel bus."""
        return max(1, round(128 / self.channel_bytes_per_cycle))


@dataclass(frozen=True)
class NoCConfig:
    """Inter-partition / SM-to-LLC NoC parameters (Section 6).

    The paper's 1.4 TB/s hierarchical crossbar is built from 16 8x8
    crossbars, each with 4-cycle latency and 16 B links; a request
    traverses two stages. Aggregate bandwidth scales with the per-port
    link width, which is what the NoC-bandwidth sweeps vary.
    """

    total_bandwidth_gbps: float = 1400.0
    ports: int = 64
    stage_latency: int = 4
    stages: int = 2
    crossbar_radix: int = 8
    #: Port clustering factor (Section 2, [89]): ``cluster`` endpoints
    #: (L1s in UBA, LLC slices in NUBA) share one NoC port, reducing
    #: crossbar area/power at the cost of aggregate bandwidth. The paper
    #: evaluates the unclustered one-to-one mapping (cluster = 1).
    cluster: int = 1

    def __post_init__(self) -> None:
        if self.cluster <= 0:
            raise ValueError("cluster factor must be positive")
        if self.ports % self.cluster:
            raise ValueError("cluster factor must divide the port count")

    @property
    def latency(self) -> int:
        return self.stage_latency * self.stages

    @property
    def port_bytes_per_cycle(self) -> float:
        """Per-port link bandwidth in bytes per core cycle.

        The link width is fixed by the unclustered design; clustering
        keeps the width and reduces the port count, so the aggregate
        bandwidth shrinks by the cluster factor.
        """
        return gbps_to_bytes_per_cycle(self.total_bandwidth_gbps) / self.ports

    def with_bandwidth(self, gbps: float) -> "NoCConfig":
        """This NoC at a different aggregate bandwidth (sweeps)."""
        return replace(self, total_bandwidth_gbps=gbps)

    def with_cluster(self, cluster: int) -> "NoCConfig":
        """This NoC with a different port-clustering factor."""
        return replace(self, cluster=cluster)


@dataclass(frozen=True)
class LocalLinkConfig:
    """NUBA intra-partition point-to-point links (Section 6).

    2.8 TB/s aggregate across all partitions; no input buffers or virtual
    channels, a single cycle of arbitration latency.
    """

    total_bandwidth_gbps: float = 2800.0
    latency: int = 1

    def partition_bytes_per_cycle(self, num_partitions: int) -> float:
        """One partition's share of the local-link bandwidth."""
        return gbps_to_bytes_per_cycle(self.total_bandwidth_gbps) / num_partitions


@dataclass(frozen=True)
class GPUConfig:
    """Complete simulated GPU (Table 1 defaults).

    The ratio of SMs : LLC slices : memory channels is 2:2:1 in the
    baseline; the sensitivity studies change ``num_sms``/``num_llc_slices``
    while the invariants below are checked at construction.
    """

    num_sms: int = 64
    num_llc_slices: int = 64
    sm: SMConfig = field(default_factory=SMConfig)
    l1: CacheConfig = DEFAULT_L1
    llc_slice: CacheConfig = DEFAULT_LLC_SLICE
    tlb: TLBConfig = field(default_factory=TLBConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    noc: NoCConfig = field(default_factory=NoCConfig)
    local_link: LocalLinkConfig = field(default_factory=LocalLinkConfig)
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.num_llc_slices % self.memory.num_channels:
            raise ValueError("LLC slices must divide evenly across channels")
        if self.num_sms % self.memory.num_channels:
            raise ValueError("SMs must divide evenly across channels")
        if self.page_bytes % self.l1.line_bytes:
            raise ValueError("page size must be a multiple of the line size")

    @property
    def num_channels(self) -> int:
        return self.memory.num_channels

    @property
    def num_partitions(self) -> int:
        """One partition per memory channel (Section 3)."""
        return self.num_channels

    @property
    def sms_per_partition(self) -> int:
        return self.num_sms // self.num_partitions

    @property
    def slices_per_partition(self) -> int:
        return self.num_llc_slices // self.num_partitions

    @property
    def slices_per_channel(self) -> int:
        return self.num_llc_slices // self.num_channels

    @property
    def llc_total_bytes(self) -> int:
        return self.num_llc_slices * self.llc_slice.size_bytes

    @property
    def lines_per_page(self) -> int:
        return self.page_bytes // self.l1.line_bytes

    @cached_property
    def digest(self) -> str:
        """Short sha256 of the canonical JSON of every field: the name
        result stores know this machine by.  Computed once per config
        object (a frozen config never changes)."""
        import hashlib  # about 2 ms to import; only store keys need it

        text = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"{self.num_sms} SMs, {self.num_llc_slices} LLC slices "
            f"({self.llc_total_bytes // 1024} KB total), "
            f"{self.num_channels} channels, "
            f"{self.noc.total_bandwidth_gbps:.0f} GB/s NoC, "
            f"{self.page_bytes // 1024} KB pages"
        )
