"""The MDR analytical bandwidth model (Section 5.1).

MDR compares the estimated effective bandwidth with and without read-only
data replication and adopts whichever is higher. The equations are
implemented exactly as published; the decision itself, with its
hysteresis margin, is ``MDRController.on_epoch`` (docs/MODEL.md):

**No replication**::

    BW_NoRep     = Frac_local * BW_local + Frac_remote * BW_remote
    BW_local     = LLC_hit * BW_LLC + BW_LLC_miss
    BW_LLC_miss  = min(LLC_miss * BW_LLC, BW_MEM)
    BW_remote    = min(BW_NoC, LLC_hit * BW_LLC + BW_LLC_miss)

**Full replication** (all L1 misses access local slices)::

    BW_FullRep      = LLC_hit * BW_LLC + BW_LLC_miss
    BW_LLC_miss     = min(LLC_miss * BW_LLC, BW_local/remote)
    BW_local/remote = Frac_local * BW_MEM + Frac_remote * BW_remote
    BW_remote       = min(BW_NoC, BW_MEM)

Microarchitectural inputs (BW_LLC, BW_MEM, BW_NoC) are per-partition
bytes-per-cycle figures; workload inputs (hit rates, local fraction) come
from the set-sampling profiler. The hardware evaluation cost is 116
cycles on two fixed-point ALUs (4 divisions x 25 + 4 multiplications x 3
+ 2 additions + 2 comparisons), which we track for fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.gpu import GPUConfig
from repro.sim.request import LINE_BYTES

#: Hardware model-evaluation latency in cycles (Section 5.1 footnote).
EVALUATION_CYCLES = 4 * 25 + 4 * 3 + 2 * 1 + 2 * 1


@dataclass(frozen=True)
class ModelInputs:
    """Per-partition microarchitectural bandwidths (bytes/cycle)."""

    bw_llc: float
    bw_mem: float
    bw_noc: float

    @classmethod
    def from_config(cls, gpu: GPUConfig) -> "ModelInputs":
        """Derive the per-partition raw bandwidths from a configuration.

        * BW_LLC: what the local slices can stream to the partition's SMs
          -- one access per slice per cycle, capped by the point-to-point
          link width;
        * BW_MEM: the partition's memory-channel data-bus bandwidth;
        * BW_NoC: the partition's NoC bandwidth -- its share of the
          aggregate crossbar bandwidth, i.e. all of its slice ports.
        """
        slices_rate = gpu.slices_per_partition * LINE_BYTES
        link_rate = gpu.local_link.partition_bytes_per_cycle(
            gpu.num_partitions
        )
        return cls(
            bw_llc=min(slices_rate, link_rate),
            bw_mem=gpu.memory.channel_bytes_per_cycle,
            bw_noc=gpu.noc.port_bytes_per_cycle * gpu.slices_per_partition,
        )


class BandwidthModel:
    """Evaluates the Section 5.1 equations."""

    def __init__(self, inputs: ModelInputs) -> None:
        self.inputs = inputs

    def bw_no_replication(
        self, llc_hit_rate: float, frac_local: float
    ) -> float:
        """Effective bandwidth estimate without replication."""
        bw = self.inputs
        llc_miss_rate = 1.0 - llc_hit_rate
        bw_llc_miss = min(llc_miss_rate * bw.bw_llc, bw.bw_mem)
        bw_local = llc_hit_rate * bw.bw_llc + bw_llc_miss
        bw_remote = min(bw.bw_noc, llc_hit_rate * bw.bw_llc + bw_llc_miss)
        frac_remote = 1.0 - frac_local
        return frac_local * bw_local + frac_remote * bw_remote

    def bw_full_replication(
        self, llc_hit_rate: float, frac_local: float
    ) -> float:
        """Effective bandwidth estimate under full replication.

        ``llc_hit_rate`` must be the *full-replication* hit rate (shadow
        directory); ``frac_local`` is the fraction of data physically
        resident in the local memory partition.
        """
        bw = self.inputs
        llc_miss_rate = 1.0 - llc_hit_rate
        bw_remote = min(bw.bw_noc, bw.bw_mem)
        frac_remote = 1.0 - frac_local
        bw_local_remote = frac_local * bw.bw_mem + frac_remote * bw_remote
        bw_llc_miss = min(llc_miss_rate * bw.bw_llc, bw_local_remote)
        return llc_hit_rate * bw.bw_llc + bw_llc_miss
