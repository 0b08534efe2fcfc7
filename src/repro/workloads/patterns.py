"""Access-pattern generators.

Each generator builds a *warp body*: an iterator of
:class:`~repro.sm.warp.Compute` and :class:`~repro.sm.warp.MemAccess`
instructions for one warp of one CTA. Bodies are parameterised by a
:class:`Region` per data structure, so page-sharing behaviour follows
directly from which CTAs touch which regions:

* private slabs (per-CTA page ranges) produce single-SM pages;
* shared regions read by every CTA produce pages shared by most SMs;
* group-shared regions produce the intermediate sharing degrees
  (e.g. SC's 2-10-SM bucket in Figure 3).

Memory instructions are *vectorised*: one :class:`MemAccess` carries
several line targets (unrolled/float4-style code), which gives each warp
the memory-level parallelism that makes real GPU kernels bandwidth-bound
rather than latency-bound -- the property NUBA exploits (Section 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim import fastlane
from repro.sim.request import AccessKind
from repro.sm.warp import Barrier, Compute, Instruction, MemAccess

#: Default lines per vectorised memory instruction.
VECTOR = 4

#: Lines per 4 KB page.
LINES_PER_PAGE = 32


@dataclass(frozen=True)
class Region:
    """A data structure's virtual-page range."""

    name: str
    base_page: int
    pages: int

    def page(self, index: int) -> int:
        """The ``index``-th page of the region (wrapping)."""
        return self.base_page + index % self.pages

    def line_target(self, line_index: int) -> Tuple[int, int]:
        """The ``(vpage, line)`` pair of the region's ``line_index``-th
        line (wrapping)."""
        line_index %= self.pages * LINES_PER_PAGE
        return (
            self.base_page + line_index // LINES_PER_PAGE,
            line_index % LINES_PER_PAGE,
        )

    def slab(self, owner: int, owners: int) -> "Region":
        """The contiguous per-owner slab of this region.

        Splits the region into ``owners`` equal slabs (at least one page
        each) and returns owner's slab as a sub-region. When the region
        has fewer pages than owners, *consecutive* owners share a page --
        consecutive CTAs run on the same SM under distributed CTA
        scheduling, so a small output region still produces single-SM
        pages rather than artificial cross-SM sharing.
        """
        slab_pages = max(1, self.pages // owners)
        start = owner * self.pages // owners
        return Region(
            f"{self.name}[{owner}]", self.base_page + start, slab_pages
        )


# ----------------------------------------------------------------------
# Instruction interning (fast lane: ``fastlane.FLAGS.intern_bodies``).
#
# Deterministic generators rebuild identical vectorised accesses for
# thousands of warps (every warp of a CTA class walks the same slab
# offsets; every warp yields the same ``Compute(n)``).  MemAccess and
# Compute are frozen dataclasses and consumers only ever read their
# fields, so sharing one object per distinct value is observationally
# identical to building a fresh one each time.  Keys spell out the
# Region's fields (name, base page, pages) so equal slabs from
# different CTAs share entries: the same equality classes as keying on
# the frozen Region, without its generated Python-level ``__hash__``
# on every probe.  The start offset is normalised modulo the region
# span first: ``line_target`` wraps per element, so ``start % span``
# yields exactly the same target tuple.
# ----------------------------------------------------------------------

_mem_interned: Dict[tuple, MemAccess] = {}
_compute_interned: Dict[int, Compute] = {}


@fastlane.register_cache
def _clear_interned() -> None:
    _mem_interned.clear()
    _compute_interned.clear()


def _vaccess(kind: AccessKind, region: Region,
             start: int, count: int) -> MemAccess:
    start %= region.pages * LINES_PER_PAGE
    key = (kind, region.name, region.base_page, region.pages, start, count)
    instr = _mem_interned.get(key)
    if instr is None:
        targets = tuple(region.line_target(start + k) for k in range(count))
        instr = MemAccess(kind, targets, space=region.name)
        if fastlane.FLAGS.intern_bodies:
            _mem_interned[key] = instr
    return instr


def _vload(region: Region, start: int, count: int) -> MemAccess:
    """A vectorised load of ``count`` consecutive lines."""
    return _vaccess(AccessKind.LOAD, region, start, count)


def _vstore(region: Region, start: int, count: int) -> MemAccess:
    return _vaccess(AccessKind.STORE, region, start, count)


def _compute(cycles: int) -> Compute:
    """An interned ``Compute`` (one shared object per latency)."""
    instr = _compute_interned.get(cycles)
    if instr is None:
        instr = Compute(cycles)
        if fastlane.FLAGS.intern_bodies:
            _compute_interned[cycles] = instr
    return instr


def stream_private(
    data: Region,
    cta_id: int,
    warp_id: int,
    num_ctas: int,
    warps_per_cta: int,
    lines: int,
    compute: int = 1,
    out: Optional[Region] = None,
    store_every: int = 8,
    vector: int = VECTOR,
    passes: int = 1,
) -> Iterator[Instruction]:
    """Stream through a CTA-private slab (LBM/DWT2D/FWT-style).

    Each CTA owns a contiguous slab and each warp streams a contiguous
    stretch of it (coalesced row-major traversal). Optionally writes
    every ``store_every``-th vector to a private output slab.

    ``passes`` re-streams the slab (blocked algorithms that revisit
    their tile); the reuse distance exceeds the L1 but fits the local
    LLC slices, which is the access structure NUBA's local bandwidth
    accelerates.
    """
    slab = data.slab(cta_id, num_ctas)
    out_slab = out.slab(cta_id, num_ctas) if out is not None else None
    base = warp_id * lines
    for pass_index in range(passes):
        for i in range(0, lines, vector):
            yield _vload(slab, base + i, min(vector, lines - i))
            if compute:
                yield _compute(compute)
            if (
                out_slab is not None
                and pass_index == 0
                and (i // vector) % store_every == 0
            ):
                yield _vstore(out_slab, base + i, 1)


def broadcast_shared(
    shared: Region,
    cta_id: int,
    warp_id: int,
    warps_per_cta: int,
    lines: int,
    compute: int = 1,
    phase: int = 0,
    vector: int = VECTOR,
) -> Iterator[Instruction]:
    """Every warp streams the same shared region (weights/lookup tables).

    A per-CTA phase offset avoids lock-step identical addressing while
    keeping every page shared by all SMs (AN/SN/GRU-style, Figure 3).
    """
    offset = phase + cta_id * 17 + warp_id * 5
    for i in range(0, lines, vector):
        yield _vload(shared, offset + i, min(vector, lines - i))
        if compute:
            yield _compute(compute)


def gemm_like(
    a: Region,
    b: Region,
    c: Region,
    cta_id: int,
    warp_id: int,
    num_ctas: int,
    warps_per_cta: int,
    tiles: int,
    tile_lines: int,
    compute: int = 2,
    vector: int = VECTOR,
) -> Iterator[Instruction]:
    """Tiled matrix multiply (2MM/SGEMM/MM).

    Each CTA reads its private row-block of A, the *entire shared* B
    matrix tile-by-tile, and writes its private C block. B is the
    read-only shared structure MDR replicates.
    """
    a_slab = a.slab(cta_id, num_ctas)
    c_slab = c.slab(cta_id, num_ctas)
    warp_base = warp_id * tile_lines
    for tile in range(tiles):
        for i in range(0, tile_lines, vector):
            count = min(vector, tile_lines - i)
            yield _vload(a_slab, tile * LINES_PER_PAGE + warp_base + i, count)
            # B walk: all CTAs sweep the same tile sequence.
            yield _vload(b, tile * tile_lines + warp_base + i, count)
            yield _compute(compute)
        yield _vstore(c_slab, tile * warps_per_cta + warp_id, 1)


def irregular_private(
    data: Region,
    cta_id: int,
    warp_id: int,
    num_ctas: int,
    accesses: int,
    seed: int,
    lines_per_access: int = VECTOR,
    compute: int = 1,
    counters: Optional[Region] = None,
    atomic_every: int = 8,
) -> Iterator[Instruction]:
    """Random accesses confined to the CTA's own slab (MVT/ATAX/GESUMM).

    Irregular but *low-sharing*: different SMs touch disjoint pages. Poor
    coalescing is modelled by scattered multi-line accesses.

    MapReduce-style workloads (PVC/WC) additionally update globally
    shared reduction ``counters`` with atomics every ``atomic_every``-th
    access; atomics execute at the LLC's raster-operation units
    (Section 5.3) and, being read-write, are never replicated.
    """
    slab = data.slab(cta_id, num_ctas)
    rng = random.Random(seed * 9176 + cta_id * 131 + warp_id)
    span = slab.pages * LINES_PER_PAGE
    for access in range(accesses):
        targets = tuple(
            slab.line_target(rng.randrange(span))
            for _ in range(lines_per_access)
        )
        yield MemAccess(AccessKind.LOAD, targets, space=data.name)
        if counters is not None and access % atomic_every == 0:
            bucket = rng.randrange(counters.pages * LINES_PER_PAGE)
            yield MemAccess(
                AccessKind.ATOMIC,
                (counters.line_target(bucket),),
                space=counters.name,
            )
        if compute:
            yield _compute(compute)


def irregular_shared(
    data: Region,
    cta_id: int,
    warp_id: int,
    accesses: int,
    seed: int,
    lines_per_access: int = VECTOR,
    compute: int = 1,
    barrier_every: int = 0,
) -> Iterator[Instruction]:
    """Random accesses over a globally shared region (NW/BICG-style).

    Irregular *and* high-sharing: every SM's random accesses land on the
    same shared pages. Wavefront algorithms (NW) synchronise their CTAs
    between waves: ``barrier_every`` inserts a ``bar.sync`` every N
    accesses, which also invalidates the L1 (Section 5.3).
    """
    rng = random.Random(seed * 40503 + cta_id * 131 + warp_id)
    span = data.pages * LINES_PER_PAGE
    for access in range(accesses):
        targets = tuple(
            data.line_target(rng.randrange(span))
            for _ in range(lines_per_access)
        )
        yield MemAccess(AccessKind.LOAD, targets, space=data.name)
        if compute:
            yield _compute(compute)
        if barrier_every and (access + 1) % barrier_every == 0:
            yield Barrier()


def stencil(
    grid: Region,
    out: Region,
    cta_id: int,
    warp_id: int,
    num_ctas: int,
    warps_per_cta: int,
    lines: int,
    halo_every: int = 16,
    compute: int = 2,
    vector: int = VECTOR,
) -> Iterator[Instruction]:
    """2D/3D stencil (2DCONV/FDTD2D): private slab plus neighbour halo.

    The occasional halo access touches the adjacent CTA's boundary page,
    so a small fraction of pages is shared by 2 SMs -- still a low-sharing
    profile (>80% single-SM pages).
    """
    slab = grid.slab(cta_id, num_ctas)
    out_slab = out.slab(cta_id, num_ctas)
    neighbour = grid.slab((cta_id + 1) % num_ctas, num_ctas)
    base = warp_id * lines
    for i in range(0, lines, vector):
        yield _vload(slab, base + i, min(vector, lines - i))
        if (i // vector) % halo_every == 0:
            yield _vload(neighbour, i, 1)
        yield _compute(compute)
        if (i // vector) % 4 == 0:
            yield _vstore(out_slab, base + i, 1)


def group_shared(
    data: Region,
    shared: Region,
    cta_id: int,
    warp_id: int,
    num_ctas: int,
    group_size: int,
    lines: int,
    seed: int,
    compute: int = 1,
    vector: int = VECTOR,
) -> Iterator[Instruction]:
    """Group sharing (Streamcluster): CTA groups share medium regions.

    CTAs are partitioned into groups of ``group_size``; each group streams
    a group-private slice of ``shared``, producing pages shared by a few
    SMs (the 2-10 bucket of Figure 3), alongside private work.
    """
    num_groups = max(1, num_ctas // group_size)
    group = (cta_id // group_size) % num_groups
    group_slab = shared.slab(group, num_groups)
    private = data.slab(cta_id, num_ctas)
    rng = random.Random(seed * 7121 + cta_id * 31 + warp_id)
    span = group_slab.pages * LINES_PER_PAGE
    base = warp_id * lines
    for i in range(0, lines, vector):
        yield _vload(private, base + i, min(vector, lines - i))
        targets = tuple(
            group_slab.line_target(rng.randrange(span))
            for _ in range(vector)
        )
        yield MemAccess(AccessKind.LOAD, targets, space=shared.name)
        if compute:
            yield _compute(compute)


def dnn_layer(
    weights: Region,
    activations: Region,
    out: Region,
    cta_id: int,
    warp_id: int,
    num_ctas: int,
    warps_per_cta: int,
    lines: int,
    reuse: int = 4,
    compute: int = 2,
    vector: int = VECTOR,
) -> Iterator[Instruction]:
    """DNN inference layer (AlexNet/SqueezeNet/ResNet/GRU).

    Weights are small, read-only and shared by every CTA (re-read
    ``reuse`` times); activations are private streams. This is the
    pattern where MDR replication shines.
    """
    act = activations.slab(cta_id, num_ctas)
    out_slab = out.slab(cta_id, num_ctas)
    base = warp_id * lines
    for r in range(reuse):
        for i in range(0, lines, vector):
            count = min(vector, lines - i)
            w_index = (base + i + r * 13) % (weights.pages * LINES_PER_PAGE)
            yield _vload(weights, w_index, count)
            yield _vload(act, base + i, count)
            yield _compute(compute)
            if (i // vector) % 8 == 0:
                yield _vstore(out_slab, base + i, 1)
