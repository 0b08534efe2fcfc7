"""Workload suite tests: Table 2 integrity and generator properties."""

import itertools

import pytest

from repro.config.presets import small_config
from repro.sim.request import AccessKind
from repro.sm.warp import Compute, MemAccess
from repro.workloads.benchmark import synthesize_ptx
from repro.workloads.patterns import Region
from repro.workloads.suite import (
    BENCHMARKS,
    HIGH_SHARING,
    LOW_SHARING,
    get_benchmark,
)

GPU = small_config()


class TestCatalogue:
    def test_29_benchmarks(self):
        """Table 2 lists 16 low-sharing and 13 high-sharing benchmarks."""
        assert len(BENCHMARKS) == 29
        assert len(LOW_SHARING) == 16
        assert len(HIGH_SHARING) == 13

    def test_expected_members(self):
        for abbr in ("LAVAMD", "LBM", "KMEANS", "MVT", "ATAX", "GESUMM"):
            assert abbr in LOW_SHARING
        for abbr in ("SC", "2MM", "BT", "AN", "SN", "RN", "GRU", "NW",
                     "BICG"):
            assert abbr in HIGH_SHARING

    def test_paper_footprints_recorded(self):
        assert BENCHMARKS["MVT"].footprint_mb == 6443
        assert BENCHMARKS["BICG"].ro_shared_mb == 472
        assert BENCHMARKS["BT"].ro_shared_mb == 36

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            get_benchmark("NOPE")

    def test_structures_have_unique_regions(self):
        for bench in BENCHMARKS.values():
            regions = bench.layout()
            spans = sorted(
                (r.base_page, r.base_page + r.pages)
                for r in regions.values()
            )
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end <= start  # no overlap


class TestCompilation:
    def test_all_benchmarks_instantiate(self):
        for bench in BENCHMARKS.values():
            workload = bench.instantiate(GPU)
            assert workload.compiled_kernels()

    def test_read_only_spaces_match_writes(self):
        """The compiler must never mark a structure read-only in a kernel
        that writes it (read-only is a per-kernel property, Section 5.2:
        2MM's c is written in kernel 1 and legitimately read-only in
        kernel 2)."""
        for bench in BENCHMARKS.values():
            workload = bench.instantiate(GPU)
            for spec, kernel in zip(bench.kernels,
                                    workload.compiled_kernels()):
                overlap = kernel.read_only_spaces & set(spec.writes)
                assert not overlap, (bench.abbr, spec.name, overlap)

    def test_dnn_weights_marked_read_only(self):
        workload = get_benchmark("AN").instantiate(GPU)
        kernel = workload.compiled_kernels()[0]
        assert "weights" in kernel.read_only_spaces

    def test_2mm_cross_kernel_read_only(self):
        """2MM's first kernel writes c; the second only reads it, so c is
        read-only *in the second kernel* (Section 5.2)."""
        workload = get_benchmark("2MM").instantiate(GPU)
        first, second = workload.compiled_kernels()
        assert "c" not in first.read_only_spaces
        assert "c" in second.read_only_spaces

    def test_synthesize_ptx_is_parseable(self):
        from repro.compiler.ptx import parse_kernel
        text = synthesize_ptx("k_test", ["a", "b"], ["b", "c"])
        kernel = parse_kernel(text)
        assert kernel.params == ["a", "b", "c"]


class TestGenerators:
    def _stream(self, abbr, cta=0, warp=0):
        workload = get_benchmark(abbr).instantiate(GPU)
        kernel = workload.compiled_kernels()[0]
        return list(kernel.warp_factory(cta, warp)), workload

    def test_deterministic(self):
        first, _ = self._stream("MVT")
        second, _ = self._stream("MVT")
        assert first == second

    def test_accesses_stay_in_regions(self):
        for abbr in ("KMEANS", "BT", "SC", "AN", "2DCONV"):
            stream, workload = self._stream(abbr)
            spans = {
                name: (r.base_page, r.base_page + r.pages)
                for name, r in workload.regions.items()
            }
            total = sum(r.pages for r in workload.regions.values())
            for instr in stream:
                if not isinstance(instr, MemAccess):
                    continue
                for vpage, line in instr.targets:
                    assert 0 <= vpage < total, abbr
                    assert 0 <= line < 32

    def test_streams_nonempty_and_bounded(self):
        for abbr, bench in BENCHMARKS.items():
            stream, _ = self._stream(abbr)
            mem = sum(1 for i in stream if isinstance(i, MemAccess))
            assert 8 <= mem <= 2000, f"{abbr}: {mem} accesses"

    def test_low_sharing_private_slabs_disjoint(self):
        """Different CTAs of a low-sharing benchmark touch different
        data pages (the defining property)."""
        stream_a, workload = self._stream("DWT2D", cta=0)
        stream_b, _ = self._stream("DWT2D", cta=31)
        region = workload.regions["data"]

        def data_pages(stream):
            pages = set()
            for instr in stream:
                if isinstance(instr, MemAccess):
                    for vpage, _ in instr.targets:
                        if region.base_page <= vpage < (
                                region.base_page + region.pages):
                            pages.add(vpage)
            return pages

        assert not (data_pages(stream_a) & data_pages(stream_b))

    def test_high_sharing_overlaps(self):
        stream_a, workload = self._stream("AN", cta=0)
        stream_b, _ = self._stream("AN", cta=31)
        region = workload.regions["weights"]

        def weight_pages(stream):
            return {
                vpage
                for instr in stream if isinstance(instr, MemAccess)
                for vpage, _ in instr.targets
                if region.base_page <= vpage < region.base_page + region.pages
            }

        assert weight_pages(stream_a) & weight_pages(stream_b)

    def test_ro_structures_never_stored(self):
        """Ground truth check: generators must not store to structures
        declared unwritten."""
        for abbr, bench in BENCHMARKS.items():
            written = {s.name for s in bench.structures if s.written}
            workload = bench.instantiate(GPU)
            spans = {
                name: (r.base_page, r.base_page + r.pages)
                for name, r in workload.regions.items()
            }
            for kernel in workload.compiled_kernels():
                for instr in itertools.islice(
                        kernel.warp_factory(0, 0), 500):
                    if not isinstance(instr, MemAccess):
                        continue
                    if instr.kind is not AccessKind.STORE:
                        continue
                    for name, (lo, hi) in spans.items():
                        if any(lo <= v < hi for v, _ in instr.targets):
                            assert name in written, (abbr, name)


class TestRegion:
    def test_page_wraps(self):
        region = Region("r", base_page=10, pages=4)
        assert region.page(0) == 10
        assert region.page(5) == 11

    def test_line_target(self):
        region = Region("r", 2, 2)
        assert region.line_target(0) == (2, 0)
        assert region.line_target(33) == (3, 1)
        assert region.line_target(64) == (2, 0)  # wraps

    def test_slab_partitioning(self):
        region = Region("r", 0, 32)
        slabs = [region.slab(i, 8) for i in range(8)]
        assert all(s.pages == 4 for s in slabs)
        bases = [s.base_page for s in slabs]
        assert bases == [0, 4, 8, 12, 16, 20, 24, 28]

    def test_slab_minimum_one_page(self):
        region = Region("r", 0, 2)
        assert region.slab(5, 8).pages == 1


class TestInterning:
    """Generators share one instruction object per distinct value.  The
    reference is the instruction built directly."""

    def test_interned_access_equals_direct_build(self):
        from repro.workloads.patterns import LINES_PER_PAGE, _vaccess

        span = 3 * LINES_PER_PAGE
        # Starts inside the span, wrapping at its end, and beyond it.
        for start in (0, 5, span - 2, span + 7, 3 * span + 1):
            for count in (1, 4):
                for kind in (AccessKind.LOAD, AccessKind.STORE):
                    region = Region("x", 10, 3)
                    direct = MemAccess(
                        kind,
                        tuple(region.line_target(start + k)
                              for k in range(count)),
                        space="x")
                    interned = _vaccess(kind, region, start, count)
                    assert interned == direct, (start, count, kind)
                    # An equal region from another CTA shares the entry.
                    again = _vaccess(kind, Region("x", 10, 3), start, count)
                    assert again is interned

    def test_interned_compute_equals_direct_build(self):
        from repro.workloads.patterns import _compute

        assert _compute(7) == Compute(7)
        assert _compute(7) is _compute(7)
