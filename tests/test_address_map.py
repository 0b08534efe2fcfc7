"""Address-map tests (Figure 2 semantics)."""

import pytest
from hypothesis import given, strategies as st

from repro.config.presets import baseline_config, small_config
from repro.config.topology import AddressMapKind
from repro.vm.address_map import FixedChannelMap, PAEMap, make_address_map


@pytest.fixture
def fixed_map():
    return FixedChannelMap(baseline_config())


@pytest.fixture
def pae_map():
    return PAEMap(baseline_config())


class TestFixedChannelMap:
    def test_channel_bits_above_page_offset(self, fixed_map):
        """All lines of a page map to the same channel (Figure 2)."""
        frame = 1234
        channels = {
            fixed_map.channel_of_line(fixed_map.line_addr(frame, line))
            for line in range(fixed_map.lines_per_page)
        }
        assert len(channels) == 1

    def test_driver_controls_placement(self, fixed_map):
        assert fixed_map.driver_controls_placement()

    def test_frame_for_channel_round_trip(self, fixed_map):
        for channel in range(fixed_map.num_channels):
            for index in range(5):
                frame = fixed_map.frame_for_channel(channel, index)
                line = fixed_map.line_addr(frame, 0)
                assert fixed_map.channel_of_line(line) == channel

    def test_frames_unique_per_channel(self, fixed_map):
        frames = {
            fixed_map.frame_for_channel(c, i)
            for c in range(fixed_map.num_channels)
            for i in range(10)
        }
        assert len(frames) == fixed_map.num_channels * 10

    def test_slice_within_channel_group(self, fixed_map):
        """A line's slice must belong to its channel's slice group."""
        for line in range(0, 100_000, 37):
            channel = fixed_map.channel_of_line(line)
            slice_id = fixed_map.slice_of_line(line)
            assert slice_id // fixed_map.slices_per_channel == channel

    def test_bank_in_range(self, fixed_map):
        for line in range(0, 100_000, 61):
            assert 0 <= fixed_map.bank_of_line(line) < 16

    def test_bank_randomisation_spreads(self, fixed_map):
        """Consecutive pages of one channel should use several banks."""
        banks = set()
        for index in range(64):
            frame = fixed_map.frame_for_channel(0, index)
            banks.add(fixed_map.bank_of_line(fixed_map.line_addr(frame, 0)))
        assert len(banks) > 4

    @given(st.integers(min_value=0, max_value=2**40))
    def test_channel_in_range(self, line):
        amap = FixedChannelMap(baseline_config())
        assert 0 <= amap.channel_of_line(line) < amap.num_channels

    @given(st.integers(min_value=0, max_value=2**40))
    def test_slice_in_range(self, line):
        amap = FixedChannelMap(baseline_config())
        assert 0 <= amap.slice_of_line(line) < amap.num_slices


class TestPAEMap:
    def test_driver_loses_placement_control(self, pae_map):
        assert not pae_map.driver_controls_placement()

    def test_page_stays_in_one_channel(self, pae_map):
        """Channel bits still sit outside the page offset under PAE."""
        frame = 777
        channels = {
            pae_map.channel_of_line(pae_map.line_addr(frame, line))
            for line in range(pae_map.lines_per_page)
        }
        assert len(channels) == 1

    def test_sequential_frames_spread_channels(self, pae_map):
        """PAE randomises channel selection across sequential frames."""
        channels = {
            pae_map.channel_of_line(pae_map.line_addr(frame, 0))
            for frame in range(256)
        }
        assert len(channels) == pae_map.num_channels

    @given(st.integers(min_value=0, max_value=2**40))
    def test_channel_in_range(self, line):
        amap = PAEMap(baseline_config())
        assert 0 <= amap.channel_of_line(line) < amap.num_channels


class TestFactory:
    def test_make_fixed(self):
        amap = make_address_map(small_config(), AddressMapKind.FIXED_CHANNEL)
        assert isinstance(amap, FixedChannelMap)

    def test_make_pae(self):
        amap = make_address_map(small_config(), AddressMapKind.PAE)
        assert isinstance(amap, PAEMap)

    def test_small_config_geometry(self):
        amap = make_address_map(small_config(), AddressMapKind.FIXED_CHANNEL)
        assert amap.num_channels == 8
        assert amap.slices_per_channel == 2


class TestRouteMemos:
    """``route_of_line`` and ``bank_of_line`` memoise per frame.  The
    reference is a cold map's first answer, which runs the routing
    formula."""

    @staticmethod
    def _cold_answer(gpu, kind, line_addr):
        cold = make_address_map(gpu, kind)
        return cold.route_of_line(line_addr), cold.bank_of_line(line_addr)

    @pytest.mark.parametrize("kind", list(AddressMapKind),
                             ids=lambda kind: kind.value)
    def test_warm_map_equals_cold_map(self, kind):
        gpu = small_config()
        warm = make_address_map(gpu, kind)
        # Every frame whose channel and bank bits take all their values,
        # and the two extreme lines of each.
        frames = range(1 << (warm.channel_bits + 2 * warm.bank_bits))
        lines = (0, gpu.lines_per_page - 1)
        expected = {
            (frame, line): self._cold_answer(
                gpu, kind, warm.line_addr(frame, line))
            for frame in frames for line in lines
        }
        for _ in range(2):  # the first pass fills the memos
            for (frame, line), answer in expected.items():
                addr = warm.line_addr(frame, line)
                assert (warm.route_of_line(addr),
                        warm.bank_of_line(addr)) == answer, (frame, line)
