"""Analytical bandwidth model tests (Section 5.1 equations)."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.sampling import EpochProfile
from repro.config.presets import baseline_config, small_config
from repro.core.bwmodel import (
    EVALUATION_CYCLES,
    BandwidthModel,
    ModelInputs,
)
from repro.core.mdr import MDRController

#: Hand-checkable inputs: BW_LLC=100, BW_MEM=20, BW_NoC=40 (bytes/cycle).
INPUTS = ModelInputs(bw_llc=100.0, bw_mem=20.0, bw_noc=40.0)


class TestNoReplication:
    def test_all_local_all_hit(self):
        model = BandwidthModel(INPUTS)
        # hit=1: BW_local = 100 + min(0, 20) = 100.
        assert model.bw_no_replication(1.0, 1.0) == pytest.approx(100.0)

    def test_all_local_all_miss(self):
        model = BandwidthModel(INPUTS)
        # miss bw = min(100, 20) = 20.
        assert model.bw_no_replication(0.0, 1.0) == pytest.approx(20.0)

    def test_all_remote_capped_by_noc(self):
        model = BandwidthModel(INPUTS)
        # BW_remote = min(40, 100) = 40.
        assert model.bw_no_replication(1.0, 0.0) == pytest.approx(40.0)

    def test_hand_computed_mixture(self):
        model = BandwidthModel(INPUTS)
        # hit=0.5: BW_LLC_miss = min(50, 20) = 20; BW_local = 70;
        # BW_remote = min(40, 70) = 40; 0.5*70 + 0.5*40 = 55.
        assert model.bw_no_replication(0.5, 0.5) == pytest.approx(55.0)


class TestFullReplication:
    def test_all_hit_reaches_llc_rate(self):
        model = BandwidthModel(INPUTS)
        assert model.bw_full_replication(1.0, 0.5) == pytest.approx(100.0)

    def test_all_miss_capped_by_memory_paths(self):
        model = BandwidthModel(INPUTS)
        # BW_remote = min(40, 20) = 20; BW_l/r = 0.5*20 + 0.5*20 = 20.
        assert model.bw_full_replication(0.0, 0.5) == pytest.approx(20.0)

    def test_hand_computed_mixture(self):
        model = BandwidthModel(INPUTS)
        # hit=0.6, frac_local=0.25: BW_remote=20, BW_l/r=20;
        # miss bw = min(0.4*100, 20) = 20; total = 60 + 20 = 80.
        assert model.bw_full_replication(0.6, 0.25) == pytest.approx(80.0)


class _StubSampler:
    """Hands the controller one fixed epoch profile."""

    def __init__(self, hit_rate_norep, hit_rate_fullrep, frac_local):
        self.profile = EpochProfile(
            hit_rate_norep=hit_rate_norep,
            hit_rate_fullrep=hit_rate_fullrep,
            frac_local_norep=frac_local,
            frac_local_fullrep=frac_local,
            observed=1,
        )

    def snapshot(self):
        return self.profile

    def reset_epoch(self):
        pass


def _decide(hit_rate_norep, hit_rate_fullrep, frac_local):
    """The epoch decision ``MDRController.on_epoch`` records."""
    controller = MDRController(
        BandwidthModel(INPUTS),
        _StubSampler(hit_rate_norep, hit_rate_fullrep, frac_local),
    )
    controller.on_epoch(2000)
    assert controller.replicate is controller.decisions[-1].replicate
    return controller.decisions[-1]


class TestDecision:
    """The rule that runs: replicate iff BW_FullRep exceeds BW_NoRep
    by ``REPLICATION_MARGIN`` (1.05)."""

    def test_replicates_when_hit_rate_survives(self):
        """Small read-only set: replication keeps the hit rate and turns
        remote traffic local -> replicate (the AN/SN case)."""
        decision = _decide(0.8, 0.75, frac_local=0.2)
        assert (decision.bw_norep, decision.bw_fullrep) == pytest.approx(
            (52.0, 95.0))
        assert decision.replicate

    def test_avoids_when_replication_thrashes(self):
        """Large read-only set: replication destroys the hit rate ->
        keep no-replication (the BT/BICG case)."""
        decision = _decide(0.8, 0.05, frac_local=0.2)
        assert (decision.bw_norep, decision.bw_fullrep) == pytest.approx(
            (52.0, 25.0))
        assert not decision.replicate

    def test_no_remote_traffic_means_no_benefit(self):
        decision = _decide(0.5, 0.5, frac_local=1.0)
        assert (decision.bw_norep, decision.bw_fullrep) == pytest.approx(
            (70.0, 70.0))
        assert not decision.replicate

    def test_margin_holds_back_a_small_gain(self):
        """BW_FullRep 57 beats BW_NoRep 55, so the paper's rule
        (Section 5.1) would replicate; 57 is below 55 x 1.05, so the
        controller keeps no-replication."""
        decision = _decide(0.5, 0.37, frac_local=0.5)
        assert (decision.bw_norep, decision.bw_fullrep) == pytest.approx(
            (55.0, 57.0))
        assert decision.bw_fullrep > decision.bw_norep
        assert not decision.replicate


class TestModelProperties:
    @given(
        hit=st.floats(min_value=0, max_value=1),
        frac=st.floats(min_value=0, max_value=1),
    )
    def test_norep_bounded_by_llc_rate(self, hit, frac):
        model = BandwidthModel(INPUTS)
        bw = model.bw_no_replication(hit, frac)
        assert 0 <= bw <= INPUTS.bw_llc + 1e-9

    @given(
        hit=st.floats(min_value=0, max_value=1),
        frac=st.floats(min_value=0, max_value=1),
    )
    def test_fullrep_bounded_by_llc_rate(self, hit, frac):
        model = BandwidthModel(INPUTS)
        bw = model.bw_full_replication(hit, frac)
        assert 0 <= bw <= INPUTS.bw_llc + 1e-9

    @given(
        hit_lo=st.floats(min_value=0, max_value=1),
        hit_hi=st.floats(min_value=0, max_value=1),
        frac=st.floats(min_value=0, max_value=1),
    )
    def test_monotone_in_hit_rate(self, hit_lo, hit_hi, frac):
        if hit_lo > hit_hi:
            hit_lo, hit_hi = hit_hi, hit_lo
        model = BandwidthModel(INPUTS)
        assert model.bw_no_replication(hit_lo, frac) <= (
            model.bw_no_replication(hit_hi, frac) + 1e-9
        )
        assert model.bw_full_replication(hit_lo, frac) <= (
            model.bw_full_replication(hit_hi, frac) + 1e-9
        )

    @given(
        hit=st.floats(min_value=0, max_value=1),
        frac_lo=st.floats(min_value=0, max_value=1),
        frac_hi=st.floats(min_value=0, max_value=1),
    )
    def test_norep_monotone_in_locality(self, hit, frac_lo, frac_hi):
        """More local traffic never reduces effective bandwidth when the
        local path is at least as fast as the remote one."""
        if frac_lo > frac_hi:
            frac_lo, frac_hi = frac_hi, frac_lo
        model = BandwidthModel(INPUTS)
        assert model.bw_no_replication(hit, frac_lo) <= (
            model.bw_no_replication(hit, frac_hi) + 1e-9
        )


class TestModelInputs:
    def test_from_baseline_config(self):
        inputs = ModelInputs.from_config(baseline_config())
        # BW_LLC capped by the 62.5 B/cycle local link per partition.
        assert inputs.bw_llc == pytest.approx(62.5)
        assert inputs.bw_mem == pytest.approx(16.07, abs=0.01)
        # Two slice ports of ~15.6 B/cycle each.
        assert inputs.bw_noc == pytest.approx(31.25)

    def test_small_config_matches_baseline_ratios(self):
        small = ModelInputs.from_config(small_config())
        base = ModelInputs.from_config(baseline_config())
        assert small.bw_llc == pytest.approx(base.bw_llc)
        assert small.bw_mem == pytest.approx(base.bw_mem)
        assert small.bw_noc == pytest.approx(base.bw_noc)

    def test_evaluation_cost_matches_footnote(self):
        # 4 divisions x 25 + 4 multiplications x 3 + 2 adds + 2 compares.
        assert EVALUATION_CYCLES == 116
