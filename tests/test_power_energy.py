"""NoC power model and GPU energy accounting tests."""

import pytest

from repro.config.gpu import NoCConfig
from repro.config.presets import baseline_config
from repro.noc.power import (
    K_P2P_DYNAMIC,
    CrossbarPowerModel,
    NoCEnergyAccount,
    power_ratio,
)
from repro.power.energy import EnergyBreakdown, GPUEnergyModel


class TestCrossbarPowerModel:
    def test_static_power_quadratic_in_ports(self):
        """The paper's core scaling argument: crossbar overhead grows
        quadratically with endpoint count [22, 69, 70, 79]."""
        small = CrossbarPowerModel(ports=16, port_width_bytes=16, stages=2)
        big = CrossbarPowerModel(ports=64, port_width_bytes=16, stages=2)
        assert big.static_power == pytest.approx(16 * small.static_power)

    def test_static_power_linear_in_width(self):
        narrow = CrossbarPowerModel(ports=64, port_width_bytes=8, stages=2)
        wide = CrossbarPowerModel(ports=64, port_width_bytes=64, stages=2)
        assert wide.static_power == pytest.approx(8 * narrow.static_power)

    def test_dynamic_energy_linear_in_bytes_and_stages(self):
        model = CrossbarPowerModel(ports=64, port_width_bytes=16, stages=2)
        assert model.dynamic_energy(2000) == pytest.approx(
            2 * model.dynamic_energy(1000)
        )
        one_stage = CrossbarPowerModel(ports=64, port_width_bytes=16,
                                       stages=1)
        assert model.dynamic_energy(1000) == pytest.approx(
            2 * one_stage.dynamic_energy(1000)
        )

    def test_from_config(self):
        noc = NoCConfig()
        model = CrossbarPowerModel.from_config(noc)
        assert model.ports == 64
        assert model.stages == 2

    def test_nuba_noc_cheaper_than_uba_noc(self):
        """Same bandwidth: the NUBA inter-slice crossbar (64 endpoints)
        is cheaper than the UBA SM-to-slice crossbar (128 endpoints)."""
        uba = CrossbarPowerModel(ports=128, port_width_bytes=16, stages=2)
        nuba = CrossbarPowerModel(ports=64, port_width_bytes=16, stages=2)
        assert nuba.static_power < uba.static_power / 2

    def test_narrow_noc_power_reduction_order_of_magnitude(self):
        """The Figure 10 headline: a 700 GB/s NoC versus a 5.6 TB/s NoC
        saves roughly an order of magnitude of NoC power."""
        cycles, uba_traffic, nuba_traffic = 100_000, 5.0e8, 1.0e8
        wide = CrossbarPowerModel(ports=128, port_width_bytes=64, stages=2)
        narrow = CrossbarPowerModel(ports=64, port_width_bytes=8, stages=2)
        ratio = power_ratio(
            wide.energy(cycles, uba_traffic),
            narrow.energy(cycles, nuba_traffic),
        )
        assert ratio > 5.0


class TestNoCEnergyAccount:
    def test_aggregates_registered_networks(self):
        account = NoCEnergyAccount()
        model = CrossbarPowerModel(ports=4, port_width_bytes=8, stages=1)
        account.register_crossbar("noc", model, lambda: 1000.0)
        account.register_p2p("links", lambda: 500.0)
        total = account.total_energy(100)
        assert total == pytest.approx(
            model.energy(100, 1000.0) + 0.00025 * 500.0
        )

    def test_breakdown_names(self):
        account = NoCEnergyAccount()
        model = CrossbarPowerModel(ports=4, port_width_bytes=8, stages=1)
        account.register_crossbar("noc", model, lambda: 0.0)
        account.register_p2p("links", lambda: 0.0)
        assert set(account.breakdown(10)) == {"noc", "links"}

    def test_totals_add_left_to_right(self):
        """Python 3.12 made float ``sum()`` compensated; the account
        keeps the left-to-right total of 3.9-3.11 so pinned energies
        match on every interpreter.  Left to right, 1e16 + 1.0 rounds
        back to 1e16, so the total is 0.0 rather than 1.0."""

        class _FixedEnergy:
            def __init__(self, value):
                self.value = value

            def energy(self, cycles, bytes_moved):
                return self.value

        account = NoCEnergyAccount()
        for name, value in (("a", 1e16), ("b", 1.0), ("c", -1e16)):
            account.register_crossbar(name, _FixedEnergy(value),
                                      lambda: 0.0)
        assert account.crossbar_energy(10) == 0.0
        for name, moved in (("x", 4e19), ("y", 4e3), ("z", -4e19)):
            account.register_p2p(name, lambda moved=moved: moved)
        assert K_P2P_DYNAMIC * 4e3 == 1.0
        assert account.p2p_energy() == 0.0
        assert account.total_energy(10) == 0.0

    def test_power_ratio_validates(self):
        with pytest.raises(ValueError):
            power_ratio(1.0, 0.0)


class TestGPUEnergyModel:
    def test_breakdown_components(self):
        model = GPUEnergyModel(baseline_config())
        breakdown = model.breakdown(
            cycles=1000, instructions=5000, l1_accesses=2000,
            llc_accesses=1000, dram_lines=500, noc_energy=100.0,
        )
        assert breakdown.noc == 100.0
        assert breakdown.total == pytest.approx(
            breakdown.noc + breakdown.sm + breakdown.cache
            + breakdown.dram + breakdown.static
        )
        assert 0 < breakdown.noc_fraction < 1

    def test_normalized_to_baseline(self):
        model = GPUEnergyModel(baseline_config())
        base = model.breakdown(1000, 5000, 2000, 1000, 500, 100.0)
        cheaper = model.breakdown(800, 5000, 2000, 1000, 500, 40.0)
        norm = cheaper.normalized_to(base)
        assert norm["total"] < 1.0
        assert norm["noc"] == pytest.approx(40.0 / base.total)

    def test_normalize_requires_positive_baseline(self):
        zero = EnergyBreakdown(0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            zero.normalized_to(zero)

    def test_dram_dominates_dynamic_energy(self):
        """Off-chip transfers are the most expensive events, which is why
        locality saves total GPU energy (Section 7.4)."""
        model = GPUEnergyModel(baseline_config())
        breakdown = model.breakdown(
            cycles=1, instructions=1, l1_accesses=1, llc_accesses=1,
            dram_lines=1, noc_energy=0.0,
        )
        assert breakdown.dram > breakdown.cache
        assert breakdown.dram > breakdown.sm
