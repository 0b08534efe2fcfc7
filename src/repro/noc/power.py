"""NoC power model (DSENT-style, Section 6).

The paper's core argument about NoC overhead rests on two scaling laws
for crossbars [22, 69, 70, 79]:

* *static/idle power* scales with the crosspoint count -- quadratic in the
  number of endpoints -- and linearly with the link width (i.e. with the
  provisioned bandwidth);
* *dynamic energy* scales linearly with the bytes actually moved and with
  the number of crossbar stages each byte traverses.

We therefore model crossbar power as::

    P_static  = k_static * ports^2 * port_width_bytes      [W-equivalents]
    E_dynamic = k_dynamic * bytes_moved * stages           [J-equivalents]

The constants are calibrated so the baseline 64-port 1.4 TB/s crossbar's
energy share of total GPU energy is in the range the paper reports
(Figure 13 implies the NoC is a significant fraction of GPU energy;
NUBA cuts NoC energy by ~54% and GPU energy by ~16%). Absolute units are
arbitrary (all results are reported as ratios, like the paper's 12.1x /
9.4x NoC power reductions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.config.gpu import NoCConfig

#: Static power per (endpoint^2 x byte-of-link-width), arbitrary units.
K_STATIC = 2.0e-5
#: Dynamic energy per byte per crossbar stage, arbitrary units.
K_DYNAMIC = 1.0e-3
#: Point-to-point links have no crosspoint array; only a small driver
#: cost per byte (they are the cheap alternative NUBA exploits).
K_P2P_DYNAMIC = 2.5e-4


@dataclass(frozen=True)
class CrossbarPowerModel:
    """Analytical crossbar power for one NoC configuration."""

    ports: int
    port_width_bytes: float
    stages: int

    @classmethod
    def from_config(cls, noc: NoCConfig) -> "CrossbarPowerModel":
        return cls(
            ports=noc.ports,
            port_width_bytes=noc.port_bytes_per_cycle,
            stages=noc.stages,
        )

    @property
    def static_power(self) -> float:
        """Idle power per cycle (crosspoint array + clocking)."""
        return K_STATIC * self.ports * self.ports * self.port_width_bytes

    def dynamic_energy(self, bytes_moved: float) -> float:
        """Energy for moving ``bytes_moved`` through the stages."""
        return K_DYNAMIC * bytes_moved * self.stages

    def energy(self, cycles: int, bytes_moved: float) -> float:
        """Total energy over a run."""
        return self.static_power * cycles + self.dynamic_energy(bytes_moved)

    def mean_power(self, cycles: int, bytes_moved: float) -> float:
        """Average power over a run (static + dynamic)."""
        if cycles <= 0:
            return 0.0
        return self.energy(cycles, bytes_moved) / cycles


class NoCEnergyAccount:
    """Accumulates NoC energy across all networks of a system.

    The system builder registers each crossbar with its power model and
    each point-to-point link group; at the end of a run the account
    produces the NoC energy split used in Figures 10 and 13.
    """

    def __init__(self) -> None:
        self._crossbars: Dict[str, tuple] = {}
        self._p2p_bytes: Dict[str, float] = {}

    def register_crossbar(self, name: str, model: CrossbarPowerModel,
                          bytes_getter) -> None:
        """Track a crossbar's traffic under a power model."""
        self._crossbars[name] = (model, bytes_getter)

    def register_p2p(self, name: str, bytes_getter) -> None:
        """Track a point-to-point link group's traffic."""
        self._p2p_bytes[name] = bytes_getter

    # Both totals add left to right on purpose: from Python 3.12 the
    # builtin ``sum`` of floats is compensated, which moves the last
    # bit of some totals and would make pinned results depend on the
    # interpreter version.

    def crossbar_energy(self, cycles: int) -> float:
        """Total crossbar energy over a run."""
        total = 0.0
        for model, getter in self._crossbars.values():
            total += model.energy(cycles, getter())
        return total

    def p2p_energy(self) -> float:
        """Total point-to-point link energy."""
        total = 0.0
        for getter in self._p2p_bytes.values():
            total += K_P2P_DYNAMIC * getter()
        return total

    def total_energy(self, cycles: int) -> float:
        """All NoC energy (crossbars + links) over a run."""
        return self.crossbar_energy(cycles) + self.p2p_energy()

    def mean_power(self, cycles: int) -> float:
        """Average NoC power over a run."""
        if cycles <= 0:
            return 0.0
        return self.total_energy(cycles) / cycles

    def breakdown(self, cycles: int) -> Dict[str, float]:
        """Per-network energy split."""
        parts = {
            name: model.energy(cycles, getter())
            for name, (model, getter) in self._crossbars.items()
        }
        for name, getter in self._p2p_bytes.items():
            parts[name] = K_P2P_DYNAMIC * getter()
        return parts


def power_ratio(reference_energy: float, energy: float) -> float:
    """How many times cheaper ``energy`` is than ``reference_energy``
    (the paper's 12.1x / 9.4x style numbers)."""
    if energy <= 0:
        raise ValueError("energy must be positive")
    return reference_energy / energy
