"""The sweep behind each paper figure.

A figure's points come from its one definition in
:mod:`repro.experiments.figures`, so running the sweep through the
orchestrator first means the figure renders entirely from cache.
Table 2 and Figure 3 have empty sweeps: Table 2 simulates nothing and
Figure 3 inspects live systems (sharing histograms), which cannot be
reconstructed from stored RunResults.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.figures import figure_points
from repro.experiments.runner import ExperimentRunner
from repro.orchestrator.sweep import Sweep


def figure_sweep(name: str, runner: ExperimentRunner,
                 subset: Optional[Sequence[str]] = None) -> Sweep:
    """The declarative sweep behind one paper figure."""
    return Sweep.of(name, figure_points(name, runner.base_gpu, subset))
