"""The paper's figures, each run once and held to its shape claims.

Every case runs one figure of :data:`repro.experiments.figures.FIGURES`
on its benchmark subset (see ``conftest.figure_subset``), prints the
rendered table and asserts every claim the figure computes from the same
numbers: the paper's orderings and signs, at the thresholds the scaled
model is expected to meet. EXPERIMENTS.md puts the measured numbers next
to the paper's.
"""

import pytest
from conftest import BENCHED_FIGURES, figure_subset, run_once

from repro.experiments.figures import run_figure


@pytest.mark.parametrize("name", BENCHED_FIGURES)
def test_figure_claims(benchmark, runner, prewarm, name):
    subset = figure_subset(name)
    prewarm(name, subset)
    result = run_once(benchmark, lambda: run_figure(name, runner, subset))
    print()
    print(result.render())

    assert result.claims, f"{name} checks no claim"
    failed = sorted(claim for claim, holds in result.claims.items()
                    if not holds)
    assert not failed, f"{name}: claims do not hold: {failed}"
