"""Shared fixtures for the figure benches.

One :class:`~repro.experiments.runner.ExperimentRunner` is shared by the
whole benchmark session, so figures that derive from the same runs
(7, 8, 9, 13) simulate each point exactly once.

``bench_figures.py`` runs every figure of
:data:`repro.experiments.figures.FIGURES` but Table 2 (which
``bench_table2_workloads.py`` prints) and asserts its claims. The
subset each figure runs is chosen here (:func:`figure_subset`): by
default a representative subset of the 29 Table 2 benchmarks, smaller
for the expensive sweeps, so ``pytest benchmarks/ --benchmark-only``
finishes in minutes. Set ``REPRO_BENCH_FULL=1`` to sweep the complete
suite (hours), which is what EXPERIMENTS.md numbers were recorded with
where noted. Figure 12 always runs its nine benchmarks.

Environment knobs:

* ``REPRO_BENCH_CACHE=dir`` -- persist results on disk so repeated
  bench invocations (or a sweep killed half-way) resume instead of
  re-simulating.
* ``REPRO_BENCH_WORKERS=N`` -- before each figure runs, its sweep (the
  points of its definition, via
  :func:`~repro.orchestrator.catalog.figure_sweep`) is executed across
  N worker processes via the
  :class:`~repro.orchestrator.SweepOrchestrator`; the figure then
  renders from cache. ``1`` (the default) keeps the historical serial
  behaviour.
* ``REPRO_BENCH_TIMEOUT=seconds`` -- per-point timeout in pool mode.
"""

import os

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.runner import ExperimentRunner

#: Representative subset: 5 low-sharing + 6 high-sharing benchmarks
#: covering every archetype (streaming, irregular private/shared,
#: stencil, GEMM, group-shared, DNN).
SUBSET = [
    "KMEANS", "DWT2D", "LBM", "MVT", "2DCONV",
    "AN", "GRU", "2MM", "BT", "SC", "BICG",
]

#: Smaller subset for the expensive sweeps (Figures 10, 14, 16, §7.6).
SWEEP_SUBSET = ["KMEANS", "DWT2D", "AN", "2MM", "BT", "SC"]
SWEEP_FIGURES = ("fig10", "fig14", "fig16", "sec76")

#: Figure 12's high-sharing benchmarks, its claims' replication winners
#: (2MM, AN) and losers (BT, BICG) among them.
FIG12_BENCHES = ["2MM", "AN", "SN", "RN", "LEU", "BT", "GRU", "BICG", "SC"]

#: The figures ``bench_figures.py`` runs, in the paper's order: all but
#: Table 2, which ``bench_table2_workloads.py`` prints.
BENCHED_FIGURES = [name for name in FIGURES if name != "table2"]


def _full() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


def figure_subset(name: str):
    """The benchmarks a figure bench runs (None: the whole suite)."""
    if name == "fig12":
        return FIG12_BENCHES
    if _full():
        return None
    return SWEEP_SUBSET if name in SWEEP_FIGURES else SUBSET


def _workers() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))
    except ValueError:
        return 1


def _timeout():
    raw = os.environ.get("REPRO_BENCH_TIMEOUT", "")
    try:
        return float(raw) if raw else None
    except ValueError:
        return None


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    store = None
    cache_dir = os.environ.get("REPRO_BENCH_CACHE", "")
    if cache_dir:
        # Persist results on disk so repeated bench invocations (e.g. a
        # verification run followed by a recorded run) simulate once.
        from repro.experiments.store import ResultStore
        store = ResultStore(cache_dir)
    return ExperimentRunner(store=store)


@pytest.fixture(scope="session")
def orchestrator(runner):
    from repro.orchestrator import ProgressReporter, SweepOrchestrator
    workers = _workers()
    return SweepOrchestrator(
        runner,
        workers=workers,
        timeout=_timeout(),
        progress=ProgressReporter(
            stream="stderr" if workers > 1 else None, label="bench-sweep",
        ),
    )


@pytest.fixture(scope="session")
def prewarm(orchestrator, runner):
    """Run one figure's declarative sweep through the session
    orchestrator so the figure itself renders from cache.

    A no-op with ``REPRO_BENCH_WORKERS`` unset (or 1): the serial path
    stays exactly as it always was.
    """
    from repro.orchestrator import figure_sweep

    def _prewarm(figure: str, subset):
        if orchestrator.workers <= 1:
            return None
        sweep = figure_sweep(figure, runner, subset)
        if not len(sweep):
            return None
        return orchestrator.run(sweep)

    return _prewarm


def run_once(benchmark, fn):
    """Run an expensive figure exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
