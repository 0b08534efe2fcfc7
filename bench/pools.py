"""The fixed point pools the workloads draw from, and their pin ids."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.config.presets import small_config
from repro.config.topology import Architecture, PagePolicy, ReplicationPolicy
from repro.experiments.runner import ExperimentRunner, RunKey

Point = Tuple[str, RunKey]

_NUBA, _SM_UBA, _UBA = (Architecture.NUBA, Architecture.SM_SIDE_UBA,
                        Architecture.MEM_SIDE_UBA)
_MDR = ReplicationPolicy.MDR

#: Saturated points (0.55-0.59 of component-ticks skipped): high- and
#: low-sharing, remote-heavy BT (13% local), atomics (PVC) and SM-side
#: UBA. Full ``small_config``.
BUSY_POOL: Tuple[Point, ...] = (
    ("BT/nuba+mdr", RunKey("BT", _NUBA, replication=_MDR)),
    ("3DCONV/nuba+mdr", RunKey("3DCONV", _NUBA, replication=_MDR)),
    ("LBM/nuba+mdr", RunKey("LBM", _NUBA, replication=_MDR)),
    ("PVC/nuba", RunKey("PVC", _NUBA)),
    ("SC/sm-side-uba", RunKey("SC", _SM_UBA)),
)

#: Latency-bound points (0.82-0.92 of component-ticks skipped): host
#: time goes to engine dispatch, sleep/wake and deadline bookkeeping.
SLEEPY_POOL: Tuple[Point, ...] = (
    ("2MM/nuba+mdr", RunKey("2MM", _NUBA, replication=_MDR)),
    ("SGEMM/nuba+mdr", RunKey("SGEMM", _NUBA, replication=_MDR)),
    ("AN/mem-side-uba+first-touch",
     RunKey("AN", _UBA, page_policy=PagePolicy.FIRST_TOUCH)),
    ("2MM/mem-side-uba", RunKey("2MM", _UBA)),
)

#: Memory channels of the small GPU the fig7 points use.
FIG7_CHANNELS = 4


def fig7_gpu():
    """The ``--channels 4`` GPU of the fig7 points."""
    return small_config(num_channels=FIG7_CHANNELS)


def fig7_points(benches: Sequence[str]) -> List[Point]:
    """The labelled fig7 points of some benchmarks (4 each)."""
    from repro.orchestrator.catalog import figure_sweep

    runner = ExperimentRunner(base_gpu=fig7_gpu())
    return [(p.label, p.key)
            for p in figure_sweep("fig7", runner, list(benches))]


def fig7_pool() -> List[Point]:
    """Every fig7 point: 29 benchmarks x 4 architectures."""
    from repro.workloads.suite import BENCHMARKS

    return fig7_points(sorted(BENCHMARKS))


def pin_id(config: str, label: str) -> str:
    """Key of a point in ``bench/expected.json``: ``small/<label>`` for
    the full ``small_config``, ``ch4/<label>`` for fig7 points."""
    return f"{config}/{label}"
