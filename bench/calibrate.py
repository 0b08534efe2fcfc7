"""Calibrate the layer sampler against ``obs.TickProfiler``.

    python -m bench.calibrate

Runs every busy-points point three ways -- plain, under
``TickProfiler`` (a ``perf_counter`` pair around every component
tick) and under the layer sampler -- and prints each profiler's
overhead and its host-time split. TickProfiler charges a tick to the
component family that owns it (``sm``, ``llc``, ``mc``, interconnect);
the sampler charges the code's package, so an SM tick's L1, TLB and
address-generation work lands in ``cache``, ``vm`` and ``workloads``.
The numbers are recorded in ``bench/README.md``.
"""

import time
from typing import Dict

from repro.experiments.runner import ExperimentRunner
from repro.obs.profiler import TickProfiler
from repro.workloads.suite import get_benchmark

from bench.layers import LayerMap, LayerSampler, repro_root
from bench.pools import BUSY_POOL

#: TickProfiler families folded onto the sampler's layer names.
FAMILY_LAYER = {"sm": "sm", "llc": "cache", "mc": "mem"}


def _run(key, attach=None):
    runner = ExperimentRunner()
    system = runner.build(key)
    workload = get_benchmark(key.benchmark).instantiate(system.gpu)
    probe = attach(system) if attach else None
    begun = time.perf_counter()
    system.run_workload(workload, max_cycles=runner.max_cycles)
    return time.perf_counter() - begun, probe


def _add(total: Dict[str, float], part: Dict[str, float]) -> None:
    for name, seconds in part.items():
        total[name] = total.get(name, 0.0) + seconds


def main() -> int:
    """Measure and print the calibration table."""
    walls = {"plain": 0.0, "tick": 0.0, "sampler": 0.0}
    families: Dict[str, float] = {}
    layers: Dict[str, float] = {}
    tick_seconds = 0.0
    for _, key in BUSY_POOL:
        walls["plain"] += _run(key)[0]
        wall, profiler = _run(key, lambda s: TickProfiler.attach(s.sim))
        walls["tick"] += wall
        tick_seconds += profiler.total_seconds
        for group, seconds in profiler.by_group().items():
            _add(families, {FAMILY_LAYER.get(group, "noc"): seconds})
        sampler = LayerSampler(LayerMap(repro_root()))
        with sampler:
            wall, _ = _run(key)
        walls["sampler"] += wall
        _add(layers, sampler.cpu)
    print(f"plain run_workload: {walls['plain']:.2f} s over "
          f"{len(BUSY_POOL)} points")
    for name in ("tick", "sampler"):
        print(f"{name} profiler overhead: "
              f"{walls[name] / walls['plain'] - 1.0:+.1%}")
    print(f"TickProfiler: {tick_seconds / walls['tick']:.1%} of its wall "
          "inside component ticks")
    total_layers = sum(layers.values())
    print(f"{'layer':<12} {'TickProfiler':>12} {'sampler':>9}")
    for name in sorted(set(families) | set(layers),
                       key=lambda n: -layers.get(n, 0.0)):
        print(f"{name:<12} {families.get(name, 0.0) / walls['tick']:>12.1%} "
              f"{layers.get(name, 0.0) / total_layers:>9.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
