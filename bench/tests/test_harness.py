"""Tests of the benchmark harness: ``python -m pytest bench/tests``."""

import json
import os
import sys
import time

import pytest

from bench import ROOT
from bench.__main__ import end_to_end, per_layer, result_line
from bench.layers import OTHER, UNATTRIBUTED, LayerMap, LayerSampler, shares
from bench.measure import (
    Outcomes,
    load_pins,
    percentile,
    point_counters,
    typical,
)
from bench.pools import SLEEPY_POOL, fig7_gpu, fig7_points, pin_id
from bench.workloads import (
    busy_points,
    fig7_sweep,
    service_mixed,
    sleepy_points,
)

FAKE_ROOT = os.path.join(os.sep, "checkout", "src", "repro")


def _define(filename: str, source: str) -> dict:
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def _caller(filename: str):
    """A function ``call(fn)`` whose code claims to live in ``filename``."""
    return _define(filename, "def call(fn):\n    return fn()\n")["call"]


class TestLayerMap:
    def setup_method(self):
        self.layers = LayerMap(FAKE_ROOT)
        self.in_cache = _caller(os.path.join(FAKE_ROOT, "cache", "l1.py"))
        self.in_json = _caller("/usr/lib/python3.11/json/encoder.py")

    def here(self):
        return self.layers.layer_of(sys._getframe())

    def test_innermost_program_frame_wins(self):
        # innermost: this test file, then json, then repro/cache.
        layer = self.in_cache(lambda: self.in_json(self.here))
        assert layer == "cache"

    def test_nested_layers_charge_the_inner_one(self):
        in_sim = _caller(os.path.join(FAKE_ROOT, "sim", "engine.py"))
        assert in_sim(lambda: self.in_cache(self.here)) == "cache"

    def test_no_program_frame_is_other(self):
        assert self.in_json(self.here) == OTHER

    def test_top_level_module_is_its_own_layer(self):
        in_cli = _caller(os.path.join(FAKE_ROOT, "cli.py"))
        assert in_cli(self.here) == "cli"

    def test_sibling_directory_with_common_prefix_is_not_the_program(self):
        other = _caller(FAKE_ROOT + "_extra" + os.sep + "sim" + os.sep + "x.py")
        assert other(self.here) == OTHER


class TestABVerdict:
    LOWER = {"name": "t", "better": "lower", "bound": 0.1}

    def verdict(self, parent, change, metric=LOWER):
        from bench.ab import verdict

        return verdict(parent, change, metric, list(zip(parent, change)))

    def test_gain_needs_nine_of_ten_wins_beyond_the_parent_spread(self):
        parent = [100.0 + i for i in range(10)]
        assert self.verdict(parent, [p - 20 for p in parent]) == ("gain", 10)
        within_spread = [p - 1 for p in parent]
        assert self.verdict(parent, within_spread) == ("no-regression", 10)
        eight_wins = [p - 20 for p in parent[:8]] + parent[8:]
        assert self.verdict(parent, eight_wins)[0] != "gain"

    def test_regression_beyond_the_bound(self):
        parent = [100.0 + i for i in range(10)]
        assert self.verdict(parent, [p * 1.2 for p in parent])[0] == \
            "regression"
        higher = dict(self.LOWER, better="higher")
        assert self.verdict(parent, [p * 0.8 for p in parent],
                            higher)[0] == "regression"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [80.0, 120.0] * 5
        assert self.verdict(parent, [82.0, 121.0] * 5)[0] == "unresolved"


class TestPercentile:
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with pytest.raises(ValueError):
            percentile(list(range(50)), 90)  # 5 beyond
        with pytest.raises(ValueError):
            percentile(list(range(19)), 50)  # 9 beyond

    def test_accepts_ten_beyond(self):
        assert percentile(list(range(100)), 90) == pytest.approx(89.1)
        assert percentile(list(range(20)), 50) == pytest.approx(9.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile(list(range(1000)), 100)


def test_typical_is_the_geometric_mean_of_per_label_medians():
    # A single wild repeat of "a" does not move its median.
    assert typical({"a": [2.0, 2.0, 50.0], "b": [8.0]}) == pytest.approx(4.0)


def _spin(n: int) -> int:
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def test_layer_shares_sum_to_one_and_match_the_cpu_split():
    call_sm = _caller(os.path.join(FAKE_ROOT, "sm", "core.py"))
    call_mem = _caller(os.path.join(FAKE_ROOT, "mem", "dram.py"))
    sampler = LayerSampler(LayerMap(FAKE_ROOT))
    cpu_before = time.process_time()
    with sampler:
        for _ in range(20):
            call_sm(lambda: _spin(40_000))
            call_mem(lambda: _spin(20_000))
    cpu_spent = time.process_time() - cpu_before
    split = shares(sampler.cpu, sampler.samples)
    assert sum(share for share, _ in split.values()) == pytest.approx(1.0)
    # Everything the process spent is either charged or the handler's.
    charged = sum(sampler.cpu.values()) + sampler.handler_s
    assert charged == pytest.approx(cpu_spent, abs=0.02)
    sm_share, sm_error = split["sm"]
    mem_share, mem_error = split["mem"]
    assert sm_share + mem_share > 0.9
    # Expect 2:1; allow four standard errors plus loop overhead.
    assert sm_share / (sm_share + mem_share) == pytest.approx(
        2 / 3, abs=4 * sm_error + 0.05)
    assert set(split) <= {"sm", "mem", OTHER, UNATTRIBUTED}


@pytest.fixture(scope="module")
def counted_point():
    """One --channels 4 point run under obs.TickProfiler, which counts
    every tick the engine actually makes."""
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.store import result_to_dict
    from repro.obs.profiler import TickProfiler
    from repro.workloads.suite import get_benchmark

    label, key = fig7_points(["DWT2D"])[3]
    runner = ExperimentRunner(base_gpu=fig7_gpu())
    system = runner.build(key)
    profiler = TickProfiler.attach(system.sim)
    workload = get_benchmark(key.benchmark).instantiate(system.gpu)
    result = system.run_workload(workload, max_cycles=runner.max_cycles)
    ticks = sum(proxy.ticks for proxy in profiler._proxies)
    profiler.detach()
    return label, system, result, result_to_dict(result), ticks


def test_sim_ticks_equal_a_counting_tick_wrapper(counted_point):
    _, system, result, _, ticks = counted_point
    counters = point_counters(system, result)
    assert counters["skipped_ticks"] > 0
    assert counters["component_cycles"] - counters["skipped_ticks"] == ticks


def test_perturbed_result_counts_as_failed(counted_point):
    label, _, result, payload, _ = counted_point
    outcomes = Outcomes(load_pins())
    outcomes.check(pin_id("ch4", label), payload)
    assert (outcomes.attempted, outcomes.failed) == (1, 0)
    perturbed = dict(payload, cycles=result.cycles + 1)
    outcomes.check(pin_id("ch4", label), perturbed)
    assert (outcomes.attempted, outcomes.failed) == (2, 1)
    assert "differs" in outcomes.errors[0]


def test_every_pool_point_is_pinned():
    from bench.pools import BUSY_POOL, fig7_pool

    pins = load_pins()
    wanted = ([pin_id("small", label) for label, _ in BUSY_POOL + SLEEPY_POOL]
              + [pin_id("ch4", label) for label, _ in fig7_pool()])
    assert len(wanted) == 125
    assert sorted(wanted) == sorted(pins)


# ----------------------------------------------------------------------
# Tiny end-to-end passes of each workload on injected point lists.
# ----------------------------------------------------------------------


def _passes(run, tmp_path, **points):
    outcomes = Outcomes(load_pins())
    passes = {}
    for traced in (False, True):
        work = tmp_path / ("traced" if traced else "untraced")
        work.mkdir()
        passes[traced] = run(7, 1, traced, str(work), outcomes, **points)
    assert outcomes.errors == []
    assert outcomes.attempted > 0 and outcomes.failed == 0
    return passes, outcomes


def _check_metrics(passes):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as handle:
        spec = json.load(handle)
    e2e = end_to_end(passes[False], [0.2, 0.3], 10.0)
    layer = per_layer(passes[True], passes[False])
    for section, found in (("end_to_end", e2e), ("per_layer", layer)):
        for entry in spec[section]:
            value, unit, _, _ = found[entry["name"]]
            assert unit == entry["unit"], entry["name"]
            assert value is not None, entry["name"]
    assert layer["sim.ticks"][0] > 0
    assert sum(passes[True].sampler.samples.values()) > 0
    return e2e, layer


@pytest.mark.parametrize("run", [busy_points, sleepy_points])
def test_inline_workloads(run, tmp_path):
    passes, outcomes = _passes(run, tmp_path, points=SLEEPY_POOL[1:2])
    e2e, layer = _check_metrics(passes)
    assert e2e["sim_cycles_per_s"][0] > 0
    assert passes[False].counters == {}  # untraced passes count nothing
    line = result_line([{"workload": "busy-points", "end_to_end": e2e,
                         "per_layer": {}, "attempted": 3, "failed": 0}],
                       {"end_to_end": [{"name": "setup_s", "unit": "s"}]},
                       trace=0)
    assert line == {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}


def test_fig7_sweep_workload(tmp_path):
    passes, outcomes = _passes(fig7_sweep, tmp_path, benches=["DWT2D"],
                               warm_passes=2)
    _, layer = _check_metrics(passes)
    assert len(passes[False].sim_ops) == 1
    assert len(passes[False].nosim_ops) == 2
    # Child spans reached the parent: counters cover all four points.
    assert passes[True].counters["points"] == 4
    assert 0.0 <= layer["orchestrator.worker_idle_frac"][0] < 1.0
    assert layer["experiments.store_ops"][0] > 0


def test_service_workload(tmp_path):
    passes, outcomes = _passes(service_mixed, tmp_path,
                               cold_benches=["AN"], hit_bench="DWT2D")
    _, layer = _check_metrics(passes)
    assert len(passes[False].sim_ops) == 4
    assert len(passes[False].nosim_ops) > 0
    assert layer["service.points_executed"][0] == 4
    assert layer["service.overhead_ms_p50"][0] > 0
    assert passes[True].sampler.cpu.get("service", 0.0) > 0
