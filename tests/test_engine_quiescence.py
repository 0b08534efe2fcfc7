"""Strict-vs-quiescent engine equivalence (docs/PERFORMANCE.md).

The quiescence-aware engine skips components that declare themselves
idle and fast-forwards fully quiescent stretches. Its correctness bar
is *bit-identical* results: for every architecture the figure catalog
exercises, a default run must produce field-identical statistics and
identical trace event streams compared to ``Simulator(strict=True)``,
which ticks every component every cycle.

``repro.sim.request`` hands out request ids from a process-global
counter, so each measured run resets it -- otherwise the second run's
ids (embedded in trace event args) differ for bookkeeping reasons that
have nothing to do with engine behaviour.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict

import pytest

import repro.sim.request as request_mod
from repro.config.presets import small_config
from repro.config.topology import (
    Architecture,
    PagePolicy,
    ReplicationPolicy,
)
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.obs import TickProfiler, Tracer
from repro.sim.engine import Component, Simulator
from repro.workloads.suite import get_benchmark

#: Catalog's smallest points: a 2-channel GPU keeps each run fast while
#: exercising every queue, link and policy the full config uses.
CHANNELS = 2

CONFIGS = [
    pytest.param(
        RunKey("KMEANS", Architecture.MEM_SIDE_UBA,
               page_policy=PagePolicy.FIRST_TOUCH),
        id="kmeans-mem-side-uba",
    ),
    pytest.param(
        RunKey("KMEANS", Architecture.SM_SIDE_UBA,
               page_policy=PagePolicy.FIRST_TOUCH),
        id="kmeans-sm-side-uba",
    ),
    pytest.param(
        RunKey("KMEANS", Architecture.NUBA,
               replication=ReplicationPolicy.NONE),
        id="kmeans-nuba-norep",
    ),
    pytest.param(
        RunKey("KMEANS", Architecture.NUBA,
               replication=ReplicationPolicy.MDR),
        id="kmeans-nuba-mdr",
    ),
    pytest.param(
        RunKey("AN", Architecture.NUBA,
               replication=ReplicationPolicy.MDR),
        id="an-nuba-mdr",
    ),
    # Multi-kernel boundary regression: a later kernel's fresh warps
    # must invalidate the SM self-ready watermark left by the previous
    # kernel's final scan, or the SM timed-sleeps over runnable warps.
    pytest.param(
        RunKey("AN", Architecture.MEM_SIDE_UBA,
               page_policy=PagePolicy.LAB),
        id="an-mem-side-uba-lab",
    ),
]


def _run(key: RunKey, strict: bool, trace: bool = True,
         profile: bool = False):
    """One measured run; returns (result dict, stats dict, events,
    final cycle, skipped ticks, profiler-or-None)."""
    request_mod._req_ids = itertools.count()
    runner = ExperimentRunner(
        base_gpu=small_config(num_channels=CHANNELS), strict=strict,
    )
    system = runner.build(key)
    tracer = Tracer.attach(system) if trace else None
    profiler = TickProfiler.attach(system.sim) if profile else None
    workload = get_benchmark(key.benchmark).instantiate(system.gpu)
    result = system.run_workload(workload, max_cycles=runner.max_cycles)
    events = (
        [(e.name, e.cat, e.track, e.cycle, e.dur, tuple(sorted(e.args.items())))
         for e in tracer.events]
        if tracer is not None else None
    )
    return (
        asdict(result),
        system.stats_snapshot().as_dict(),
        events,
        system.sim.cycle,
        system.sim.skipped_ticks,
        profiler,
    )


@pytest.mark.parametrize("key", CONFIGS)
def test_quiescent_run_is_bit_identical_to_strict(key: RunKey) -> None:
    s_result, s_stats, s_events, s_cycle, _, _ = _run(key, strict=True)
    q_result, q_stats, q_events, q_cycle, skipped, _ = _run(
        key, strict=False,
    )
    assert q_cycle == s_cycle
    assert q_result == s_result
    assert q_stats == s_stats
    assert len(q_events) == len(s_events)
    assert q_events == s_events
    # The engine must actually have skipped work, or this test proves
    # nothing about the quiescence path.
    assert skipped > 0


def test_untraced_runs_match_too() -> None:
    """Tracing swaps NULL_TRACER guards for live ones; make sure the
    equivalence doesn't depend on that instrumentation being present."""
    key = CONFIGS[0].values[0]
    s_result, s_stats, _, s_cycle, _, _ = _run(key, strict=True,
                                               trace=False)
    q_result, q_stats, _, q_cycle, _, _ = _run(key, strict=False,
                                               trace=False)
    assert (q_cycle, q_result, q_stats) == (s_cycle, s_result, s_stats)


def test_profiled_run_still_skips_and_matches() -> None:
    """TickProfiler's record wrappers must honor the activity
    contract: wrapped components still sleep (the wrappers count the
    elided ticks) and the profiled run stays bit-identical to
    strict."""
    key = CONFIGS[0].values[0]
    s_result, s_stats, s_events, s_cycle, _, _ = _run(key, strict=True)
    q_result, q_stats, q_events, q_cycle, _, profiler = _run(
        key, strict=False, profile=True,
    )
    assert (q_cycle, q_result, q_stats) == (s_cycle, s_result, s_stats)
    assert q_events == s_events
    skipped = sum(proxy.skipped for proxy in profiler._proxies)
    assert skipped > 0
    assert "skipped by quiescence" in profiler.report()


# ----------------------------------------------------------------------
# Engine-level unit tests (no GPU system required).
# ----------------------------------------------------------------------


class _Ticker(Component):
    """Never idles; counts its ticks."""

    def __init__(self) -> None:
        super().__init__("ticker")
        self.ticks = 0

    def tick(self, now: int) -> None:
        self.ticks += 1


class _Sleeper(Component):
    """Idles immediately; reproduces a per-cycle counter via
    ``on_skipped`` (the SM stall-cycle pattern)."""

    def __init__(self) -> None:
        super().__init__("sleeper")
        self.cycles_seen = 0

    def tick(self, now: int) -> bool:
        self.cycles_seen += 1
        return True

    def on_skipped(self, cycles: int) -> None:
        self.cycles_seen += cycles


class _Idle(Component):
    """Sleeps after its first tick and has no skip hook."""

    def __init__(self) -> None:
        super().__init__("idle")

    def tick(self, now: int) -> bool:
        return True


@pytest.mark.parametrize("strict", [True, False])
def test_run_until_never_overshoots_max_cycles(strict: bool) -> None:
    """Regression: the final chunk is clamped, so a max_cycles that is
    not a multiple of check_period stops exactly at the deadline."""
    sim = Simulator(strict=strict)
    ticker = sim.add(_Ticker())
    finished = sim.run_until(lambda: False, max_cycles=100,
                             check_period=64)
    assert finished is False
    assert sim.cycle == 100
    if strict:
        assert ticker.ticks == 100


@pytest.mark.parametrize("strict", [True, False])
def test_run_until_evaluates_done_at_the_same_cycles(strict) -> None:
    """Fast-forwarding lands on exactly the chunk boundaries strict
    mode polls at, so ``done`` observes the same cycle sequence."""
    sim = Simulator(strict=strict)
    sim.add(_Sleeper())
    polled = []

    def done() -> bool:
        polled.append(sim.cycle)
        return False

    sim.run_until(done, max_cycles=200, check_period=64)
    assert polled == [64, 128, 192, 200, 200]


def test_fast_forward_jumps_idle_stretches_and_fires_hooks() -> None:
    sim = Simulator()
    sleeper = sim.add(_Sleeper())
    fired = []
    sim.every(1000, fired.append)
    sim.run(5000)
    assert sim.cycle == 5000
    assert fired == [1000, 2000, 3000, 4000, 5000]
    # One real tick, the rest skipped -- but the counter is exact.
    assert sleeper.cycles_seen == 5000
    assert sim.fast_forwarded_cycles >= 4990
    assert sim.skipped_ticks == 4999


def test_wake_reactivates_a_sleeping_component() -> None:
    sim = Simulator()
    sleeper = sim.add(_Sleeper())
    sim.run(10)
    assert sleeper._slot.awake is False
    sleeper.wake()
    assert sleeper._slot.awake is True
    assert sim._n_asleep == 0
    before = sleeper.cycles_seen
    sim.step()
    sim.sync()
    # The woken component really ticked (tick, not on_skipped, ran).
    assert sleeper.cycles_seen == before + 1


def test_component_woken_before_add_ticks_on_the_first_cycle() -> None:
    """The record exists from construction, so an ingress wake()
    before registration is harmless, and add() registers the component
    awake: it ticks at cycle 0."""
    sleeper = _Sleeper()
    sleeper.wake()
    assert sleeper._slot.awake is True
    sim = Simulator()
    sim.add(sleeper)
    assert sim._n_asleep == 0
    sim.step()
    assert sleeper.cycles_seen == 1
    assert sleeper._slot.awake is False  # its verdict put it to sleep
    assert sim._n_asleep == 1


def test_strict_mode_never_skips() -> None:
    sim = Simulator(strict=True)
    sleeper = sim.add(_Sleeper())
    sim.run(500)
    assert sleeper.cycles_seen == 500
    assert sim.skipped_ticks == 0
    assert sim.fast_forwarded_cycles == 0


# ----------------------------------------------------------------------
# Timed wakeups (deadline-driven sleep).
# ----------------------------------------------------------------------


class _TimedSleeper(Component):
    """Sleeps a fixed stride between ticks: tick at cycle ``t``
    returns the deadline ``t + stride`` (asleep until then)."""

    def __init__(self, stride: int = 10) -> None:
        super().__init__("timed")
        self.stride = stride
        self.tick_cycles: list = []
        self.skipped = 0

    def tick(self, now: int) -> object:
        self.tick_cycles.append(now)
        return now + self.stride

    def on_skipped(self, cycles: int) -> None:
        self.skipped += cycles


def test_timed_wakeup_ticks_only_at_deadlines() -> None:
    sim = Simulator()
    sleeper = sim.add(_TimedSleeper(stride=10))
    sim.run(100)
    assert sleeper.tick_cycles == list(range(0, 100, 10))
    # The elided cycles are reported exactly, and the engine
    # fast-forwards the fully asleep stretches between deadlines.
    assert sleeper.skipped == 100 - len(sleeper.tick_cycles)
    assert sim.skipped_ticks == sleeper.skipped
    assert sim.fast_forwarded_cycles > 0
    assert sim.cycle == 100


def test_components_without_a_skip_hook_still_count_skips() -> None:
    """``on_skipped`` is optional: the engine calls it only where a
    component defines it, and counts every elided tick either way."""
    sim = Simulator()
    quiet = sim.add(_TimedSleeper(stride=10))
    plain = sim.add(_Idle())
    assert plain._slot.on_skipped is None
    assert quiet._slot.on_skipped == quiet.on_skipped
    sim.run(100)
    assert quiet.skipped == 90
    assert sim.skipped_ticks == 90 + 99


def test_deadline_within_one_cycle_keeps_component_awake() -> None:
    """``now + 1`` is the next tick anyway: sleeping would only add
    heap traffic, so the engine keeps the component awake."""
    sim = Simulator()
    sleeper = sim.add(_TimedSleeper(stride=1))
    sim.run(50)
    assert sleeper.tick_cycles == list(range(0, 50))
    assert sleeper.skipped == 0


def test_wake_before_deadline_costs_at_most_one_early_tick() -> None:
    """An ingress wake() before the deadline leaves the heap entry in
    place: the woken tick's later deadline rides on it, so the
    component ticks once early (a strict tick) and never late."""
    sim = Simulator()
    sleeper = sim.add(_TimedSleeper(stride=50))
    sim.run(10)  # ticked at 0, asleep until 50
    assert sleeper._slot.awake is False
    assert sleeper._slot.wake_at == 50
    sleeper.wake()
    sim.run(60)  # ticks at 10 (deadline 60 > live entry 50), then 50
    assert sleeper.tick_cycles == [0, 10, 50]


def test_frequent_wakes_keep_one_heap_entry() -> None:
    """A stride-50 timed sleeper woken every 5 cycles asks for ever
    later deadlines; none of them is earlier than its live entry, so
    the heap never holds more than that one entry."""
    sim = Simulator()
    sleeper = sim.add(_TimedSleeper(stride=50))
    sizes = []

    def poke(cycle: int) -> None:
        sleeper.wake()
        sizes.append(len(sim._wakeups))

    sim.every(5, poke)
    sim.run(500)
    assert sleeper.tick_cycles == list(range(0, 500, 5))
    assert set(sizes) == {1}


def test_hook_registered_midrun_on_a_wakeup_deadline_fires_once() -> None:
    """A hook whose first firing lands exactly on a pending wakeup
    deadline fires exactly once there -- before the woken component
    ticks at that cycle (strict hook-before-tick ordering)."""
    sim = Simulator()
    sleeper = sim.add(_TimedSleeper(stride=40))
    sim.run(10)  # ticked at 0, asleep until 40
    fired = []

    def hook(cycle: int) -> None:
        # Hooks at the landing cycle run before the re-woken
        # component's tick.
        assert 40 not in sleeper.tick_cycles
        fired.append(cycle)

    sim.every(30, hook)  # next firing: 10 + 30 = 40, on the deadline
    sim.run(35)  # through cycle 40, short of the next firing at 70
    assert fired == [40]
    assert 40 in sleeper.tick_cycles


def test_run_until_clamps_when_deadline_overshoots_the_limit() -> None:
    """A wakeup deadline far beyond max_cycles must not drag the
    fast-forward past the limit."""
    sim = Simulator()
    sleeper = sim.add(_TimedSleeper(stride=1000))
    finished = sim.run_until(lambda: False, max_cycles=100,
                             check_period=64)
    assert finished is False
    assert sim.cycle == 100
    assert sleeper.tick_cycles == [0]
    # Skip accounting flushed on sync: every elided cycle reported.
    assert sleeper.skipped == 99


def test_profiled_timed_sleeper_still_sleeps() -> None:
    """TickProfiler's record wrappers pass the timed verdict through."""
    sim = Simulator()
    sleeper = sim.add(_TimedSleeper(stride=10))
    profiler = TickProfiler.attach(sim)
    sim.run(100)
    assert sleeper.tick_cycles == list(range(0, 100, 10))
    proxy = profiler._proxies[0]
    assert proxy.ticks == len(sleeper.tick_cycles)
    assert proxy.skipped == 100 - len(sleeper.tick_cycles)
