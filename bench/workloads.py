"""The benchmark's four workloads.

Each workload function runs one *pass*: a fixed count of operations
(``units`` of work, planned from the seed) with or without tracing,
and returns a :class:`Pass`. The seed only orders the points, so every
seed does the same work and the seed-to-seed spread of a metric is
host noise, not a different mix of points.

Load comes from this one process, closed loop, with at most two
client threads or pool workers (the reference host has two CPUs).
Simulated caches start empty in every point, as in ``repro run``.

The untraced passes bracket their operations with host-speed samples (:class:`~bench.measure.HostSpeed`); the traced
pass takes none, so its wall time compares with the untraced pass's
operations alone. Each inline point and each cold sweep starts from a
collected heap, as a fresh ``repro run`` or ``repro sweep`` would, so
garbage from the previous point neither lands in its timing nor in
its peak memory.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import multiprocessing
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentRunner, RunKey
from repro.experiments.store import (
    ResultStore,
    key_fingerprint,
    result_to_dict,
)
from repro.orchestrator.orchestrator import SweepOrchestrator
from repro.orchestrator.sweep import Sweep
from repro.service.client import ServiceClient
from repro.service.manager import JobManager
from repro.service.server import ServiceServer
from repro.workloads.suite import get_benchmark

from bench.layers import LayerMap, LayerSampler, repro_root
from bench.measure import (
    HostSpeed,
    Op,
    Outcomes,
    SpanObserver,
    TimedStore,
    add_counters,
    point_counters,
)
from bench.pools import (
    BUSY_POOL,
    SLEEPY_POOL,
    Point,
    fig7_gpu,
    fig7_points,
    pin_id,
)

#: The cold sweep's benchmarks: four of ``benchmarks/conftest.py``'s
#: ``SWEEP_SUBSET``, fixed so every seed sweeps the same 16 points.
SWEEP_BENCHES = ("KMEANS", "DWT2D", "AN", "2MM")
#: Warm passes (every point served from the store) per cold sweep.
WARM_PASSES_PER_SWEEP = 25
#: Pre-warmed points the service's hit thread requests.
SERVICE_HIT_BENCH = "DWT2D"
#: Benchmarks whose four fig7 points form the service's cold units,
#: in unit order.
SERVICE_COLD_BENCHES = ("KMEANS", "AN", "2MM", "BP", "LEU", "WC", "BT",
                        "SC")


# ----------------------------------------------------------------------
# What one pass measured.
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """The measurements of one pass over a workload."""

    traced: bool
    #: Host seconds of the pass's operations (host-speed samples
    #: excluded); traced vs untraced gives the tracing overhead.
    wall_s: float = 0.0
    #: Operations that simulate, and operations that do not enter the
    #: cycle loop.
    sim_ops: List[Op] = field(default_factory=list)
    nosim_ops: List[Op] = field(default_factory=list)
    #: Traced only: per-point simulation spans (s) and counters.
    sim_spans: List[float] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    sampler: Optional[LayerSampler] = None
    #: Workload-specific numbers (store spans, service counters, ...).
    extras: Dict[str, object] = field(default_factory=dict)

    def start(self) -> Optional[HostSpeed]:
        """Begin the pass: arm the sampler (traced) or take the first
        host-speed sample (untraced)."""
        if self.traced:
            self.sampler = LayerSampler(LayerMap(repro_root())).start()
            return None
        return HostSpeed()

    def stop(self) -> None:
        """End the pass."""
        if self.sampler is not None:
            self.sampler.stop()


def _factor(speed: Optional[HostSpeed]) -> float:
    return speed.factor() if speed is not None else 1.0


def _ordered(points: Sequence[Point], rng: random.Random) -> List[Point]:
    order = list(points)
    rng.shuffle(order)
    return order


def _reap_children() -> None:
    """Wait for every child process (pool workers end terminated)."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


# ----------------------------------------------------------------------
# busy-points / sleepy-points: inline ``repro run``-style points.
# ----------------------------------------------------------------------


def run_inline_point(runner: ExperimentRunner, label: str, key: RunKey,
                     outcomes: Outcomes):
    """Build, instantiate, run, audit and check one point.

    Returns ``(system, result, build_s, run_s)``, or None when the
    point failed.
    """
    try:
        begun = time.perf_counter()
        system = runner.build(key)
        workload = get_benchmark(key.benchmark).instantiate(system.gpu)
        built = time.perf_counter()
        result = system.run_workload(workload, max_cycles=runner.max_cycles)
        ended = time.perf_counter()
        problems = system.audit()
    except Exception as exc:  # noqa: BLE001 -- counted as failed
        outcomes.fail(f"{label}: {exc!r}")
        return None
    if problems:
        outcomes.fail(f"{label}: audit: {problems[:3]}")
        return None
    outcomes.check(pin_id("small", label), result_to_dict(result))
    return system, result, built - begun, ended - built


def inline_points(pool: Sequence[Point], seed: int, units: int,
                  traced: bool, work: str, outcomes: Outcomes) -> Pass:
    """``units`` rounds over every point of ``pool``, seed-ordered."""
    rng = random.Random(seed)
    plan = [point for _ in range(units) for point in _ordered(pool, rng)]
    out = Pass(traced=traced)
    runner = ExperimentRunner()
    speed = out.start()
    try:
        for label, key in plan:
            gc.collect()
            done = run_inline_point(runner, label, key, outcomes)
            factor = _factor(speed)
            if done is None:
                continue
            system, result, build_s, run_s = done
            out.wall_s += build_s + run_s
            out.sim_ops.append(Op(label, (build_s + run_s) * 1e3, factor,
                                  result.cycles, run_s))
            out.nosim_ops.append(Op(label, build_s * 1e3, factor))
            if traced:
                out.sim_spans.append(run_s)
                add_counters(out.counters, point_counters(system, result))
    finally:
        out.stop()
    return out


def busy_points(seed: int, units: int, traced: bool, work: str,
                outcomes: Outcomes, points: Sequence[Point] = BUSY_POOL
                ) -> Pass:
    """busy-points: the saturated pool, inline."""
    return inline_points(points, seed, units, traced, work, outcomes)


def sleepy_points(seed: int, units: int, traced: bool, work: str,
                  outcomes: Outcomes, points: Sequence[Point] = SLEEPY_POOL
                  ) -> Pass:
    """sleepy-points: the latency-bound pool, inline."""
    return inline_points(points, seed, units, traced, work, outcomes)


# ----------------------------------------------------------------------
# fig7-sweep: cold sweeps through the process pool, then warm passes.
# ----------------------------------------------------------------------


def traced_task(trace_dir: str, key: RunKey):
    """Pool-child task of the traced sweep.

    Runs the point through a fresh runner with the sampler on and
    leaves the child's span, layer CPU and counters in ``trace_dir``,
    one file per pid and fingerprint.
    """
    observer = SpanObserver()
    runner = ExperimentRunner(base_gpu=fig7_gpu(), observer=observer)
    sampler = LayerSampler(LayerMap(repro_root()))
    begun = time.monotonic()
    with sampler:
        result = runner.run(key)
    ended = time.monotonic()
    record = {
        "pid": os.getpid(),
        "fingerprint": key_fingerprint(key, runner.cache_settings()),
        "span": [begun, ended],
        "sim_spans": [span for _, span in observer.sim_spans],
        "counters": observer.counters,
        "sampler": sampler.snapshot(),
    }
    path = os.path.join(
        trace_dir, f"{record['pid']}-{record['fingerprint']}.json")
    with open(path, "w") as handle:
        json.dump(record, handle)
    return result


def _check_sweep(report, labels: Dict[RunKey, str],
                 outcomes: Outcomes) -> int:
    """Count a sweep's points; returns their simulated cycles."""
    cycles = 0
    for failure in report.failures:
        outcomes.fail(f"{failure.label}: {failure.error}")
    for key, result in report.results.items():
        outcomes.check(pin_id("ch4", labels[key]), result_to_dict(result))
        cycles += result.cycles
    return cycles


def fig7_sweep(seed: int, units: int, traced: bool, work: str,
               outcomes: Outcomes,
               benches: Sequence[str] = SWEEP_BENCHES,
               warm_passes: int = WARM_PASSES_PER_SWEEP) -> Pass:
    """fig7-sweep: ``units`` x (one cold sweep into an empty store
    through ``SweepOrchestrator(workers=2)``, then ``warm_passes``
    passes, each with a fresh runner and orchestrator, served from
    that store)."""
    rng = random.Random(seed)
    gpu = fig7_gpu()
    points = fig7_points(benches)
    labels = {key: label for label, key in points}
    out = Pass(traced=traced)
    trace_dir = os.path.join(work, "child-traces")
    task = None
    if traced:
        os.makedirs(trace_dir)
        task = functools.partial(traced_task, trace_dir)
    load_ms: List[float] = []
    save_ms: List[float] = []
    retries = restarts = 0
    cold_wall = 0.0
    speed = out.start()
    try:
        for unit in range(units):
            sweep = Sweep.of("fig7", _ordered(points, rng))
            store = ResultStore(os.path.join(work, f"store-{unit}"))
            timed = TimedStore(store) if traced else store
            runner = ExperimentRunner(base_gpu=gpu, store=timed)
            orchestrator = SweepOrchestrator(runner, workers=2, task_fn=task)
            gc.collect()
            started = time.perf_counter()
            try:
                report = orchestrator.run(sweep)
            finally:
                _reap_children()
            wall = time.perf_counter() - started
            cold_wall += wall
            retries += report.retries
            restarts += report.pool_restarts
            out.sim_ops.append(Op("cold-sweep", wall * 1e3, _factor(speed),
                                  _check_sweep(report, labels, outcomes),
                                  wall))
            warm_ms = []
            for _ in range(warm_passes):
                warm_store = TimedStore(store) if traced else store
                warm_runner = ExperimentRunner(base_gpu=gpu, store=warm_store)
                started = time.perf_counter()
                report = SweepOrchestrator(warm_runner, workers=2).run(sweep)
                warm_ms.append((time.perf_counter() - started) * 1e3)
                if report.simulated:
                    outcomes.fail(f"warm pass simulated {report.simulated}")
                _check_sweep(report, labels, outcomes)
                if traced:
                    load_ms.extend(warm_store.load_ms)
            factor = _factor(speed)
            out.nosim_ops.extend(Op("warm-pass", ms, factor)
                                 for ms in warm_ms)
            out.wall_s += wall + sum(warm_ms) / 1e3
            if traced:
                load_ms.extend(timed.load_ms)
                save_ms.extend(timed.save_ms)
    finally:
        out.stop()
    out.extras.update(retries=retries, pool_restarts=restarts,
                      store_load_ms=load_ms, store_save_ms=save_ms)
    if traced:
        busy = 0.0
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name)) as handle:
                record = json.load(handle)
            busy += record["span"][1] - record["span"][0]
            out.sim_spans.extend(record["sim_spans"])
            add_counters(out.counters, record["counters"])
            out.sampler.merge(**record["sampler"])
        out.extras["worker_idle_frac"] = (
            1.0 - busy / (2 * cold_wall) if cold_wall else float("nan"))
    return out


def sweep_warmup(work: str, outcomes: Outcomes) -> None:
    """One untimed fig7 point inline."""
    label, key = fig7_points(SWEEP_BENCHES[:1])[0]
    result = ExperimentRunner(base_gpu=fig7_gpu()).run(key)
    outcomes.check(pin_id("ch4", label), result_to_dict(result))


# ----------------------------------------------------------------------
# service-mixed: cold and cache-hit clients against one server.
# ----------------------------------------------------------------------


class _HitGate:
    """Lets the cold thread hold the hit thread between two requests,
    so a host-speed sample runs without a client in flight."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._held = False
        self._in_flight = False

    @contextlib.contextmanager
    def request(self):
        """Wrap one hit request; waits while the gate is held."""
        with self._cond:
            while self._held:
                self._cond.wait()
            self._in_flight = True
        try:
            yield
        finally:
            with self._cond:
                self._in_flight = False
                self._cond.notify_all()

    @contextlib.contextmanager
    def held(self):
        """Hold the hit thread once its current request is done."""
        with self._cond:
            self._held = True
            while self._in_flight:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._held = False
                self._cond.notify_all()


def _round_trip(client: ServiceClient, label: str, key: RunKey,
                tenant: str, outcomes: Outcomes) -> Optional[dict]:
    """Submit one point, wait for its result, check it; returns the
    result payload on success."""
    try:
        job = client.submit(points=[(label, key)], tenant=tenant)
        payload = client.result(job["id"], wait=300.0)
    except Exception as exc:  # noqa: BLE001 -- HTTP error, 429, ...
        outcomes.fail(f"{tenant} {label}: {exc!r}")
        return None
    result = payload.get("results", {}).get(label)
    if payload.get("state") != "done" or result is None:
        outcomes.fail(f"{tenant} {label}: job {payload.get('state')}")
        return None
    outcomes.check(pin_id("ch4", label), result)
    return result


def service_mixed(seed: int, units: int, traced: bool, work: str,
                  outcomes: Outcomes,
                  cold_benches: Sequence[str] = SERVICE_COLD_BENCHES,
                  hit_bench: str = SERVICE_HIT_BENCH) -> Pass:
    """service-mixed: an in-process ``ServiceServer`` over
    ``JobManager(workers=1)`` with a fresh store, and two closed-loop
    ``ServiceClient`` threads. The cold thread submits ``units`` x 4
    unique points one at a time; the hit thread requests pre-warmed
    points until the cold thread is done.

    In the untraced pass the cold thread holds the hit thread after
    each cold point while it takes a host-speed sample, so the samples
    bracket every cold round trip without a client in flight. Hits are
    not rescaled: under a running simulation their latency is waiting
    for the interpreter lock (a 5 ms switch interval per hand-off),
    not CPU work.
    """
    if units > len(cold_benches):
        raise ValueError(f"service-mixed has {len(cold_benches)} cold "
                         f"units, {units} requested")
    rng = random.Random(seed)
    cold = _ordered(fig7_points(cold_benches[:units]), rng)
    hits = _ordered(fig7_points([hit_bench]), rng)
    out = Pass(traced=traced)
    store = ResultStore(os.path.join(work, "service-store"))
    timed = TimedStore(store) if traced else store
    runner = ExperimentRunner(base_gpu=fig7_gpu(), store=timed)
    for label, key in hits:  # pre-warm; also the warm-up points
        outcomes.check(pin_id("ch4", label),
                       result_to_dict(runner.run(key)))
    observer = SpanObserver() if traced else None
    runner.observer = observer
    if traced:
        timed.load_ms.clear()
        timed.save_ms.clear()
    manager = JobManager(runner, workers=1)
    server = ServiceServer(manager).start()
    client = ServiceClient(server.url, timeout=60.0)
    cold_done = threading.Event()
    gate = _HitGate()
    cold_ops: Dict[RunKey, Op] = {}
    hit_ms: List[tuple] = []
    speed = out.start()

    def cold_loop() -> None:
        try:
            for label, key in cold:
                started = time.perf_counter()
                result = _round_trip(client, label, key, "cold", outcomes)
                elapsed = time.perf_counter() - started
                factor = 1.0
                if speed is not None:
                    with gate.held():
                        factor = speed.factor()
                if result is not None:
                    cold_ops[key] = Op(label, elapsed * 1e3, factor,
                                       result["cycles"], elapsed)
        finally:
            cold_done.set()

    def hit_loop() -> None:
        index = 0
        while not cold_done.is_set():
            label, key = hits[index % len(hits)]
            index += 1
            with gate.request():
                started = time.perf_counter()
                if _round_trip(client, label, key, "hits", outcomes):
                    hit_ms.append((label,
                                   (time.perf_counter() - started) * 1e3))

    threads = [threading.Thread(target=cold_loop, name="bench-cold"),
               threading.Thread(target=hit_loop, name="bench-hits")]
    try:
        for thread in threads:
            thread.start()
        if out.sampler:
            out.sampler.join(threads)
        for thread in threads:
            thread.join()
    finally:
        out.stop()
        counters = manager.stats()["counters"]
        server.stop()
    out.sim_ops = list(cold_ops.values())
    out.wall_s = sum(op.sim_s for op in out.sim_ops)
    out.nosim_ops = [Op(label, ms, 1.0) for label, ms in hit_ms]
    out.extras.update(
        points_executed=counters["points_executed"],
        points_cached=counters["points_cached"],
        jobs_rejected=counters["jobs_rejected"],
    )
    if traced:
        spans = dict(observer.sim_spans)
        out.sim_spans = list(spans.values())
        out.counters = observer.counters
        out.extras.update(
            store_load_ms=list(timed.load_ms),
            store_save_ms=list(timed.save_ms),
            overhead_ms=[op.ms - spans[key] * 1e3
                         for key, op in cold_ops.items() if key in spans],
        )
    return out


# ----------------------------------------------------------------------
# The catalogue.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload: its pass function, its untimed warm-up and the
    nominal seconds of one unit of work on the reference host (which
    turns ``--seconds`` into a fixed count of units)."""

    name: str
    run: Callable[..., Pass]
    unit_seconds: float
    warmup: Optional[Callable[[str, Outcomes], None]] = None
    max_units: Optional[int] = None

    def units(self, seconds: float) -> int:
        """Units of work that fill ``seconds`` on the reference host."""
        units = max(1, round(seconds / self.unit_seconds))
        if self.max_units is not None:
            units = min(units, self.max_units)
        return units


def _inline_warmup(label: str, key: RunKey):
    def warmup(work: str, outcomes: Outcomes) -> None:
        run_inline_point(ExperimentRunner(), label, key, outcomes)
    return warmup


WORKLOADS: Dict[str, Workload] = {
    "busy-points": Workload(
        "busy-points", busy_points, unit_seconds=12.0,
        warmup=_inline_warmup(*BUSY_POOL[1])),
    "sleepy-points": Workload(
        "sleepy-points", sleepy_points, unit_seconds=4.6,
        warmup=_inline_warmup(*SLEEPY_POOL[1])),
    "fig7-sweep": Workload(
        "fig7-sweep", fig7_sweep, unit_seconds=7.0, warmup=sweep_warmup),
    "service-mixed": Workload(
        "service-mixed", service_mixed, unit_seconds=5.0,
        max_units=len(SERVICE_COLD_BENCHES)),
}
