"""Measurement helpers shared by the workloads: percentiles, pinned
result digests, point counters, store and simulation spans, and the
host block."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import threading
import time
from typing import Dict, List, NamedTuple, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

#: A tail percentile must leave at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it, so a reported tail always rests on at least
    ten observations.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    beyond = int(len(values) * (100.0 - q) / 100.0)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(values)} samples leaves {beyond} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """Median, or NaN for no samples (printed, never silently 0)."""
    return statistics.median(values) if values else float("nan")


class Op(NamedTuple):
    """One timed operation: what it was (a point label, or a kind of
    pass), its host time, the host-speed factor of its interval and,
    for a simulating operation, the simulated cycles and host seconds
    it spent simulating."""

    label: str
    ms: float
    factor: float
    cycles: int = 0
    sim_s: float = 0.0


def typical(ms_by_label: Dict[str, List[float]]) -> float:
    """Geometric mean over labels of each label's median time.

    A workload repeats a fixed mix of different operations; the median
    of the pooled mix is the time of whichever operation sits in the
    middle, so its noise is one operation's noise. The geometric mean
    of per-operation medians averages over the whole mix and weighs
    each operation's relative change equally.
    """
    if not ms_by_label:
        return float("nan")
    logs = [math.log(statistics.median(values))
            for values in ms_by_label.values()]
    return math.exp(sum(logs) / len(logs))


def digest(payload: dict) -> str:
    """sha256 over a ``result_to_dict`` payload with sorted keys."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins(path: str = EXPECTED_PATH) -> Dict[str, str]:
    """Pinned result digests, keyed by pin id."""
    with open(path) as handle:
        return json.load(handle)["digests"]


class Outcomes:
    """Attempted and failed operations of one pass, thread-safe.

    Every point the benchmark sees is checked against its pinned
    digest; a mismatch, an exception, a non-``done`` job, an HTTP error
    or a non-empty audit counts as one failed operation.
    """

    def __init__(self, pins: Dict[str, str]) -> None:
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def ok(self) -> None:
        """Record one successful operation."""
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        """Record one failed operation."""
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(reason)

    def check(self, pin_id: str, payload: dict) -> None:
        """Count one operation that produced ``payload``."""
        if self.pins.get(pin_id) == digest(payload):
            self.ok()
        else:
            self.fail(f"{pin_id}: result differs from bench/expected.json")


# ----------------------------------------------------------------------
# Counters of simulated work (deterministic; they must repeat exactly).
# ----------------------------------------------------------------------

COUNTER_NAMES = (
    "points", "cycles", "component_cycles", "skipped_ticks",
    "instructions", "stall_cycles", "l1_hits", "l1_misses",
    "llc_accesses", "llc_hits", "dram_lines", "row_hits", "row_misses",
    "noc_bytes", "local", "remote", "tlb_hits", "tlb_misses", "walks",
    "mdr_replication_epochs",
)


def point_counters(system, result) -> Dict[str, int]:
    """Counts of one finished point, from its ``RunResult``,
    ``stats_snapshot()`` and the engine's ``Simulator`` counters."""
    stats = system.stats_snapshot()
    tracker = result.tracker
    return {
        "points": 1,
        "cycles": result.cycles,
        "component_cycles": result.cycles * len(system.sim.components),
        "skipped_ticks": system.sim.skipped_ticks,
        "instructions": result.instructions,
        "stall_cycles": int(stats.sum("sm", ".stall_cycles")),
        "l1_hits": int(stats.sum("sm", ".l1.load_hits")),
        "l1_misses": int(stats.sum("sm", ".l1.load_misses")),
        "llc_accesses": result.llc_accesses,
        "llc_hits": int(stats.sum("llc", ".hits")),
        "dram_lines": result.dram_lines,
        "row_hits": int(stats.sum("mc", ".row_hits")),
        "row_misses": int(stats.sum("mc", ".row_misses")),
        "noc_bytes": result.noc_bytes,
        "local": int(tracker.get("local", 0)),
        "remote": int(tracker.get("remote", 0)),
        "tlb_hits": int(stats.sum("sm", ".tlb.hits")),
        "tlb_misses": int(stats.sum("sm", ".tlb.misses")),
        "walks": int(stats.get("walkers.walks")),
        "mdr_replication_epochs": result.mdr_replication_epochs,
    }


def add_counters(total: Dict[str, int], more: Dict[str, int]) -> None:
    """Accumulate one point's counters into a running total."""
    for name in COUNTER_NAMES:
        total[name] = total.get(name, 0) + more.get(name, 0)


class SpanObserver:
    """A runner observer that records each simulated point's span and
    counters (``ExperimentRunner(observer=...)``).

    The span runs from ``attach`` (system built) to ``finish`` (result
    summarised): workload instantiation plus ``run_workload``.
    """

    def __init__(self) -> None:
        #: ``(RunKey, seconds)`` per simulated point, in finish order.
        self.sim_spans: List[tuple] = []
        self.counters: Dict[str, int] = {}
        self._begun: Dict[object, float] = {}
        self._lock = threading.Lock()

    def attach(self, key, system) -> None:
        """Start the point's span."""
        self._begun[key] = time.perf_counter()

    def finish(self, key, system, result) -> None:
        """End the span and collect the point's counters."""
        span = time.perf_counter() - self._begun.pop(key)
        counters = point_counters(system, result)
        with self._lock:
            self.sim_spans.append((key, span))
            add_counters(self.counters, counters)


class TimedStore:
    """Times ``load``/``save`` of a wrapped ``ResultStore``; every other
    attribute passes through."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.load_ms: List[float] = []
        self.save_ms: List[float] = []

    def load(self, key, settings=None):
        """Timed :meth:`ResultStore.load`."""
        begun = time.perf_counter()
        try:
            return self.inner.load(key, settings=settings)
        finally:
            self.load_ms.append((time.perf_counter() - begun) * 1e3)

    def save(self, key, result, settings=None) -> None:
        """Timed :meth:`ResultStore.save`."""
        begun = time.perf_counter()
        try:
            self.inner.save(key, result, settings=settings)
        finally:
            self.save_ms.append((time.perf_counter() - begun) * 1e3)

    def __getattr__(self, name):
        return getattr(self.inner, name)


# ----------------------------------------------------------------------
# Host block.
# ----------------------------------------------------------------------


def calibration_kernel(n: int = 1_700_000) -> float:
    """Seconds for a fixed pure-Python kernel of ``n`` iterations
    (about 0.3 s on the reference host at the default).

    Integer arithmetic and dict stores, like the simulator's hot loop;
    reports from different hosts are read against it.
    """
    begun = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
        if acc & 7 == 0:
            acc += len(table)
    return time.perf_counter() - begun


#: Iterations of the short kernel interleaved with the measured
#: operations, and the median seconds of one run of it on the
#: reference host (a shared 2-vCPU VM, Python 3.11.7; see
#: bench/README.md).
SPEED_ITERATIONS = 170_000
REFERENCE_SPEED_S = 0.0256


class HostSpeed:
    """Host-speed samples interleaved with the measured operations.

    The shared reference host drifts by tens of percent over minutes,
    more than any bound the benchmark could hold. Each operation is
    therefore bracketed by two runs of a short pure-Python kernel
    (about 25 ms), and its time is rescaled to the reference host by
    ``REFERENCE_SPEED_S / mean(before, after)``. Samples are taken
    while the workload is quiescent, so a slowdown the program causes
    itself is not cancelled. A sample is the fastest of three kernel
    runs: a core coming back from idle runs the first one slowly.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = self.sample()

    def sample(self) -> float:
        """Time the kernel: the fastest of three runs."""
        seconds = min(calibration_kernel(SPEED_ITERATIONS)
                      for _ in range(3))
        self.samples.append(seconds)
        return seconds

    def factor(self) -> float:
        """Sample now; the factor that rescales a time measured since
        the previous sample to the reference host."""
        now = self.sample()
        factor = 2.0 * REFERENCE_SPEED_S / (self._last + now)
        self._last = now
        return factor


def host_block() -> dict:
    """Python version, CPU count, load average and the calibration."""
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": load,
        "calibration_s": calibration_kernel(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
