"""Sweep orchestrator tests: parity, resume, fault tolerance, catalog.

The pool tests run real (tiny) simulations across worker processes, so
they double as an integration test of pickling the GPU config and
shipping RunResults back.
"""

import dataclasses
import hashlib
import time

import pytest

from repro.config.presets import small_config
from repro.config.topology import Architecture, ReplicationPolicy
from repro.core.system import RunResult
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.experiments.store import ResultStore
from repro.orchestrator import (
    ProgressReporter,
    Sweep,
    SweepOrchestrator,
    figure_sweep,
)
from repro.power.energy import EnergyBreakdown


def tiny_gpu():
    return small_config(num_channels=2, warps_per_sm=4)


def make_runner(tmp_path=None):
    store = ResultStore(tmp_path) if tmp_path is not None else None
    return ExperimentRunner(base_gpu=tiny_gpu(), store=store)


TINY_SWEEP_KEYS = [
    RunKey("KMEANS"),
    RunKey("KMEANS", Architecture.NUBA,
           replication=ReplicationPolicy.MDR),
    RunKey("AN"),
]


def tiny_sweep():
    return Sweep.of("tiny", TINY_SWEEP_KEYS)


def _dummy_result() -> RunResult:
    return RunResult("dummy", 1, 1, 1, 0.0, 0.0, 0.0, 0, 0, 0,
                     EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0), {})


# Pool task overrides must be module-level so workers can unpickle them.

def _slow_task(key: RunKey) -> RunResult:
    if key.benchmark == "AN":
        time.sleep(60)
    return _dummy_result()


def _sluggish_task(key: RunKey) -> RunResult:
    """Slower than the test timeout, but finishes quickly inline."""
    time.sleep(1.5)
    return _dummy_result()


def _crashy_task(key: RunKey) -> RunResult:
    if key.benchmark == "AN":
        raise ValueError("injected fault")
    return _dummy_result()


class TestSweep:
    def test_unique_keys_deduplicate(self):
        sweep = tiny_sweep()
        sweep.add("again", RunKey("KMEANS"))
        assert len(sweep) == 4
        assert len(sweep.unique_keys()) == 3


class TestInlineExecution:
    def test_workers_1_runs_inline(self):
        runner = make_runner()
        orchestrator = SweepOrchestrator(runner, workers=1)
        report = orchestrator.run(tiny_sweep())
        assert report.mode == "inline"
        assert report.ok
        assert report.simulated == 3
        assert runner.simulations_run == 3
        assert set(report.results) == set(TINY_SWEEP_KEYS)

    def test_inline_failure_recorded_after_retries(self):
        runner = make_runner()
        orchestrator = SweepOrchestrator(runner, workers=1, retries=2,
                                         backoff=0.0)
        report = orchestrator.run(
            Sweep.of("bad", [RunKey("NOPE"), RunKey("KMEANS")])
        )
        assert not report.ok
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.key == RunKey("NOPE")
        assert failure.attempts == 3  # 1 try + 2 retries
        assert report.retries == 2
        assert RunKey("KMEANS") in report.results  # sweep not sunk

    def test_duplicate_keys_executed_once(self):
        runner = make_runner()
        orchestrator = SweepOrchestrator(runner, workers=1)
        report = orchestrator.run(tiny_sweep(), tiny_sweep())
        assert report.duplicates == 3
        assert runner.simulations_run == 3


class TestPoolExecution:
    def test_parallel_matches_serial_bitwise(self):
        serial = make_runner()
        expected = {key: serial.run(key) for key in TINY_SWEEP_KEYS}

        runner = make_runner()
        orchestrator = SweepOrchestrator(runner, workers=2)
        report = orchestrator.run(tiny_sweep())
        assert report.ok and report.mode == "pool"
        assert report.simulated == 3
        for key, result in expected.items():
            assert dataclasses.asdict(report.results[key]) == \
                dataclasses.asdict(result)

    def test_results_published_to_runner_cache(self):
        runner = make_runner()
        SweepOrchestrator(runner, workers=2).run(tiny_sweep())
        # The figure path must now hit cache: no new simulations.
        runner.run(TINY_SWEEP_KEYS[0])
        assert runner.simulations_run == 0

    def test_worker_exception_retried_then_recorded(self):
        runner = make_runner()
        orchestrator = SweepOrchestrator(
            runner, workers=2, retries=1, backoff=0.0,
            task_fn=_crashy_task,
        )
        report = orchestrator.run(
            Sweep.of("crash", [RunKey("AN"), RunKey("KMEANS")])
        )
        assert len(report.failures) == 1
        assert report.failures[0].key == RunKey("AN")
        assert report.failures[0].attempts == 2
        assert "injected fault" in report.failures[0].error
        assert RunKey("KMEANS") in report.results

    def test_timeout_restarts_pool_and_records_failure(self):
        runner = make_runner()
        orchestrator = SweepOrchestrator(
            runner, workers=2, timeout=0.5, retries=1, backoff=0.0,
            task_fn=_slow_task,
        )
        report = orchestrator.run(
            Sweep.of("slow", [RunKey("AN"), RunKey("KMEANS")])
        )
        assert len(report.failures) == 1
        assert "timed out" in report.failures[0].error
        assert report.pool_restarts >= 1
        assert RunKey("KMEANS") in report.results

    def test_exhausted_restarts_degrade_to_inline(self):
        # Every point outlives the timeout and the restart budget is
        # zero, so the pool is torn down once and the leftovers must
        # complete inline (where no timeout applies) without tripping
        # over the already-shut-down executor.
        runner = make_runner()
        orchestrator = SweepOrchestrator(
            runner, workers=2, timeout=0.2, retries=3, backoff=0.0,
            max_pool_restarts=0, task_fn=_sluggish_task,
        )
        report = orchestrator.run(
            Sweep.of("sluggish", [RunKey("AN"), RunKey("KMEANS")])
        )
        assert report.ok
        assert report.mode == "pool+inline"
        assert set(report.results) == {RunKey("AN"), RunKey("KMEANS")}


class TestResume:
    def test_preseeded_store_skips_everything(self, tmp_path):
        first = make_runner(tmp_path)
        report = SweepOrchestrator(first, workers=1).run(tiny_sweep())
        assert report.simulated == 3

        resumed = make_runner(tmp_path)
        orchestrator = SweepOrchestrator(resumed, workers=2)
        rerun = orchestrator.run(tiny_sweep())
        assert rerun.cache_hits == 3
        assert rerun.simulated == 0
        assert resumed.simulations_run == 0
        assert set(rerun.results) == set(TINY_SWEEP_KEYS)

    def test_partial_store_runs_only_missing(self, tmp_path):
        first = make_runner(tmp_path)
        first.run(TINY_SWEEP_KEYS[0])

        resumed = make_runner(tmp_path)
        report = SweepOrchestrator(resumed, workers=1).run(tiny_sweep())
        assert report.cache_hits == 1
        assert report.simulated == 2

    def test_different_settings_do_not_share_entries(self, tmp_path):
        # The satellite bug: mdr_epoch/max_cycles change results but
        # were missing from the fingerprint.
        first = ExperimentRunner(base_gpu=tiny_gpu(), mdr_epoch=2000,
                                 store=ResultStore(tmp_path))
        first.run(TINY_SWEEP_KEYS[1])

        other = ExperimentRunner(base_gpu=tiny_gpu(), mdr_epoch=500,
                                 store=ResultStore(tmp_path))
        report = SweepOrchestrator(other, workers=1).run(
            Sweep.of("s", [TINY_SWEEP_KEYS[1]])
        )
        assert report.cache_hits == 0
        assert other.simulations_run == 1


#: Each figure's full point set on the default GPU: sha256 (first 16 hex
#: digits) of its ``label<TAB>repr(key)`` lines, point count and unique
#: keys. Figure 7's labels are the ``ch4/`` pin ids of
#: ``bench/expected.json``, and its order feeds the seeded shuffles of
#: the fig7-sweep and service-mixed benchmarks.
POINT_SETS = {
    "table2": ("e3b0c44298fc1c14", 0, 0),
    "fig3": ("e3b0c44298fc1c14", 0, 0),
    "fig7": ("12e2c02578901392", 116, 116),
    "fig8": ("109022403665824d", 87, 87),
    "fig9": ("109022403665824d", 87, 87),
    "fig10": ("d80617e1ae35f258", 290, 290),
    "fig11": ("ff6eb823cc2ccaaf", 116, 116),
    "fig12": ("7a477052cdbf948f", 39, 39),
    "fig13": ("c20541bc858eecc5", 58, 58),
    "fig14": ("e061ee3140e4bb8f", 870, 696),
    "fig16": ("44b2c477e54e1452", 116, 116),
    "sec76": ("41011fb1614e6122", 116, 116),
}


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_point_set_is_pinned(self, name):
        runner = ExperimentRunner()
        sweep = figure_sweep(name, runner, None)
        text = "\n".join(f"{p.label}\t{p.key!r}" for p in sweep)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (digest, len(sweep), len(sweep.unique_keys())) == (
            POINT_SETS[name])
        assert runner.simulations_run == 0

    @pytest.mark.parametrize("name", sorted(
        name for name, (_, points, _) in POINT_SETS.items() if points))
    def test_sweep_covers_figure_exactly(self, name):
        """After the figure's sweep runs, building the figure must not
        simulate a single extra point."""
        runner = make_runner()
        report = SweepOrchestrator(runner, workers=1).run(
            figure_sweep(name, runner, ["KMEANS"])
        )
        assert report.ok
        simulated = runner.simulations_run
        run_figure(name, runner, ["KMEANS"])
        assert runner.simulations_run == simulated

    def test_empty_sweeps_for_system_figures(self):
        runner = make_runner()
        assert len(figure_sweep("table2", runner, ["KMEANS"])) == 0
        assert len(figure_sweep("fig3", runner, ["KMEANS"])) == 0

    def test_unknown_figure_raises(self):
        runner = make_runner()
        with pytest.raises(KeyError, match="unknown figure"):
            figure_sweep("fig99", runner, None)


class TestProgressReporter:
    def test_counts_and_utilization(self):
        reporter = ProgressReporter(stream=None)
        reporter.start(total=4, workers=2)
        reporter.cache_hit("a")
        reporter.point_done("b", 1.0)
        reporter.point_done("c", 1.0)
        reporter.point_failed("d", "boom")
        assert reporter.done == 4
        assert reporter.executed == 2
        assert reporter.cached == 1
        assert reporter.failed == 1
        assert reporter.seconds_per_point() == pytest.approx(1.0)
        assert 0.0 <= reporter.utilization() <= 1.0
        assert reporter.eta_seconds() == 0.0

    def test_status_line_renders(self):
        reporter = ProgressReporter(stream=None, label="t")
        reporter.start(total=2, workers=1)
        reporter.point_done("a", 0.5)
        line = reporter.status_line()
        assert "1/2" in line and "[t]" in line


class TestProgressMath:
    """Unit coverage for the derived-metric math on its own."""

    def test_seconds_per_point_zero_when_nothing_executed(self):
        reporter = ProgressReporter(stream=None)
        reporter.start(total=3, workers=1)
        reporter.cache_hit("a")  # cached points don't count as executed
        assert reporter.seconds_per_point() == 0.0

    def test_eta_none_before_first_executed_point(self):
        reporter = ProgressReporter(stream=None)
        reporter.start(total=3, workers=1)
        assert reporter.eta_seconds() is None
        reporter.cache_hit("a")
        assert reporter.eta_seconds() is None  # still no rate signal

    def test_eta_zero_once_done(self):
        reporter = ProgressReporter(stream=None)
        reporter.start(total=1, workers=1)
        reporter.point_done("a", 2.0)
        assert reporter.eta_seconds() == 0.0

    def test_eta_scales_with_rate_and_workers(self):
        reporter = ProgressReporter(stream=None)
        reporter.start(total=5, workers=2)
        reporter.point_done("a", 4.0)
        # 4 remaining at 4 s/point over 2 workers = 8 seconds.
        assert reporter.eta_seconds() == pytest.approx(8.0)

    def test_utilization_zero_at_zero_wall(self):
        reporter = ProgressReporter(stream=None)
        reporter.start(total=2, workers=2)
        # No wall-clock has elapsed yet (and nothing executed):
        # utilization must be 0.0, not a ZeroDivisionError.
        assert reporter.utilization() == 0.0

    def test_utilization_bounded_by_one(self):
        reporter = ProgressReporter(stream=None)
        reporter.start(total=4, workers=1)
        time.sleep(0.01)
        reporter.point_done("a", 100.0)  # busy time >> wall time
        assert reporter.utilization() == 1.0

    def test_failed_points_count_toward_done(self):
        reporter = ProgressReporter(stream=None)
        reporter.start(total=2, workers=1)
        reporter.point_failed("a", "boom")
        reporter.point_done("b", 1.0)
        assert reporter.done == 2
        assert reporter.failed == 1
        assert reporter.eta_seconds() == 0.0


class TestProgressEvents:
    """The structured on_event hook the service layer streams from."""

    def collect(self):
        events = []
        reporter = ProgressReporter(stream=None, on_event=events.append)
        return reporter, events

    def test_event_sequence_for_a_sweep(self):
        reporter, events = self.collect()
        reporter.start(total=3, workers=2)
        reporter.cache_hit("a")
        reporter.point_done("b", 1.5)
        reporter.point_failed("c", "boom")
        reporter.finish()
        assert [e["type"] for e in events] == [
            "start", "cache_hit", "point_done", "point_failed", "finish",
        ]

    def test_events_carry_counters_and_metrics(self):
        reporter, events = self.collect()
        reporter.start(total=2, workers=1)
        reporter.point_done("a", 2.0)
        event = events[-1]
        assert event["point"] == "a"
        assert event["elapsed"] == pytest.approx(2.0)
        assert event["done"] == 1 and event["total"] == 2
        assert event["executed"] == 1
        assert event["seconds_per_point"] == pytest.approx(2.0)
        assert event["eta_seconds"] == pytest.approx(2.0)
        assert 0.0 <= event["utilization"] <= 1.0

    def test_retry_and_note_events(self):
        reporter, events = self.collect()
        reporter.start(total=1, workers=1)
        reporter.point_retried("a", "timed out", attempt=2)
        reporter.note("pool rebuilt")
        retried = events[1]
        assert retried["type"] == "point_retried"
        assert retried["reason"] == "timed out"
        assert retried["attempt"] == 2
        assert events[2]["type"] == "note"
        assert events[2]["message"] == "pool rebuilt"

    def test_multiple_listeners_all_fire(self):
        first, second = [], []
        reporter = ProgressReporter(stream=None, on_event=first.append)
        reporter.on_event(second.append)
        reporter.start(total=1, workers=1)
        assert len(first) == len(second) == 1

    def test_broken_listener_does_not_break_progress(self):
        def explode(event):
            raise RuntimeError("listener bug")
        reporter = ProgressReporter(stream=None, on_event=explode)
        reporter.start(total=1, workers=1)
        reporter.point_done("a", 1.0)  # must not raise
        assert reporter.done == 1


class TestCancellation:
    """The orchestrator's cooperative stop event (service cancel path)."""

    def test_inline_stop_between_points(self):
        import threading
        runner = make_runner()
        stop = threading.Event()

        calls = []

        def task(key):
            calls.append(key)
            stop.set()  # request cancellation after the first point
            return _dummy_result()

        orchestrator = SweepOrchestrator(runner, workers=1,
                                         task_fn=task)
        orchestrator.stop = stop
        report = orchestrator.run(tiny_sweep())
        assert report.cancelled
        assert len(calls) == 1
        assert len(report.results) == 1
        assert "CANCELLED" in report.summary()

    def test_pool_stop_kills_workers(self):
        import threading
        runner = make_runner()
        stop = threading.Event()
        orchestrator = SweepOrchestrator(runner, workers=2,
                                         task_fn=_slow_task, stop=stop)
        sweep = Sweep.of("stuck", [RunKey("AN")])  # sleeps 60s in pool

        began = time.monotonic()
        thread = threading.Thread(
            target=lambda: setattr(self, "report", orchestrator.run(sweep))
        )
        thread.start()
        time.sleep(1.0)
        stop.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert time.monotonic() - began < 30
        assert self.report.cancelled
        assert not self.report.results

    def test_unset_stop_changes_nothing(self):
        runner = make_runner()
        orchestrator = SweepOrchestrator(runner, workers=1)
        report = orchestrator.run(tiny_sweep())
        assert not report.cancelled
        assert len(report.results) == len(tiny_sweep())
