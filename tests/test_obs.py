"""Observability layer tests: tracer, timelines, exporters, profiler.

The heavyweight fixtures run one small NUBA workload with the full
instrumentation attached; the assertions then cross-check the trace
against the system's own counters (conservation) and pin down the
exporter formats (Chrome ``trace_event`` schema, CSV round-trip).
The final class asserts the zero-cost-when-disabled contract: identical
results and (benchmark-marked) bounded wall-clock overhead.
"""

import dataclasses
import json
import statistics
import time

import pytest

from repro.config.presets import small_config
from repro.config.topology import Architecture, ReplicationPolicy, TopologySpec
from repro.core.builders import build_system
from repro.obs.export import (
    TRACE_PID,
    chrome_trace_dict,
    load_timeline_csv,
    write_chrome_trace,
)
from repro.obs.profiler import TickProfiler
from repro.obs.timeline import GLOBAL_FIELDS, TimelineCollector
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer
from repro.sim.engine import Component, Simulator
from repro.workloads.suite import get_benchmark


def _nuba_system():
    gpu = small_config(num_channels=4, warps_per_sm=4)
    topo = TopologySpec(architecture=Architecture.NUBA,
                        replication=ReplicationPolicy.MDR, mdr_epoch=500)
    return gpu, build_system(gpu, topo)


@pytest.fixture(scope="module")
def traced():
    """A small NUBA run with tracer and timeline collector attached."""
    gpu, system = _nuba_system()
    tracer = Tracer.attach(system)
    timeline = TimelineCollector.attach(system, interval=500)
    result = system.run_workload(get_benchmark("AN").instantiate(gpu))
    return system, tracer, timeline, result


class TestTracer:
    def test_all_event_categories_emitted(self, traced):
        _, tracer, _, _ = traced
        counts = tracer.category_counts()
        assert {"noc", "llc", "dram", "driver", "mdr",
                "kernel", "sm"} <= set(counts)
        assert all(count > 0 for count in counts.values())

    def test_llc_events_name_hits_and_misses(self, traced):
        system, tracer, _, _ = traced
        events = tracer.by_category("llc")
        assert events
        assert {e.name for e in events} <= {"llc.hit", "llc.miss"}
        hits = sum(1 for e in events if e.name == "llc.hit")
        assert hits <= sum(s.hits for s in system.slices)

    def test_mdr_epochs_traced_one_to_one(self, traced):
        system, tracer, _, _ = traced
        events = tracer.by_category("mdr")
        assert len(events) == len(system.mdr.decisions)
        for event, decision in zip(events, system.mdr.decisions):
            assert event.args["replicate"] == decision.replicate
            assert event.args["bw_norep"] == decision.bw_norep

    def test_page_allocs_traced_one_to_one(self, traced):
        system, tracer, _, _ = traced
        events = tracer.by_category("driver")
        assert len(events) == system.driver.pages_allocated
        # NPB is carried with every allocation and stays in [0, 1].
        assert all(0.0 <= e.args["npb"] <= 1.0 for e in events)

    def test_kernel_span_covers_run(self, traced):
        _, tracer, _, result = traced
        spans = tracer.by_category("kernel")
        assert spans
        assert spans[-1].dur > 0
        assert spans[-1].cycle + spans[-1].dur <= result.cycles

    def test_dram_events_are_spans(self, traced):
        _, tracer, _, _ = traced
        events = tracer.by_category("dram")
        assert events
        assert all(e.dur > 0 for e in events)
        assert all(e.name in ("dram.read", "dram.write") for e in events)

    def test_cycles_within_run(self, traced):
        _, tracer, _, result = traced
        assert all(0 <= e.cycle <= result.cycles for e in tracer.events)

    def test_tracks_are_component_names(self, traced):
        system, tracer, _, _ = traced
        component_names = {c.name for c in system.sim.components}
        named = [t for t in tracer.tracks()
                 if t in component_names]
        assert named, "no track maps back to a simulated component"

    def test_max_events_ceiling_drops(self):
        tracer = Tracer(max_events=10)
        for i in range(25):
            tracer.emit("x", "test", "t", cycle=i)
        assert len(tracer) == 10
        assert tracer.dropped == 15

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.emit("x", "test", "t", cycle=0)
        tracer.emit_page_alloc(0, 0, 0, 1.0)
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_null_tracer_cannot_be_enabled(self):
        assert not NULL_TRACER.enabled
        with pytest.raises(ValueError):
            NULL_TRACER.enabled = True
        assert not NULL_TRACER.enabled


class TestTimelineCollector:
    def test_layout_is_rectangular(self, traced):
        _, _, timeline, _ = traced
        assert list(GLOBAL_FIELDS) == timeline.columns[:len(GLOBAL_FIELDS)]
        assert "p0.link_util" in timeline.columns
        assert all(len(row) == len(timeline.columns)
                   for row in timeline.rows)
        assert len(timeline) > 0

    def test_reply_deltas_sum_to_totals(self, traced):
        """Interval deltas must add up to the run's final counters."""
        _, _, timeline, result = traced
        sampled = sum(timeline.series("replies"))
        assert sampled <= result.loads_completed
        assert sampled >= result.loads_completed * 0.8

    def test_npb_gauge_in_range(self, traced):
        _, _, timeline, _ = traced
        assert all(0.0 <= v <= 1.0 for v in timeline.series("npb"))

    def test_link_util_in_range(self, traced):
        _, _, timeline, _ = traced
        for p in range(timeline.partitions):
            assert all(0.0 <= v <= 1.0
                       for v in timeline.series(f"p{p}.link_util"))

    def test_mdr_windows_detected(self, traced):
        """AN replicates under MDR, so windows must be found."""
        _, _, timeline, _ = traced
        windows = timeline.replication_windows()
        assert windows
        assert all(end >= start for start, end in windows)

    def test_unknown_column_raises(self, traced):
        _, _, timeline, _ = traced
        with pytest.raises(ValueError):
            timeline.series("no_such_column")

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TimelineCollector(object(), interval=0)


class TestCsvRoundTrip:
    def test_round_trip_is_exact(self, traced):
        _, _, timeline, _ = traced
        columns, rows = load_timeline_csv(timeline.to_csv())
        assert columns == timeline.columns
        assert rows == timeline.rows

    def test_write_csv(self, traced, tmp_path):
        _, _, timeline, _ = traced
        path = tmp_path / "timeline.csv"
        timeline.write_csv(str(path))
        columns, rows = load_timeline_csv(path.read_text())
        assert columns == timeline.columns
        assert len(rows) == len(timeline)

    def test_empty_csv_rejected(self):
        with pytest.raises(ValueError):
            load_timeline_csv("")

    def test_ragged_csv_rejected(self):
        with pytest.raises(ValueError):
            load_timeline_csv("a,b\n1,2,3\n")


class TestChromeTrace:
    def test_required_keys_on_every_event(self, traced):
        _, tracer, timeline, _ = traced
        trace = chrome_trace_dict(tracer, timeline)
        events = trace["traceEvents"]
        assert events
        for event in events:
            assert {"ph", "ts", "pid", "name"} <= set(event)
            assert event["ph"] in ("X", "i", "C", "M")
            assert event["pid"] == TRACE_PID

    def test_span_events_carry_duration(self, traced):
        _, tracer, timeline, _ = traced
        events = chrome_trace_dict(tracer, timeline)["traceEvents"]
        assert all(e["dur"] > 0 for e in events if e["ph"] == "X")
        assert any(e["ph"] == "X" for e in events)

    def test_tracks_labelled_via_metadata(self, traced):
        _, tracer, _, _ = traced
        events = chrome_trace_dict(tracer)["traceEvents"]
        labels = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert labels == set(tracer.tracks())

    def test_counter_events_from_timeline(self, traced):
        _, tracer, timeline, _ = traced
        events = chrome_trace_dict(tracer, timeline)["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        assert {"npb", "mdr_replicating"} <= {e["name"] for e in counters}

    def test_written_file_is_valid_json(self, traced, tmp_path):
        _, tracer, timeline, _ = traced
        path = tmp_path / "out.trace.json"
        count = write_chrome_trace(str(path), tracer, timeline)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count
        assert loaded["metadata"]["dropped_events"] == tracer.dropped


class TestTickProfiler:
    class _Busy(Component):
        """Test component with a non-trivial tick."""

        def tick(self, now):
            """Burn a little deterministic work."""
            sum(range(50))

    def test_profile_attributes_time(self):
        sim = Simulator()
        sim.add(self._Busy("busy0"))
        sim.add(self._Busy("busy1"))
        profiler = TickProfiler.attach(sim)
        sim.run(200)
        assert profiler.total_seconds > 0
        assert set(profiler.by_component()) == {"busy0", "busy1"}
        assert set(profiler.by_group()) == {"busy"}
        assert "tick profile" in profiler.report()

    def test_detach_restores_components(self):
        """The profiler wraps each engine record's callables; the
        registry itself is never swapped, and detach restores the
        record's own tick and hook."""
        sim = Simulator()
        busy = sim.add(self._Busy("busy0"))
        slot = busy._slot
        tick = slot.tick
        profiler = TickProfiler.attach(sim)
        assert sim.components == [busy]
        assert slot.tick != tick
        profiler.detach()
        assert slot.tick == tick
        assert slot.on_skipped is None  # _Busy has no skip hook
        profiler.detach()  # idempotent
        assert slot.tick == tick


class TestTickProfilerActivityContract:
    """The profiler wraps the ``tick`` and ``on_skipped`` of each
    component's engine record.  The awake flag and the sleep
    bookkeeping stay on the record, where ingress ``wake()`` calls land
    too, so a profiled run skips exactly the ticks an unprofiled run
    skips."""

    class _Sleeper(Component):
        """Sleeps whenever its inbox drains; accounts quiet cycles both
        ways (per-tick in strict mode, via on_skipped when slept)."""

        def __init__(self, name):
            super().__init__(name)
            self.inbox = []
            self.ticks = 0
            self.processed = 0
            self.quiet_cycles = 0

        def deliver(self, item):
            if not self._slot.awake:
                self.wake()
            self.inbox.append(item)

        def tick(self, now):
            self.ticks += 1
            if self.inbox:
                self.inbox.pop()
                self.processed += 1
                # after draining the last item every future tick is a
                # no-op
                return not self.inbox
            self.quiet_cycles += 1
            return True

        def on_skipped(self, cycles):
            self.quiet_cycles += cycles

    def test_record_wrappers_forward_activity_contract(self):
        sim = Simulator()
        comp = sim.add(self._Sleeper("s"))
        plain = sim.add(TestTickProfiler._Busy("busy0"))
        profiler = TickProfiler.attach(sim)
        proxy, plain_proxy = profiler._proxies
        # on_skipped reaches the component, and the proxy counts the
        # skips for the report
        comp._slot.on_skipped(7)
        assert comp.quiet_cycles == 7
        assert proxy.skipped == 7
        # a component without a hook is counted, and nothing forwards
        plain._slot.on_skipped(3)
        assert plain_proxy.skipped == 3
        # the wrapped tick times the component's tick and passes the
        # verdict through
        assert comp._slot.tick(0) is True
        assert comp.ticks == 1 and proxy.ticks == 1
        profiler.detach()
        assert comp._slot.on_skipped == comp.on_skipped
        assert plain._slot.on_skipped is None

    def test_tracer_binds_to_profiled_components(self):
        _, system = _nuba_system()
        TickProfiler.attach(system.sim)
        tracer = Tracer.attach(system)
        assert all(component.tracer is tracer
                   for component in system.sim.components)

    def _run(self, profiled):
        sim = Simulator()
        comp = sim.add(self._Sleeper("s"))
        profiler = TickProfiler.attach(sim) if profiled else None

        def feeder(cycle):
            # external events land on the component and its record
            if cycle in (100, 300):
                for _ in range(5):
                    comp.deliver(object())

        sim.every(50, feeder)
        sim.run(500)
        return sim, comp, profiler

    def test_profiled_run_skips_exactly_like_unprofiled(self):
        sim_p, comp_p, profiler = self._run(profiled=True)
        sim_u, comp_u, _ = self._run(profiled=False)
        assert comp_p.ticks == comp_u.ticks
        assert comp_p.processed == comp_u.processed == 10
        assert comp_p.quiet_cycles == comp_u.quiet_cycles
        assert sim_p.skipped_ticks == sim_u.skipped_ticks > 0
        # the proxy was told about every elided tick
        [proxy] = profiler._proxies
        assert proxy.skipped == sim_p.skipped_ticks
        assert proxy.ticks == comp_p.ticks
        assert profiler.total_seconds > 0

    def test_profiled_strict_run_is_timed(self):
        sim = Simulator(strict=True)
        comp = sim.add(self._Sleeper("s"))
        profiler = TickProfiler.attach(sim)
        sim.run(50)
        [proxy] = profiler._proxies
        assert comp.ticks == proxy.ticks == 50
        assert proxy.skipped == 0
        assert profiler.total_seconds > 0


class TestDisabledOverhead:
    def test_disabled_tracer_results_identical(self):
        """A disabled tracer must not change simulation results at all."""
        gpu, plain = _nuba_system()
        _, hooked = _nuba_system()
        tracer = Tracer.attach(hooked, enabled=False)

        workload = get_benchmark("AN").instantiate(gpu)
        result_plain = plain.run_workload(workload)
        result_hooked = hooked.run_workload(
            get_benchmark("AN").instantiate(gpu))

        assert len(tracer) == 0
        assert dataclasses.asdict(result_plain) == \
            dataclasses.asdict(result_hooked)
        assert repr(result_plain) == repr(result_hooked)

    @pytest.mark.benchmark
    def test_disabled_tracing_overhead_under_5_percent(self):
        """The docs/TRACING.md guarantee: with tracing disabled, a
        100k-cycle run costs < 5% extra wall-clock vs no tracer attached.

        One system is timed with ``NULL_TRACER`` bound and with a
        disabled ``Tracer`` bound, alternately in short runs, and the
        median over the pairs of each disabled run's time divided by
        its neighbouring ``NULL_TRACER`` run is compared with the bound:
        host speed swings by tens of percent within seconds, and a
        ratio of neighbours cancels the swing while the median ignores
        the pairs a swing split.  (The fastest run of each side, used
        before, let one lucky or unlucky run decide.)  Two separately
        built systems would not do: identical builds differ by far more
        than 5% in idle-tick speed.  Strict mode keeps every component
        ticking so the per-tick guard cost is what's measured (the
        quiescence engine would otherwise fast-forward the idle system
        and leave nothing to time)."""
        _, system = _nuba_system()
        system.sim.strict = True
        disabled = Tracer(enabled=False)
        cycles, repeats = 2_000, 50  # 100k cycles per side

        def timed(tracer):
            tracer.bind(system)
            start = time.perf_counter()
            system.sim.run(cycles)
            return time.perf_counter() - start

        times = {NULL_TRACER: [], disabled: []}
        null_clock = NULL_TRACER.clock
        try:
            for i in range(repeats):
                order = (NULL_TRACER, disabled) if i % 2 else (
                    disabled, NULL_TRACER)
                for tracer in order:
                    times[tracer].append(timed(tracer))
        finally:
            NULL_TRACER.clock = null_clock  # bind() pointed it at system
        ratio = statistics.median(
            slow / fast
            for slow, fast in zip(times[disabled], times[NULL_TRACER]))
        assert ratio <= 1.05, f"disabled tracing overhead {ratio - 1:.1%}"


class TestRunObserver:
    @pytest.fixture()
    def observed(self, tmp_path):
        from repro.experiments.runner import ExperimentRunner, RunKey
        from repro.obs.observer import RunObserver

        observer = RunObserver(trace_dir=str(tmp_path),
                               timeline_dir=str(tmp_path), interval=500)
        runner = ExperimentRunner(
            base_gpu=small_config(num_channels=4, warps_per_sm=4),
            observer=observer,
        )
        key = RunKey(benchmark="AN", architecture=Architecture.NUBA,
                     replication=ReplicationPolicy.MDR)
        runner.run(key)
        return runner, observer, key

    def test_artifacts_written_per_simulated_point(self, observed):
        _, observer, _ = observed
        assert len(observer.artifacts) == 1
        (trace_path, timeline_path), = observer.artifacts.values()
        loaded = json.loads(open(trace_path).read())
        assert loaded["traceEvents"]
        columns, rows = load_timeline_csv(open(timeline_path).read())
        assert rows and "npb" in columns
        assert observer.summary()

    def test_cached_points_not_reobserved(self, observed):
        runner, observer, key = observed
        runner.run(key)  # in-memory cache hit
        assert runner.simulations_run == 1
        assert len(observer.artifacts) == 1


class TestTimelineChart:
    def test_chart_renders_obs_collector(self, traced):
        from repro.analysis.timeline import timeline_chart
        _, _, timeline, _ = traced
        chart = timeline_chart(timeline)
        assert "page balance" in chart
        assert "MDR replicate" in chart
        assert "p0 link util" in chart

    def test_chart_handles_empty_timeline(self):
        from repro.analysis.timeline import TimelineRecorder, timeline_chart
        recorder = TimelineRecorder.__new__(TimelineRecorder)
        recorder.samples = []
        assert timeline_chart(recorder) == "timeline: no samples"
