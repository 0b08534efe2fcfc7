"""Run the benchmark.

    python -m bench --seed N [--workload NAME] [--seconds S]
                    [--trace 0|1] [--out FILE]

Each workload runs an untraced pass, whose numbers are the end-to-end
metrics, and a traced pass over the same work, whose numbers are the
per-layer metrics; the wall-time gap between the two is the tracing
overhead. ``--trace 0`` runs only the untraced pass and ``--trace 1``
gives each pass half of ``--seconds`` and reports only per-layer
metrics. Without ``--workload`` all four workloads run.

The human report goes to stderr. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is 1 when any operation failed (an exception, a
non-``done`` job, an HTTP error or 429, a non-empty ``audit()`` or a
result that differs from ``bench/expected.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from bench import ROOT, SRC
from bench.layers import OTHER, UNATTRIBUTED, repro_root, shares
from bench.measure import (
    Op,
    Outcomes,
    host_block,
    load_pins,
    median,
    peak_rss_mb,
    percentile,
    typical,
)
from bench.workloads import WORKLOADS, Pass

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
DEFAULT_SEED = 1
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Packages of ``src/repro/`` that get a ``<layer>.self_s`` metric.
LAYERS = ("sim", "sm", "workloads", "cache", "mem", "noc", "vm", "driver",
          "core", "compiler", "experiments", "orchestrator", "service")

#: name -> (value, unit, samples behind it, note). ``value`` is None
#: where the workload does not exercise the layer.
Metric = Tuple[Optional[float], str, int, str]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail(values: List[float]) -> Optional[Tuple[str, float]]:
    """The highest of p99/p95/p90/p75 with ten samples beyond it."""
    for q in (99, 95, 90, 75):
        try:
            return f"p{q}", percentile(values, q)
        except ValueError:
            continue
    return None


def _timings(run: Pass, rescale: bool) -> dict:
    """Per-label rates and latencies, rescaled to the reference host
    (``rescale``) or as measured."""
    def ms(op: Op) -> float:
        return op.ms * op.factor if rescale else op.ms

    def by_label(ops: List[Op], value) -> Dict[str, List[float]]:
        grouped: Dict[str, List[float]] = {}
        for op in ops:
            grouped.setdefault(op.label, []).append(value(op))
        return grouped

    def rate(op: Op) -> float:
        return op.cycles / (op.sim_s * (op.factor if rescale else 1.0))

    return {
        "sim_cycles_per_s": by_label(run.sim_ops, rate),
        "sim_op_ms": by_label(run.sim_ops, ms),
        "nosim_op_ms": by_label(run.nosim_ops, ms),
    }


def end_to_end(run: Pass, setup: List[float], rss: float
               ) -> Dict[str, Metric]:
    """The untraced pass's user-visible metrics. Operation times are
    rescaled to the reference host; the ``raw.`` entries (report
    only) are as measured. ``sim_cycles_per_s``, ``sim_op_ms`` and
    ``nosim_op_ms`` are the :func:`~bench.measure.typical` rate or
    time of the workload's operation mix; the tails (report only) pool
    the whole mix. ``setup_s`` runs in fresh interpreters, which the
    parent's host-speed samples do not track, so it is as measured."""
    metrics: Dict[str, Metric] = {
        "setup_s": (median(setup), "s", len(setup), ""),
    }
    n_sim, n_nosim = len(run.sim_ops), len(run.nosim_ops)
    for prefix, rescale in (("", True), ("raw.", False)):
        note = "" if rescale else "report only"
        t = _timings(run, rescale)
        metrics.update({
            f"{prefix}sim_cycles_per_s": (typical(t["sim_cycles_per_s"]),
                                          "cyc/s", n_sim, note),
            f"{prefix}sim_op_ms": (typical(t["sim_op_ms"]), "ms", n_sim,
                                   note),
            f"{prefix}nosim_op_ms": (typical(t["nosim_op_ms"]), "ms",
                                     n_nosim, note),
        })
        if rescale:
            metrics["peak_rss_mb"] = (rss, "MB", 1, "")
        for name in ("sim_op_ms", "nosim_op_ms"):
            pooled = [v for values in t[name].values() for v in values]
            metrics[f"{prefix}{name}_p50"] = (
                median(pooled), "ms", len(pooled), "report only")
            tail = _tail(pooled)
            if tail is not None:
                metrics[f"{prefix}{name}_{tail[0]}"] = (
                    tail[1], "ms", len(pooled), "report only")
    factors = [op.factor for op in run.sim_ops + run.nosim_ops]
    metrics["host.speed_factor"] = (median(factors), "x", len(factors),
                                    "report only; <1 = slower than "
                                    "the reference host")
    return metrics


def per_layer(traced: Pass, untraced: Pass) -> Dict[str, Metric]:
    """The traced pass's per-layer metrics."""
    sampler = traced.sampler
    cpu, samples = sampler.cpu, sampler.samples
    layer_shares = shares(cpu, samples)
    c = traced.counters
    ticks = c.get("component_cycles", 0) - c.get("skipped_ticks", 0)
    points = c.get("points", 0)
    metrics: Dict[str, Metric] = {}
    for layer in LAYERS:
        share, error = layer_shares.get(layer, (0.0, 0.0))
        metrics[f"{layer}.self_s"] = (
            cpu.get(layer, 0.0), "s", samples.get(layer, 0),
            f"share {share:.1%} +- {error:.1%}")
    other = cpu.get(OTHER, 0.0) + cpu.get(UNATTRIBUTED, 0.0)
    metrics.update({
        "sim.ticks": (ticks, "count", points, ""),
        "sim.skipped_frac": (_ratio(c.get("skipped_ticks", 0),
                                    c.get("component_cycles", 0)),
                             "frac", points, ""),
        "sim.host_ns_per_tick": (_ratio(sum(traced.sim_spans), ticks) * 1e9,
                                 "ns", len(traced.sim_spans), ""),
        "sm.instructions": (c.get("instructions", 0), "count", points, ""),
        "sm.stall_cycles": (c.get("stall_cycles", 0), "count", points, ""),
        "cache.l1_hit_rate": (_ratio(c.get("l1_hits", 0), c.get("l1_hits", 0)
                                     + c.get("l1_misses", 0)),
                              "frac", points, ""),
        "cache.llc_accesses": (c.get("llc_accesses", 0), "count", points, ""),
        "cache.llc_hit_rate": (_ratio(c.get("llc_hits", 0),
                                      c.get("llc_accesses", 0)),
                               "frac", points, ""),
        "mem.dram_lines": (c.get("dram_lines", 0), "count", points, ""),
        "mem.row_hit_rate": (_ratio(c.get("row_hits", 0), c.get("row_hits", 0)
                                    + c.get("row_misses", 0)),
                             "frac", points, ""),
        "noc.bytes": (c.get("noc_bytes", 0), "count", points, ""),
        "noc.local_frac": (_ratio(c.get("local", 0), c.get("local", 0)
                                  + c.get("remote", 0)),
                           "frac", points, ""),
        "vm.tlb_hit_rate": (_ratio(c.get("tlb_hits", 0), c.get("tlb_hits", 0)
                                   + c.get("tlb_misses", 0)),
                            "frac", points, ""),
        "vm.walks": (c.get("walks", 0), "count", points, ""),
        "core.mdr_replication_epochs": (c.get("mdr_replication_epochs", 0),
                                        "count", points, ""),
        "host.other_s": (other, "s", samples.get(OTHER, 0),
                         f"{cpu.get(UNATTRIBUTED, 0.0):.3f} s unattributed"),
        "trace.samples": (sum(samples.values()), "count", 1, ""),
        "trace.overhead_frac": (_ratio(traced.wall_s, untraced.wall_s) - 1.0,
                                "frac", 2,
                                f"handler {sampler.handler_s:.3f} s"),
    })
    extras = traced.extras
    save, load = extras.get("store_save_ms"), extras.get("store_load_ms")
    metrics["experiments.store_save_ms_p50"] = (
        median(save) if save else None, "ms", len(save or ()), "")
    metrics["experiments.store_load_ms_p50"] = (
        median(load) if load else None, "ms", len(load or ()), "")
    metrics["experiments.store_ops"] = (
        len(save or ()) + len(load or ()) if save or load else None,
        "count", 1, "")
    for name in ("worker_idle_frac", "retries", "pool_restarts"):
        unit = "frac" if name.endswith("frac") else "count"
        metrics[f"orchestrator.{name}"] = (extras.get(name), unit, 1, "")
    overhead = extras.get("overhead_ms")
    service = "points_executed" in extras
    metrics["service.overhead_ms_p50"] = (
        median(overhead) if overhead else None, "ms", len(overhead or ()),
        "cold latency minus its simulation span")
    metrics["service.sim_s_p50"] = (
        median(traced.sim_spans) if service else None, "s",
        len(traced.sim_spans), "")
    for name in ("points_executed", "points_cached", "jobs_rejected"):
        metrics[f"service.{name}"] = (extras.get(name), "count", 1, "")
    return metrics


def probe_setup(name: str) -> float:
    """One set-up of ``name`` in a fresh interpreter (seconds)."""
    done = subprocess.run(
        [sys.executable, "-m", "bench.probe", name], cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(name: str, seed: int, seconds: float,
                 trace: Optional[int]) -> dict:
    """Warm up, then run the passes ``trace`` asks for."""
    workload = WORKLOADS[name]
    host = host_block()
    outcomes = Outcomes(load_pins())
    work = os.path.join(WORK_ROOT, f"{os.getpid()}-{name}")
    shutil.rmtree(work, ignore_errors=True)
    units = workload.units(seconds / 2 if trace == 1 else seconds)
    try:
        os.makedirs(work)
        if workload.warmup is not None:
            workload.warmup(work, outcomes)
        passes = {}
        for traced in (False, True):
            if traced and trace == 0:
                continue
            pass_dir = os.path.join(work, "traced" if traced else "untraced")
            os.makedirs(pass_dir)
            passes[traced] = workload.run(seed, units, traced, pass_dir,
                                          outcomes)
            if not traced:
                rss = peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {"workload": name, "seed": seed, "units": units, "host": host,
              "attempted": outcomes.attempted, "failed": outcomes.failed,
              "errors": outcomes.errors, "end_to_end": {}, "per_layer": {}}
    if trace != 1:
        setup = [probe_setup(name) for _ in range(SETUP_PROBES)]
        report["end_to_end"] = end_to_end(passes[False], setup, rss)
    if trace != 0:
        report["per_layer"] = per_layer(passes[True], passes[False])
    return report


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------


def _format(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(report: dict, stream=sys.stderr) -> None:
    """One workload's metrics, each with its unit and sample count."""
    host = report["host"]
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"units {report['units']}  (python {host['python']}, nproc "
          f"{host['nproc']}, load {host['loadavg']}, calibration "
          f"{host['calibration_s']:.4f} s)", file=stream)
    for section in ("end_to_end", "per_layer"):
        for metric, (value, unit, count, note) in report[section].items():
            print(f"  {section:<10} {metric:<30} {_format(value):>12} "
                  f"{unit:<6} n={count:<6} {note}", file=stream)
    print(f"  correctness: {report['attempted']} attempted, "
          f"{report['failed']} failed", file=stream)
    for error in report["errors"]:
        print(f"    FAILED {error}", file=stream)


def print_summary(reports: List[dict], stream=sys.stderr) -> None:
    """One row per workload with every end-to-end metric."""
    names = [m for m in reports[0]["end_to_end"]
             if not reports[0]["end_to_end"][m][3]]
    if not names:
        return
    print("\n" + f"{'workload':<15}" + "".join(
        f"{name:>22}" for name in names), file=stream)
    for report in reports:
        cells = []
        for name in names:
            value, unit, count, _ = report["end_to_end"][name]
            cells.append(f"{_format(value)} {unit} ({count})")
        print(f"{report['workload']:<15}" + "".join(
            f"{cell:>22}" for cell in cells), file=stream)


def result_line(reports: List[dict], spec: dict,
                trace: Optional[int]) -> dict:
    """The last stdout line. One workload with ``--trace`` prints
    exactly the metrics BENCHMARK.json lists for that mode."""
    listed = spec.get({0: "end_to_end", 1: "per_layer"}.get(trace))
    metrics = {}
    for report in reports:
        found = {**report["end_to_end"], **report["per_layer"]}
        if listed is not None and len(reports) == 1:
            for entry in listed:
                value = found[entry["name"]][0]
                metrics[entry["name"]] = {"value": value,
                                          "unit": entry["unit"]}
            continue
        for name, (value, unit, _, _) in found.items():
            if value is not None:
                metrics[f"{report['workload']}/{name}"] = {
                    "value": value, "unit": unit}
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the exit status."""
    if not repro_root().startswith(os.path.join(SRC, "")):
        raise SystemExit(f"bench: repro imported from {repro_root()}, "
                         f"not from this checkout's {SRC}")
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the full report as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, args.trace)
        print_report(report)
        reports.append(report)
    print_summary(reports)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(reports, handle, indent=1)
            handle.write("\n")
    line = result_line(reports, spec, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
