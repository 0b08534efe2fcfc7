"""The paper's tables and figures, each defined once.

A :class:`Figure` lists the labelled (benchmark x configuration) points
it needs and a build step that reads their results by label and returns
the table, the summary and the figure's *claims*: the paper's shapes as
named booleans computed from the same numbers (stored on the result,
never rendered). :data:`FIGURES` registers every entry by name;
:func:`run_figure` runs one through an
:class:`~repro.experiments.runner.ExperimentRunner`, and
:func:`~repro.orchestrator.catalog.figure_sweep` hands the same points
to the sweep orchestrator. EXPERIMENTS.md records the paper-vs-measured
comparison for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.analysis.charts import bar_chart
from repro.analysis.report import format_table
from repro.analysis.sharing import SHARING_BUCKETS, sharing_profile
from repro.config.gpu import GPUConfig
from repro.config.topology import (
    AddressMapKind,
    Architecture,
    PagePolicy,
    ReplicationPolicy,
)
from repro.core.system import RunResult
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.sim.stats import harmonic_mean, percent_improvement
from repro.workloads.suite import BENCHMARKS, HIGH_SHARING, LOW_SHARING

#: A labelled point: ``("<bench>/<variant>", key)``.
Point = Tuple[str, RunKey]
#: Point label -> its result.
Results = Mapping[str, RunResult]


def uba_key(bench: str) -> RunKey:
    """The memory-side UBA baseline point for a benchmark."""
    return RunKey(bench, Architecture.MEM_SIDE_UBA)


def sm_uba_key(bench: str) -> RunKey:
    """The SM-side UBA point for a benchmark."""
    return RunKey(bench, Architecture.SM_SIDE_UBA)


def nuba_norep_key(bench: str) -> RunKey:
    """The NUBA-No-Rep (LAB only) point for a benchmark."""
    return RunKey(bench, Architecture.NUBA,
                  replication=ReplicationPolicy.NONE)


def nuba_key(bench: str) -> RunKey:
    """The full NUBA (LAB + MDR) point for a benchmark."""
    return RunKey(bench, Architecture.NUBA,
                  replication=ReplicationPolicy.MDR)


def _norep_with(policy: PagePolicy) -> Callable[[str], RunKey]:
    """NUBA-No-Rep with another page policy."""
    return lambda bench: RunKey(bench, Architecture.NUBA,
                                replication=ReplicationPolicy.NONE,
                                page_policy=policy)


def _per_bench(benches: Sequence[str],
               variants: Mapping[str, Callable[[str], RunKey]]
               ) -> List[Point]:
    """Every variant of each benchmark, labelled ``<bench>/<variant>``."""
    return [(f"{bench}/{tag}", make(bench))
            for bench in benches for tag, make in variants.items()]


def _sharing(benches: Iterable[str], group: str) -> List[str]:
    return [b for b in benches if BENCHMARKS[b].sharing == group]


@dataclass
class FigureResult:
    """Raw series plus a rendered table for one figure."""

    figure: str
    headers: List[str]
    rows: List[List[object]]
    summary: Dict[str, float] = field(default_factory=dict)
    #: Optional bar-chart series: label -> value (rendered under the
    #: table, visually mirroring the paper's figure).
    chart: Dict[str, float] = field(default_factory=dict)
    chart_reference: Optional[float] = None
    #: The paper's shapes as named booleans, computed from the same
    #: numbers as the table. A claim over some benchmarks (a sharing
    #: group, Figure 12's named ones) checks only those in the run; one
    #: over a group's mean is left out when the run has none of the
    #: group. Never rendered.
    claims: Dict[str, bool] = field(default_factory=dict)

    def render(self) -> str:
        """Render the table, optional chart and summary as text."""
        lines = [f"== {self.figure} =="]
        lines.append(format_table(self.headers, self.rows))
        if self.chart:
            lines.append("")
            lines.append(bar_chart(
                self.chart, reference=self.chart_reference, unit="x",
            ))
        if self.summary:
            lines.append("")
            for name, value in self.summary.items():
                if isinstance(value, float):
                    lines.append(f"{name}: {value:.3f}")
                else:
                    lines.append(f"{name}: {value}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Figure:
    """One table or figure of the paper.

    ``points(gpu, benches)`` lists the labelled RunKeys it needs, in
    sweep order; ``build(results, benches)`` reads their results by
    label. Table 2 and Figure 3 read no stored results: their
    ``points`` is None and their ``build`` takes the runner instead.
    """

    build: Callable[..., FigureResult]
    points: Optional[Callable[[GPUConfig, List[str]], List[Point]]] = None
    #: The benchmarks it runs when no subset is given.
    benchmarks: Tuple[str, ...] = tuple(BENCHMARKS)

    def select(self, subset: Optional[Sequence[str]]) -> List[str]:
        """The benchmarks of a run: ``subset``, or the default set."""
        return list(self.benchmarks if subset is None else subset)


# ----------------------------------------------------------------------
# Table 2 / Figure 3
# ----------------------------------------------------------------------

def table2_catalogue() -> FigureResult:
    """Table 2: the benchmark suite with footprints and sharing class."""
    rows = []
    for abbr, bench in BENCHMARKS.items():
        rows.append([
            bench.name, abbr, bench.sharing,
            f"{bench.footprint_mb:g} MB", f"{bench.ro_shared_mb:g} MB",
            bench.total_pages,
        ])
    return FigureResult(
        figure="Table 2: GPU-compute benchmarks",
        headers=["Benchmark", "Abbr", "Sharing", "Paper footprint",
                 "Paper RO-shared", "Scaled pages"],
        rows=rows,
        summary={
            "low_sharing": len(LOW_SHARING),
            "high_sharing": len(HIGH_SHARING),
        },
    )


def _fig3(runner: ExperimentRunner, benches: List[str]) -> FigureResult:
    """Figure 3: memory-page sharing degree per benchmark."""
    rows = []
    mismatches = 0
    single_sm = {}
    for bench in benches:
        system, _ = runner.run_system(uba_key(bench))
        profile = sharing_profile(
            bench, system.sharing_histogram(), system.gpu.num_sms
        )
        expected = BENCHMARKS[bench].sharing
        measured = profile.classify()
        if measured != expected:
            mismatches += 1
        single_sm[bench] = profile.unshared_fraction * 100
        rows.append(profile.row() + [expected, measured])
    return FigureResult(
        figure="Figure 3: page sharing degree",
        headers=["bench"] + SHARING_BUCKETS + ["expected", "measured"],
        rows=rows,
        summary={"classification_mismatches": mismatches},
        claims={
            "sharing_class_matches_table2": mismatches <= 1,
            "low_sharing_pages_mostly_single_sm": all(
                single_sm[b] > 70.0 for b in _sharing(benches, "low")
            ),
        },
    )


# ----------------------------------------------------------------------
# Figures 7-9: iso-resource performance, bandwidth, miss breakdown
# ----------------------------------------------------------------------

#: Figure 7's machines, in sweep order. Its labels are the ``ch4/``
#: pin ids of ``bench/expected.json``.
FIG7_VARIANTS = {
    "uba": uba_key,
    "sm-uba": sm_uba_key,
    "nuba-norep": nuba_norep_key,
    "nuba": nuba_key,
}

#: Figures 8 and 9 read three of Figure 7's machines (Figure 13 two).
_ISO_VARIANTS = {"uba": uba_key, "nuba-norep": nuba_norep_key,
                 "nuba": nuba_key}


def _fig7(results: Results, benches: List[str]) -> FigureResult:
    """Figure 7: NUBA / NUBA-No-Rep speedups over memory-side UBA."""
    rows = []
    speedups = {"sm-uba": {}, "nuba-norep": {}, "nuba": {}}
    for bench in benches:
        base = results[f"{bench}/uba"]
        row = [bench, base.cycles]
        for tag, series in speedups.items():
            series[bench] = results[f"{bench}/{tag}"].speedup_over(base)
            row.append(f"{series[bench]:.3f}x")
        rows.append(row)

    summary = {}
    claims = {}
    for group, names in [("low", LOW_SHARING), ("high", HIGH_SHARING),
                         ("all", list(BENCHMARKS))]:
        subset = [b for b in names if b in speedups["nuba"]]
        if not subset:
            continue
        nuba, norep = (
            percent_improvement([speedups[tag][b] for b in subset])
            for tag in ("nuba", "nuba-norep")
        )
        summary[f"nuba_improvement_{group}_pct"] = nuba
        summary[f"nuba_norep_improvement_{group}_pct"] = norep
        if group == "low":
            claims["norep_gains_on_low_sharing"] = norep > 0.0
        elif group == "high":
            claims["mdr_lifts_high_sharing"] = nuba > norep
        else:
            claims["nuba_beats_uba_overall"] = nuba > 5.0
    if speedups["sm-uba"]:
        sm = summary["sm_side_improvement_all_pct"] = percent_improvement(
            speedups["sm-uba"].values())
        # The paper reports +1.0%: SM-side UBA must not dominate either way.
        claims["sm_side_uba_close_to_mem_side"] = abs(sm) < 25.0
    return FigureResult(
        "Figure 7: performance vs memory-side UBA",
        ["bench", "UBA cycles", "SM-side UBA", "NUBA-No-Rep", "NUBA"],
        rows, summary,
        chart=dict(speedups["nuba"]),
        chart_reference=1.0,
        claims=claims,
    )


def _iso_results(results: Results, bench: str) -> List[RunResult]:
    return [results[f"{bench}/{tag}"] for tag in _ISO_VARIANTS]


def _fig8(results: Results, benches: List[str]) -> FigureResult:
    """Figure 8: perceived memory bandwidth (replies/cycle)."""
    rows = []
    ratios = {}
    for bench in benches:
        base, norep, full = _iso_results(results, bench)
        rows.append([bench] + [
            f"{r.replies_per_cycle:.3f}" for r in (base, norep, full)
        ])
        if base.replies_per_cycle > 0:
            ratios[bench] = full.replies_per_cycle / base.replies_per_cycle
    summary = {}
    claims = {}
    if ratios:
        gain = summary["nuba_bandwidth_improvement_pct"] = percent_improvement(
            ratios.values())
        claims["nuba_delivers_more_bandwidth"] = gain > 0.0
    return FigureResult(
        "Figure 8: perceived bandwidth (replies/cycle)",
        ["bench", "UBA", "NUBA-No-Rep", "NUBA"], rows, summary,
        claims=claims,
    )


def _fig9(results: Results, benches: List[str]) -> FigureResult:
    """Figure 9: local vs remote breakdown of L1 misses."""
    rows = []
    local_fracs = []
    for bench in benches:
        base, norep, full = _iso_results(results, bench)
        rows.append([bench] + [
            f"{r.local_fraction * 100:.1f}%" for r in (base, norep, full)
        ])
        local_fracs.append(full.local_fraction)
    summary = {}
    claims = {
        # UBA is remote by construction.
        "uba_misses_all_remote": all(
            results[f"{b}/uba"].local_fraction == 0.0 for b in benches),
        "low_sharing_local_under_nuba": all(
            results[f"{b}/nuba"].local_fraction * 100 > 50.0
            for b in _sharing(benches, "low")),
    }
    if local_fracs:
        mean = summary["nuba_mean_local_pct"] = (
            100 * sum(local_fracs) / len(local_fracs)
        )
        claims["nuba_mostly_local"] = mean > 40.0
    return FigureResult(
        "Figure 9: L1 misses served locally",
        ["bench", "UBA local", "NUBA-No-Rep local", "NUBA local"],
        rows, summary, claims=claims,
    )


# ----------------------------------------------------------------------
# Figure 10: performance vs NoC power
# ----------------------------------------------------------------------

#: Figure 10's NoC bandwidths at paper scale (0.5x, 1x and 4x of the
#: 1.4 TB/s iso NoC); each scales with the simulated GPU's NoC.
NOC_POINTS = (700.0, 1400.0, 5600.0)
#: Figure 10's machines: (row label, point label, architecture,
#: replication).
_FIG10_ARCHS = (
    ("UBA", "uba", Architecture.MEM_SIDE_UBA, ReplicationPolicy.NONE),
    ("SM-UBA", "sm-uba", Architecture.SM_SIDE_UBA, ReplicationPolicy.NONE),
    ("NUBA", "nuba", Architecture.NUBA, ReplicationPolicy.MDR),
)


def _fig10_points(gpu: GPUConfig, benches: List[str]) -> List[Point]:
    scale = gpu.noc.total_bandwidth_gbps / 1400.0
    points = [(f"{bench}/uba-iso", uba_key(bench)) for bench in benches]
    for _, label, arch, rep in _FIG10_ARCHS:
        for point in NOC_POINTS:
            points += [
                (f"{bench}/{label}@{point:.0f}",
                 RunKey(bench, arch, replication=rep,
                        noc_gbps=point * scale))
                for bench in benches
            ]
    return points


def _fig10(results: Results, benches: List[str]) -> FigureResult:
    """Figure 10: performance and NoC power across NoC bandwidths.

    The baseline small configuration scales 1.4 TB/s to 350 GB/s, so the
    sweep keeps the paper's *ratios*: 0.5x, 1x and 4x of the iso NoC.
    """
    rows = []
    perf = {}
    power = {}
    for row_label, label, _, _ in _FIG10_ARCHS:
        for point in NOC_POINTS:
            speedups = []
            noc_power = 0.0
            for bench in benches:
                result = results[f"{bench}/{label}@{point:.0f}"]
                base = results[f"{bench}/uba-iso"]
                speedups.append(result.speedup_over(base))
                noc_power += result.energy.noc / max(1, result.cycles)
            noc_power /= len(benches)
            perf[label, point] = harmonic_mean(speedups)
            power[label, point] = noc_power
            rows.append([
                row_label, f"{point:.0f} GB/s (paper-scale)",
                f"{perf[label, point]:.3f}x", f"{noc_power:.3f}",
            ])
    small, iso, big = NOC_POINTS
    if power["uba", iso]:
        for row in rows:
            # The saving divides by the printed (rounded) power.
            row.append(f"{power['uba', iso] / float(row[3]):.2f}x")
    return FigureResult(
        "Figure 10: performance vs NoC power",
        ["arch", "NoC bandwidth", "perf vs iso-UBA", "NoC power",
         "power saving vs iso-UBA"],
        rows,
        claims={
            # The paper reports parity with the 4x-NoC UBA; the scaled
            # UBA keeps gaining from NoC bandwidth slightly longer.
            "half_noc_nuba_near_iso_uba":
                perf["nuba", small] >= perf["uba", iso] * 0.80,
            "half_noc_nuba_saves_noc_power":
                power["uba", big] > 4.0 * power["nuba", small],
            "uba_more_noc_sensitive_than_nuba":
                perf["uba", big] / perf["uba", small]
                > perf["nuba", big] / perf["nuba", small],
        },
    )


# ----------------------------------------------------------------------
# Figure 11 / 12: LAB and MDR component studies
# ----------------------------------------------------------------------

_FIG11_POLICIES = {
    "ft": PagePolicy.FIRST_TOUCH,
    "rr": PagePolicy.ROUND_ROBIN,
    "lab": PagePolicy.LAB,
}


def _fig11_points(gpu: GPUConfig, benches: List[str]) -> List[Point]:
    variants = {"uba": uba_key}
    variants.update((tag, _norep_with(policy))
                    for tag, policy in _FIG11_POLICIES.items())
    return _per_bench(benches, variants)


def _fig11(results: Results, benches: List[str]) -> FigureResult:
    """Figure 11: first-touch vs round-robin vs LAB on NUBA-No-Rep."""
    rows = []
    speedups = {tag: {} for tag in _FIG11_POLICIES}
    for bench in benches:
        base = results[f"{bench}/uba"]
        for tag, series in speedups.items():
            series[bench] = results[f"{bench}/{tag}"].speedup_over(base)
        rows.append([bench] + [
            f"{series[bench]:.3f}x" for series in speedups.values()
        ])
    ft, rr, lab = speedups["ft"], speedups["rr"], speedups["lab"]
    summary = {f"{tag}_improvement_pct": percent_improvement(series.values())
               for tag, series in speedups.items()}
    summary["lab_vs_first_touch_pct"] = percent_improvement(
        [lab[b] / ft[b] for b in benches])
    summary["lab_vs_round_robin_pct"] = percent_improvement(
        [lab[b] / rr[b] for b in benches])
    return FigureResult(
        "Figure 11: page allocation on NUBA",
        ["bench", "first-touch", "round-robin", "LAB"], rows, summary,
        claims={
            "lab_beats_first_touch": summary["lab_vs_first_touch_pct"] > 0.0,
            "lab_competitive_with_round_robin":
                summary["lab_vs_round_robin_pct"] > -10.0,
            "lab_holds_first_touch_on_high_sharing": all(
                lab[b] >= ft[b] * 0.95 for b in _sharing(benches, "high")
            ),
        },
    )


#: Benchmarks whose read-only sets are small enough to replicate.
REPLICATION_WINNERS = ("2MM", "AN")
#: Benchmarks whose read-only sets thrash the LLC when replicated.
REPLICATION_LOSERS = ("BT", "BICG")


def _fig12_points(gpu: GPUConfig, benches: List[str]) -> List[Point]:
    return _per_bench(benches, {
        "nuba-norep": nuba_norep_key,
        "full-rep": lambda bench: RunKey(
            bench, Architecture.NUBA, replication=ReplicationPolicy.FULL),
        "mdr": nuba_key,
    })


def _fig12(results: Results, benches: List[str]) -> FigureResult:
    """Figure 12: no-replication vs full replication vs MDR (LAB)."""
    rows = []
    full = {}
    mdr = {}
    for bench in benches:
        norep = results[f"{bench}/nuba-norep"]
        full_rep = results[f"{bench}/full-rep"]
        full[bench] = full_rep.speedup_over(norep)
        mdr[bench] = results[f"{bench}/mdr"].speedup_over(norep)
        rows.append([
            bench,
            f"{full[bench]:.3f}x",
            f"{mdr[bench]:.3f}x",
            f"{norep.llc_hit_rate:.2f}",
            f"{full_rep.llc_hit_rate:.2f}",
        ])
    summary = {
        "mdr_vs_norep_pct": percent_improvement(mdr.values()),
        "full_vs_norep_pct": percent_improvement(full.values()),
        "mdr_never_much_worse_than_norep": all(
            s >= 0.93 for s in mdr.values()
        ),
    }
    winners = [b for b in REPLICATION_WINNERS if b in full]
    losers = [b for b in REPLICATION_LOSERS if b in full]
    return FigureResult(
        "Figure 12: data replication on NUBA (vs No-Rep)",
        ["bench", "Full-Rep", "MDR", "LLC hit (No-Rep)",
         "LLC hit (Full-Rep)"],
        rows, summary,
        chart=dict(mdr),
        chart_reference=1.0,
        claims={
            "full_rep_helps_small_ro_sets": all(
                full[b] > 1.15 for b in winners),
            "full_rep_hurts_large_ro_sets": all(
                full[b] < 1.0 for b in losers),
            "mdr_follows_full_rep_where_it_helps": all(
                mdr[b] > 1.10 for b in winners),
            "mdr_protects_where_full_rep_hurts": all(
                mdr[b] > full[b] for b in losers),
            "mdr_gains_on_average": summary["mdr_vs_norep_pct"] > 0.0,
            "mdr_never_much_worse_than_norep":
                summary["mdr_never_much_worse_than_norep"],
        },
    )


# ----------------------------------------------------------------------
# Figure 13: energy
# ----------------------------------------------------------------------

def _fig13(results: Results, benches: List[str]) -> FigureResult:
    """Figure 13: normalised GPU energy, NoC vs rest."""
    rows = []
    noc_savings = []
    total_savings = []
    for bench in benches:
        base = results[f"{bench}/uba"]
        nuba = results[f"{bench}/nuba"]
        norm = nuba.energy.normalized_to(base.energy)
        base_norm = base.energy.normalized_to(base.energy)
        rows.append([
            bench,
            f"{base_norm['noc']:.3f}", f"{base_norm['rest']:.3f}",
            f"{norm['noc']:.3f}", f"{norm['rest']:.3f}",
            f"{norm['total']:.3f}",
        ])
        if base.energy.noc > 0:
            noc_savings.append(1 - nuba.energy.noc / base.energy.noc)
        total_savings.append(1 - norm["total"])
    noc = 100 * sum(noc_savings) / max(1, len(noc_savings))
    total = 100 * sum(total_savings) / max(1, len(total_savings))
    return FigureResult(
        "Figure 13: normalised energy (UBA=1.0)",
        ["bench", "UBA NoC", "UBA rest", "NUBA NoC", "NUBA rest",
         "NUBA total"],
        rows,
        {"mean_noc_energy_saving_pct": noc,
         "mean_total_energy_saving_pct": total},
        claims={
            "nuba_saves_noc_energy": noc > 20.0,
            "nuba_saves_total_energy": total > 0.0,
            "total_saving_below_noc_saving": total < noc,
        },
    )


# ----------------------------------------------------------------------
# Figure 14: sensitivity analyses
# ----------------------------------------------------------------------

#: Figure 14's NUBA-vs-UBA pairs: (axis, value, point tag, NUBA RunKey
#: kwargs, UBA RunKey kwargs). The paper's 2 MB huge pages are 512x the
#: 4 KB base; at the scaled footprints the equivalent sharing-degree
#: shift comes from 4x pages.
_FIG14_PAIRS = (
    [("GPU size", f"{f:g}x", f"size{f:g}", {"size_factor": f},
      {"size_factor": f}) for f in (0.5, 1.0, 2.0)]
    + [("LLC slices/partition", str(spc), f"spc{spc}",
        {"slices_per_channel": spc}, {"slices_per_channel": spc})
       for spc in (1, 2, 4)]
    + [("LLC capacity", f"{f:g}x", f"llc{f:g}",
        {"llc_capacity_factor": f}, {"llc_capacity_factor": f})
       for f in (0.5, 1.0, 2.0)]
    + [("page size", label, f"page{size}", {"page_bytes": size},
        {"page_bytes": size})
       for size, label in [(4096, "4 KB"), (16384, "16 KB (scaled 2MB)")]]
    + [("UBA address map", "PAE", "pae", {},
        {"address_map": AddressMapKind.PAE})]
)
#: Figure 14's LAB thresholds, each on NUBA-No-Rep against plain UBA.
LAB_THRESHOLDS = (0.8, 0.9, 0.95)


def _fig14_points(gpu: GPUConfig, benches: List[str]) -> List[Point]:
    points = []
    for _, _, tag, nuba_kwargs, uba_kwargs in _FIG14_PAIRS:
        for bench in benches:
            points.append((f"{bench}/nuba:{tag}", RunKey(
                bench, Architecture.NUBA,
                replication=ReplicationPolicy.MDR, **nuba_kwargs)))
            points.append((f"{bench}/uba:{tag}", RunKey(
                bench, Architecture.MEM_SIDE_UBA, **uba_kwargs)))
    for threshold in LAB_THRESHOLDS:
        for bench in benches:
            points.append((f"{bench}/lab{threshold:g}", RunKey(
                bench, Architecture.NUBA,
                replication=ReplicationPolicy.NONE,
                lab_threshold=threshold)))
            points.append((f"{bench}/uba", uba_key(bench)))
    return points


def _fig14(results: Results, benches: List[str]) -> FigureResult:
    """Figure 14: NUBA improvement across the design space."""
    rows = []
    gains: Dict[str, List[float]] = {}
    pairs = [(axis, value, f"nuba:{tag}", f"uba:{tag}")
             for axis, value, tag, _, _ in _FIG14_PAIRS]
    pairs += [("LAB threshold", f"{t:g}", f"lab{t:g}", "uba")
              for t in LAB_THRESHOLDS]
    for axis, value, nuba, uba in pairs:
        gain = percent_improvement([
            results[f"{b}/{nuba}"].speedup_over(results[f"{b}/{uba}"])
            for b in benches
        ])
        gains.setdefault(axis, []).append(gain)
        rows.append([axis, value, f"{gain:.1f}%"])
    capacity = gains["LLC capacity"]
    slices = gains["LLC slices/partition"]
    thresholds = gains["LAB threshold"]
    return FigureResult(
        "Figure 14: sensitivity analyses (NUBA improvement over UBA)",
        ["axis", "value", "improvement"], rows,
        claims={
            "nuba_helps_across_design_space": all(
                g > -5.0 for axis in ("GPU size", "LLC slices/partition",
                                      "LLC capacity", "page size")
                for g in gains[axis]),
            "llc_capacity_raises_gain": capacity[-1] > capacity[0],
            "slices_raise_gain": slices[-1] > slices[0] - 3.0,
            # The paper reports 14.5% / 14.8% / 13.1%.
            "lab_threshold_is_mild": max(thresholds) - min(thresholds)
            < 25.0,
        },
    )


# ----------------------------------------------------------------------
# Figure 16 / Section 7.6: MCM and allocation alternatives
# ----------------------------------------------------------------------

#: Figure 16's MCM splits the 2x-size GPU into four modules.
MCM_MODULES = 4


def _fig16_points(gpu: GPUConfig, benches: List[str]) -> List[Point]:
    link_gbps = 720.0 * gpu.memory.total_bandwidth_gbps / 720.0 / 4
    mcm = {"size_factor": 2.0, "mcm_modules": MCM_MODULES,
           "mcm_link_gbps": link_gbps}
    mdr = ReplicationPolicy.MDR
    return _per_bench(benches, {
        "mono-uba": lambda b: RunKey(b, Architecture.MEM_SIDE_UBA,
                                     size_factor=2.0),
        "mono-nuba": lambda b: RunKey(b, Architecture.NUBA,
                                      replication=mdr, size_factor=2.0),
        "mcm-uba": lambda b: RunKey(b, Architecture.MEM_SIDE_UBA, **mcm),
        "mcm-nuba": lambda b: RunKey(b, Architecture.NUBA,
                                     replication=mdr, **mcm),
    })


def _fig16(results: Results, benches: List[str]) -> FigureResult:
    """Figure 16: NUBA on an MCM GPU vs a monolithic GPU.

    Both systems are 2x the base size; the MCM splits it into four
    modules with scarce inter-module links.
    """
    rows = []
    mono_speedups = []
    mcm_speedups = []
    for bench in benches:
        mono = results[f"{bench}/mono-nuba"].speedup_over(
            results[f"{bench}/mono-uba"])
        mcm = results[f"{bench}/mcm-nuba"].speedup_over(
            results[f"{bench}/mcm-uba"])
        mono_speedups.append(mono)
        mcm_speedups.append(mcm)
        rows.append([bench, f"{mono:.3f}x", f"{mcm:.3f}x"])
    mono = percent_improvement(mono_speedups)
    mcm = percent_improvement(mcm_speedups)
    return FigureResult(
        "Figure 16: NUBA on MCM vs monolithic (2x size)",
        ["bench", "monolithic NUBA/UBA", "MCM NUBA/UBA"], rows,
        {"monolithic_improvement_pct": mono, "mcm_improvement_pct": mcm},
        claims={
            "nuba_helps_monolithic": mono > 0.0,
            "nuba_helps_mcm": mcm > 0.0,
            "mcm_gains_at_least_monolithic": mcm >= mono - 3.0,
        },
    )


_SEC76_VARIANTS = {
    "uba": uba_key,
    "lab": nuba_norep_key,
    "migration": _norep_with(PagePolicy.MIGRATION),
    "page-rep": _norep_with(PagePolicy.PAGE_REPLICATION),
}


def _sec76(results: Results, benches: List[str]) -> FigureResult:
    """Section 7.6: page migration and page replication vs LAB."""
    rows = []
    speedups = {tag: {} for tag in ("lab", "migration", "page-rep")}
    for bench in benches:
        base = results[f"{bench}/uba"]
        for tag, series in speedups.items():
            series[bench] = results[f"{bench}/{tag}"].speedup_over(base)
        rows.append([bench] + [
            f"{series[bench]:.3f}x" for series in speedups.values()
        ])
    claims = {}
    high = _sharing(benches, "high")
    if high:
        lab, migration, page_rep = (
            harmonic_mean([series[b] for b in high])
            for series in speedups.values()
        )
        claims["lab_beats_migration_on_high_sharing"] = (
            lab >= migration - 0.02)
        claims["lab_beats_page_replication_on_high_sharing"] = (
            lab >= page_rep - 0.02)
    return FigureResult(
        "Section 7.6: allocation alternatives (speedup over UBA)",
        ["bench", "LAB", "page migration", "page replication"], rows,
        claims=claims,
    )


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

#: Every table and figure of the paper, by name.
FIGURES: Dict[str, Figure] = {
    "table2": Figure(lambda runner, benches: table2_catalogue()),
    "fig3": Figure(_fig3),
    "fig7": Figure(_fig7, lambda gpu, benches: _per_bench(
        benches, FIG7_VARIANTS)),
    "fig8": Figure(_fig8, lambda gpu, benches: _per_bench(
        benches, _ISO_VARIANTS)),
    "fig9": Figure(_fig9, lambda gpu, benches: _per_bench(
        benches, _ISO_VARIANTS)),
    "fig10": Figure(_fig10, _fig10_points),
    "fig11": Figure(_fig11, _fig11_points),
    "fig12": Figure(_fig12, _fig12_points,
                    benchmarks=tuple(HIGH_SHARING)),
    "fig13": Figure(_fig13, lambda gpu, benches: _per_bench(
        benches, {"uba": uba_key, "nuba": nuba_key})),
    "fig14": Figure(_fig14, _fig14_points),
    "fig16": Figure(_fig16, _fig16_points),
    "sec76": Figure(_sec76, lambda gpu, benches: _per_bench(
        benches, _SEC76_VARIANTS)),
}


def _figure(name: str) -> Figure:
    try:
        return FIGURES[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; known: {sorted(FIGURES)}"
        ) from None


def figure_points(name: str, gpu: GPUConfig,
                  benchmarks: Optional[Sequence[str]] = None
                  ) -> List[Point]:
    """The labelled points figure ``name`` needs on ``gpu``, in sweep
    order (none for Table 2 and Figure 3)."""
    figure = _figure(name)
    if figure.points is None:
        return []
    return figure.points(gpu, figure.select(benchmarks))


def run_figure(name: str, runner: ExperimentRunner,
               benchmarks: Optional[Sequence[str]] = None) -> FigureResult:
    """Run figure ``name``'s points through ``runner`` and build it."""
    figure = _figure(name)
    benches = figure.select(benchmarks)
    if figure.points is None:
        return figure.build(runner, benches)
    results = {label: runner.run(key)
               for label, key in figure.points(runner.base_gpu, benches)}
    return figure.build(results, benches)
