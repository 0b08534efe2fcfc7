"""Interleaved A/B of two checkouts on the benchmark.

    python3 bench/ab.py PARENT_DIR CHANGE_DIR --pairs 10 --seed N
                        [--workload NAME ...] [--out FILE]

Runs ``python -m bench --workload W --seed S --trace 0`` in each
checkout, pair by pair, alternating which side goes first; pair ``i``
uses seed ``N + i`` on both sides. Metrics, bounds and the run length
come from this checkout's ``BENCHMARK.json``.

For every end-to-end metric of every workload it prints one row with
each side's median and quartiles, the change's pair wins and a verdict:

* ``gain`` -- the change is better in at least 9 of 10 pairs and the
  medians differ by more than the parent's quartile spread;
* ``regression`` -- the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median, on either side) is wider than the bound, unless every change
  run reads better than every parent run;
* ``no-regression`` -- otherwise.

Every run is listed after the table. The exit status is 1 when a
verdict is ``regression`` or a run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")
SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """One benchmark run; returns its result line (None on failure)."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, metric, pairs):
    """(verdict, wins) for one metric; ``pairs`` holds (p, c) values."""
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(1 for p, c in pairs if better(c, p))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if (better(cm, pm) and wins >= 0.9 * len(pairs)
            and abs(cm - pm) > p3 - p1):
        return "gain", wins
    worse = ((cm - pm) if lower else (pm - cm)) / pm
    if worse > metric["bound"]:
        return "regression", wins
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    if spread > metric["bound"]:
        if all(better(c, p) for c in change for p in parent):
            return "no-regression", wins
        return "unresolved", wins
    return "no-regression", wins


def main(argv=None):
    """Entry point; returns the exit status."""
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(prog="bench/ab.py")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", help="write every run as JSON")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    dirs = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                line = run_once(dirs[side], workload, seed,
                                spec["run_seconds"])
                runs.append({"pair": pair, "seed": seed, "side": side,
                             "workload": workload, "result": line})
                print(f"pair {pair} {workload} {side}: "
                      f"{'FAILED' if not line or not line['correct'] else 'ok'}",
                      file=sys.stderr)
    failed = [run for run in runs
              if run["result"] is None or not run["result"]["correct"]]
    regressions = 0
    header = (f"{'workload':<15} {'metric':<18} {'parent p50 [q1, q3]':>30} "
              f"{'change p50 [q1, q3]':>30} {'ratio':>6} {'wins':>6}  verdict")
    print(header)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            by_pair = {}
            for run in runs:
                if run["workload"] != workload or run in failed:
                    continue
                value = run["result"]["metrics"][name]["value"]
                by_pair.setdefault(run["pair"], {})[run["side"]] = value
            pairs = [(v["parent"], v["change"]) for v in by_pair.values()
                     if len(v) == 2]
            if not pairs:
                print(f"{workload:<15} {name:<18} no complete pairs")
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            result, wins = verdict(parent, change, metric, pairs)
            regressions += result == "regression"
            cells = []
            for values in (parent, change):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}]")
            ratio = statistics.median(change) / statistics.median(parent)
            print(f"{workload:<15} {name:<18} {cells[0]:>30} {cells[1]:>30} "
                  f"{ratio:>6.3f} {wins:>3}/{len(pairs):<2}  {result}")
    print("\nevery run:")
    for run in runs:
        line = run["result"]
        values = ("FAILED" if line is None else " ".join(
            f"{name}={m['value']:.6g}" for name, m in line["metrics"].items()))
        print(f"  pair {run['pair']} seed {run['seed']} {run['workload']} "
              f"{run['side']}: {values}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle, indent=1)
    if failed:
        print(f"{len(failed)} runs failed", file=sys.stderr)
    return 1 if regressions or failed else 0


if __name__ == "__main__":
    sys.exit(main())
