"""Run bench/run.py on two checkouts in alternating pairs and summarise.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --runs kms=12001-12010 gibbs=12101-12103 --seconds 35 \\
        --traced kms=12001-12003 --what "..." --out BENCH_12.json

Each seed of each workload is one pair: both checkouts run
``bench/run.py --trace 0`` on it back to back, and the side that goes first
alternates from pair to pair, so that a drift in machine speed falls on both.
The output holds each side's median and quartiles (inclusive method) of every
end-to-end metric that BENCHMARK.json names, the ratio of the medians
(change / parent), how many pairs the change won in the metric's better
direction, how far the change's median moved in the worse direction
(``worse_by``, a fraction of the parent's median; below 0 it improved) and
whether that is within the metric's bound, whether the gap between the
medians exceeds the parent's interquartile range (``resolved``), the failed
jobs and their share, the runs whose CLI parity check failed
(``correct: false``), every run, and with --traced each side's median
per-layer metrics over traced pairs.  ``verdict`` lists every workload where
a metric is worse than its bound, more jobs fail or more runs are incorrect
than at the parent; it passes when the list is empty.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text):
    """'5' -> [5]; '3-6' -> [3, 4, 5, 6]; '1,4' -> [1, 4]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _workload_seeds(text):
    workload, _, seeds = text.partition("=")
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected workload=seeds, got {text!r}")
    return workload, _seeds(seeds)


def run_bench(checkout, workload, seed, seconds, trace):
    """The JSON summary that bench/run.py prints as its last line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _commit(checkout):
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs, metrics):
    """Per workload: pairs, failed jobs and their share of the attempted,
    runs whose CLI parity check failed and, per metric (name -> its
    BENCHMARK.json entry with "better" and "bound"), both sides' spread, the
    ratio of medians, the change's wins, worse_by, within_bound and resolved."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {side: [r for r in runs if r["workload"] == workload and r["side"] == side]
                 for side in ("parent", "change")}
        failed = {side: sum(r["failed"] for r in rs) for side, rs in sides.items()}
        entry = {"pairs": len(sides["change"]), "failed_jobs": failed,
                 "failed_share": {side: failed[side] / max(sum(r["attempted"] for r in rs), 1)
                                  for side, rs in sides.items()},
                 "incorrect_runs": {side: sum(not r["correct"] for r in rs)
                                    for side, rs in sides.items()}}
        for name, spec in metrics.items():
            values = {side: [r[name] for r in rs] for side, rs in sides.items()}
            sign = 1 if spec["better"] == "higher" else -1
            parent, change = values["parent"], values["change"]
            spread = {side: _spread(v) for side, v in values.items()}
            p_med, c_med = spread["parent"]["median"], spread["change"]["median"]
            worse_by = sign * (p_med - c_med) / p_med
            entry[name] = {
                **spread,
                "ratio_of_medians": c_med / p_med,
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "worse_by": worse_by,
                "within_bound": worse_by <= spec["bound"],
                "resolved": abs(c_med - p_med) > spread["parent"]["q3"] - spread["parent"]["q1"],
            }
        out[workload] = entry
    return out


def verdict(summary, metrics):
    """{"pass": bool, "reasons": [...]}: a reason for each workload metric worse
    than its bound, a larger share of failed jobs or more incorrect runs."""
    reasons = []
    for workload, entry in summary.items():
        reasons += [f"{workload} {name} worse by {entry[name]['worse_by']:.1%}, "
                    f"bound {metrics[name]['bound']:.0%}"
                    for name in metrics if not entry[name]["within_bound"]]
        for key in ("failed_share", "incorrect_runs"):
            if entry[key]["change"] > entry[key]["parent"]:
                reasons.append(f"{workload} {key} {entry[key]['change']:g} "
                               f"above the parent's {entry[key]['parent']:g}")
    return {"pass": not reasons, "reasons": reasons}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--runs", required=True, nargs="+", type=_workload_seeds,
                        help="workload=seeds, seeds as 1-10 or 1,4,7; one pair per seed")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--traced", type=_workload_seeds,
                        help="workload=seeds of traced pairs; each metric is the median over them")
    parser.add_argument("--what", required=True, help="what the two sides are")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    runs, pair = [], 0
    for workload, seeds in args.runs:
        for seed in seeds:
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                summary = run_bench(checkouts[side], workload, seed, args.seconds, 0)
                values = {name: summary["metrics"][name]["value"] for name in metrics}
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "correct": summary["correct"], "attempted": summary["attempted"],
                             "failed": summary["failed"], **values, "pair_first": order[0]})
                print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
            pair += 1

    summary = summarise(runs, metrics)
    report = {
        "what": args.what,
        "verdict": verdict(summary, metrics),
        "parent_commit": _commit(args.parent),
        "command": "python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace <0|1>",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                   f"Python {platform.python_version()}; "
                   "times are scaled to the reference speed by the run's probe",
        "pairs_run_in_order": "each pair ran its two sides back to back; "
                              "'pair_first' names the side that ran first, alternating",
        "summary_trace0": summary,
        "runs": runs,
    }
    if args.traced:
        workload, seeds = args.traced
        traced = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                metrics = run_bench(checkouts[side], workload, seed, args.seconds, 1)["metrics"]
                traced[side].append({k: v["value"] for k, v in metrics.items()})
        medians = {side: {k: statistics.median(r[k] for r in rs) for k in rs[0]}
                   for side, rs in traced.items()}
        report["per_layer_traced"] = {"workload": workload, "seeds": seeds, **medians}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
