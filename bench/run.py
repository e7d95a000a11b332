"""qlo benchmark: closed-loop jobs on one thread, untraced or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload kms --seed 1 --seconds 35 --trace 0

One client runs jobs back to back (the next starts when the last returns)
until --seconds have passed and at least MIN_JOBS jobs are done, always
finishing the round in progress.  Each job builds its graph from scratch, so
no qlo cache survives from one job to the next, as for a CLI user.

A short fixed pure-Python loop, the speed probe, runs before every job and
every set-up.  The host is shared, and its speed drifts by 10-25% within a
minute; every reported time is scaled by PROBE_REF_MS / (median probe time of
the run), i.e. given at the speed at which the probe takes PROBE_REF_MS.  The
raw times and probe times are kept in the .bench_out/ record.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each round twice,
untraced and then traced, and reports per-layer metrics and the tracing
overhead.  Results, per-job records and (traced) spans go to .bench_out/ in
the checkout; the last line of standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import jobs
from spans import TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_JOBS = 100  # so that ten jobs lie beyond p90
SETUP_REPEATS = 15
PROBE_REF_MS = 4.0  # about the probe's median time on the 2-core box the bounds were set on
PLAN_ROUNDS = {"kms": 40, "gibbs": 60, "spectrum": 160}

# per-layer metrics: name -> (unit, better)
PER_LAYER = {}
for _layer, _names in TRACED.items():
    for _name in _names:
        PER_LAYER[f"{_layer}.{_name}.ms"] = ("ms", "lower")
for _name in ("monoid.normalize", "monoid.multiply", "monoid.join", "monoid.wick",
              "thermo.ThermoContext", "thermo.kms_identity_check", "fock.left_op",
              "fock.kms_numeric_check"):
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
PER_LAYER.update({
    "monoid.join.infinite_frac": ("ratio", "lower"),
    "growth.enumerate_up_to.elements": ("count", "lower"),
    "growth.growth_table.levels": ("count", "lower"),
    "thermo.scale": ("count", "lower"),
    "thermo.poly_degree": ("count", "lower"),
    "thermo.roots": ("count", "lower"),
    "fock.basis_dim": ("count", "lower"),
    "fock.left_op.kept_frac": ("ratio", "higher"),
    "fock.kms_numeric_check.residual_to_bound_max": ("ratio", "lower"),
    "job.ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "failed_frac": ("ratio", "lower"),
})


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _fresh_qlo():
    for name in [k for k in sys.modules if k == "qlo" or k.startswith("qlo.")]:
        del sys.modules[name]
    importlib.import_module("qlo.cli")
    return importlib.import_module("qlo")


def probe():
    """Milliseconds a fixed pure-Python loop takes: the machine's speed now.

    It spends about equal time on integer arithmetic, on dicts and frozensets
    with tuple keys, and on Fraction arithmetic, the kinds of work qlo does.
    When the shared host speeds up or slows down, each kind changes by a
    different amount; the mix follows the jobs more closely than any one.
    """
    start = time.perf_counter()
    table, total = {}, 0
    for i in range(10000):
        total += (i * i) % 7
        table[i & 63] = total
    sets = {}
    for i in range(800):
        key = (i % 97, i % 89, i % 7)
        sets[key] = sets.get(key, frozenset()) | frozenset((i % 13, i % 11, i % 5))
    sorted(sets.items(), key=lambda kv: (len(kv[1]), kv[0]))
    fraction = Fraction(0)
    for i in range(1, 180):
        fraction += Fraction(i, i + 1) * Fraction(3, 7)
    return (time.perf_counter() - start) * 1e3


def slowdown(probe_ms):
    """How much slower than the reference speed the machine ran."""
    return statistics.median(probe_ms) / PROBE_REF_MS


def setup(workload, seed):
    """Import qlo (with its CLI) and make the first round, SETUP_REPEATS times.

    That is what stands between process start and the first job.  Returns
    the package, the whole plan (made after the timing) and the set-up
    record: each set-up's seconds and the probe time measured before it.
    """
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(probe())
        start = time.perf_counter()
        q = _fresh_qlo()
        jobs.make_plan(q, workload, seed, 1)
        times.append(time.perf_counter() - start)
    plan = jobs.make_plan(q, workload, seed, PLAN_ROUNDS[workload])
    return q, plan, {"s": times, "probe_ms": probes}


def run_job(q, spec):
    """(ok, result, error) of one job; a raised error fails only that job."""
    try:
        return True, jobs.RUNNERS[spec["workload"]](q, spec), None
    except Exception as exc:  # noqa: BLE001 - the loop must keep running
        return False, None, f"{type(exc).__name__}: {exc}"


def run_rounds(q, plan, seconds=None, rounds=None, tracer=None):
    """Closed loop over whole rounds; stop by time and MIN_JOBS, or rounds.

    Returns the job records and the wall time of the loop, probes left out.
    """
    records = []
    probe_s = 0.0
    start = time.perf_counter()
    done = 0
    while True:
        if rounds is not None:
            if done == rounds:
                break
        elif time.perf_counter() - start >= seconds and len(records) >= MIN_JOBS:
            break
        for spec in plan[done % len(plan)]:
            probe_ms = probe()
            probe_s += probe_ms / 1e3
            t0, c0 = time.perf_counter(), time.process_time()
            if tracer is None:
                ok, result, error = run_job(q, spec)
            else:
                with tracer.job():
                    ok, result, error = run_job(q, spec)
            ms = (time.perf_counter() - t0) * 1e3
            cpu_ms = (time.process_time() - c0) * 1e3
            record = {"stratum": spec["stratum"], "ms": ms, "cpu_ms": cpu_ms, "probe_ms": probe_ms, "ok": ok}
            if error:
                record["error"] = error
            for key in ("dim", "scale", "degree"):
                if result and key in result:
                    record[key] = result[key]
            records.append(record)
        done += 1
    return records, time.perf_counter() - start - probe_s


def check_parity(q, spec):
    """Compare a job with the CLI run in-process on the same inputs (untimed)."""
    import qlo.cli as cli

    ok, result, error = run_job(q, spec)
    if not ok:
        return [error]
    with jobs.parity_workdir(ROOT) as workdir:
        return jobs.cli_parity(q, cli, spec, result, workdir)


def end_to_end(records, wall, setup_record):
    """The end-to-end metrics, every time at the probe's reference speed."""
    slow = slowdown([r["probe_ms"] for r in records])
    times = [r["ms"] / slow for r in records]
    setup_s = statistics.median(setup_record["s"]) / slowdown(setup_record["probe_ms"])
    return {
        "jobs_per_s": (len(records) / (wall / slow), "1/s"),
        "job_p50_ms": (statistics.median(times), "ms"),
        "job_p90_ms": (statistics.quantiles(times, n=10)[-1], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, traced, wall_untraced, wall_traced, failed_frac):
    """The per-layer metrics, times at the probe's reference speed."""
    n = len(traced)
    slow = slowdown([r["probe_ms"] for r in traced])
    calls, counters = tracer.calls, tracer.counters

    def per_call(counter, name):
        return counters[counter] / calls[name] if calls[name] else 0.0

    values = {}
    for layer, names in TRACED.items():
        for name in names:
            values[f"{layer}.{name}.ms"] = tracer.self_ns[f"{layer}.{name}"] / 1e6 / n / slow
    for metric in PER_LAYER:
        if metric.endswith(".calls"):
            values[metric] = calls[metric[: -len(".calls")]] / n
    values.update({
        "monoid.join.infinite_frac": per_call("monoid.join.infinite", "monoid.join"),
        "growth.enumerate_up_to.elements": counters["growth.enumerate_up_to.elements"] / n,
        "growth.growth_table.levels": per_call("growth.growth_table.levels", "growth.growth_table"),
        "thermo.scale": per_call("thermo.scale", "thermo.ThermoContext"),
        "thermo.poly_degree": per_call("thermo.poly_degree", "thermo.ThermoContext"),
        "thermo.roots": per_call("thermo.roots", "thermo.clique_roots_in_unit_interval"),
        "fock.basis_dim": per_call("fock.basis_dim", "fock.build_rep"),
        "fock.left_op.kept_frac": per_call("fock.left_op.kept", "fock.left_op"),
        "fock.kms_numeric_check.residual_to_bound_max": counters["fock.kms_numeric_check.residual_to_bound_max"],
        "job.ms": statistics.fmean(r["ms"] for r in traced) / slow,
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
        "failed_frac": failed_frac,
    })
    return {k: (values[k], PER_LAYER[k][0]) for k in PER_LAYER}


def main(argv=None):
    args = _args(argv)
    if not (SRC / "qlo" / "__init__.py").is_file():
        print(f"error: no qlo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    q, plan, setup_record = setup(args.workload, args.seed)
    if Path(q.__file__).resolve().parent != SRC / "qlo":
        print(f"error: imported qlo from {q.__file__}, not {SRC}", file=sys.stderr)
        return 2

    problems = check_parity(q, plan[0][0])
    for problem in problems:
        print(f"parity ({plan[0][0]['stratum']}): {problem}", file=sys.stderr)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "parity_problems": problems,
        "probe_ref_ms": PROBE_REF_MS, "setup": setup_record,
    }
    if args.trace == 0:
        records, wall = run_rounds(q, plan, seconds=args.seconds)
        metrics = end_to_end(records, wall, setup_record)
        name = f"{args.workload}-seed{args.seed}"
    else:
        # untraced and traced passes alternate round by round, so that a
        # change in machine speed during the run cancels out of the overhead
        tracer = Tracer()
        untraced, traced, wall_untraced, wall_traced = [], [], 0.0, 0.0
        start, done = time.perf_counter(), 0
        while time.perf_counter() - start < args.seconds:
            round_ = [plan[done % len(plan)]]
            records, wall = run_rounds(q, round_, rounds=1)
            untraced, wall_untraced = untraced + records, wall_untraced + wall
            with tracer.install(q):
                records, wall = run_rounds(q, round_, rounds=1, tracer=tracer)
            traced, wall_traced = traced + records, wall_traced + wall
            done += 1
        records = untraced + traced
        failed_frac = sum(not r["ok"] for r in records) / len(records)
        metrics = per_layer(tracer, traced, wall_untraced, wall_traced, failed_frac)
        name = f"{args.workload}-seed{args.seed}-trace"
        detail["spans"] = {
            "fields": ["job", "id", "parent", "name", "start_ns", "end_ns"],
            "rows": tracer.spans,
        }
        detail["totals"] = {
            key: {"calls": tracer.calls[key], "total_ms": tracer.total_ns[key] / 1e6,
                  "self_ms": tracer.self_ns[key] / 1e6}
            for key in sorted(tracer.calls)
        }
        detail["counters"] = dict(tracer.counters)

    failed = sum(not r["ok"] for r in records)
    summary = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(summary=summary, jobs=records)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
