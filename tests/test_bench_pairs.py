"""tools/bench_pairs.py: seed lists and the pair summary, on made-up runs."""

import importlib.util
from pathlib import Path

_path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_seed_lists():
    assert bench_pairs._seeds("5") == [5]
    assert bench_pairs._seeds("3-6") == [3, 4, 5, 6]
    assert bench_pairs._seeds("1,4-5") == [1, 4, 5]
    assert bench_pairs._workload_seeds("kms=1-2") == ("kms", [1, 2])


METRICS = {"jobs_per_s": {"better": "higher", "bound": 0.25},
           "job_p50_ms": {"better": "lower", "bound": 0.1}}


def test_summary_counts_wins_in_the_better_direction():
    # pairs in run order: (parent, change) jobs/s 10/12, 11/10, 9/13; ms 5/4, 5/5, 5/4
    values = [(10, 12, 5, 4), (11, 10, 5, 5), (9, 13, 5, 4)]
    runs = []
    for p_rate, c_rate, p_ms, c_ms in values:
        for side, rate, ms, failed in (("parent", p_rate, p_ms, 0), ("change", c_rate, c_ms, 1)):
            runs.append({"workload": "kms", "side": side, "failed": failed, "correct": True,
                         "attempted": 10, "jobs_per_s": rate, "job_p50_ms": ms})
    runs[3]["correct"] = False  # the change's second run failed its CLI parity check
    summary = bench_pairs.summarise(runs, METRICS)["kms"]
    assert summary["pairs"] == 3 and summary["failed_jobs"] == {"parent": 0, "change": 3}
    assert summary["failed_share"] == {"parent": 0, "change": 0.1}
    assert summary["incorrect_runs"] == {"parent": 0, "change": 1}
    rate = summary["jobs_per_s"]
    assert rate["parent"] == {"median": 10, "q1": 9.5, "q3": 10.5}
    assert rate["change"] == {"median": 12, "q1": 11, "q3": 12.5}
    assert rate["ratio_of_medians"] == 1.2 and rate["change_wins"] == 2
    assert summary["job_p50_ms"]["change_wins"] == 2  # the tie counts for neither side
    assert rate["worse_by"] == -0.2 and rate["within_bound"] and rate["resolved"]


def _pairs(parent_ms, change_ms, failed=(0, 0), correct=(True, True)):
    return [{"workload": "gibbs", "side": side, "failed": f, "correct": ok, "attempted": 10,
             "jobs_per_s": 100, "job_p50_ms": ms}
            for p, c in zip(parent_ms, change_ms)
            for side, ms, f, ok in (("parent", p, failed[0], correct[0]),
                                    ("change", c, failed[1], correct[1]))]


def test_worse_by_is_measured_against_the_bound():
    # the change's median p50 is 11 ms against the parent's 10: 10% worse, at the bound
    summary = bench_pairs.summarise(_pairs([9, 10, 11], [10, 11, 12]), METRICS)
    p50 = summary["gibbs"]["job_p50_ms"]
    assert abs(p50["worse_by"] - 0.1) < 1e-12 and p50["within_bound"]
    assert not p50["resolved"]  # the 1 ms gap is the parent's interquartile range
    assert summary["gibbs"]["jobs_per_s"]["worse_by"] == 0
    assert bench_pairs.verdict(summary, METRICS) == {"pass": True, "reasons": []}


def test_verdict_names_each_breach():
    summary = bench_pairs.summarise(
        _pairs([10, 10], [12, 12], failed=(0, 1), correct=(True, False)), METRICS
    )
    assert not summary["gibbs"]["job_p50_ms"]["within_bound"]
    assert bench_pairs.verdict(summary, METRICS) == {"pass": False, "reasons": [
        "gibbs job_p50_ms worse by 20.0%, bound 10%",
        "gibbs failed_share 0.1 above the parent's 0",
        "gibbs incorrect_runs 2 above the parent's 0",
    ]}
