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


def test_summary_counts_wins_in_the_better_direction():
    # pairs in run order: (parent, change) jobs/s 10/12, 11/10, 9/13; ms 5/4, 5/5, 5/4
    values = [(10, 12, 5, 4), (11, 10, 5, 5), (9, 13, 5, 4)]
    runs = []
    for p_rate, c_rate, p_ms, c_ms in values:
        for side, rate, ms, failed in (("parent", p_rate, p_ms, 0), ("change", c_rate, c_ms, 1)):
            runs.append({"workload": "kms", "side": side, "failed": failed, "correct": True,
                         "jobs_per_s": rate, "job_p50_ms": ms})
    runs[3]["correct"] = False  # the change's second run failed its CLI parity check
    summary = bench_pairs.summarise(runs, {"jobs_per_s": "higher", "job_p50_ms": "lower"})["kms"]
    assert summary["pairs"] == 3 and summary["failed_jobs"] == {"parent": 0, "change": 3}
    assert summary["incorrect_runs"] == {"parent": 0, "change": 1}
    rate = summary["jobs_per_s"]
    assert rate["parent"] == {"median": 10, "q1": 9.5, "q3": 10.5}
    assert rate["change"] == {"median": 12, "q1": 11, "q3": 12.5}
    assert rate["ratio_of_medians"] == 1.2 and rate["change_wins"] == 2
    assert summary["job_p50_ms"]["change_wins"] == 2  # the tie counts for neither side
