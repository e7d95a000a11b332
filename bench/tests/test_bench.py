"""Tests of the benchmark itself: plans, tiny jobs, tracing and the contract.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import qlo  # noqa: E402
import qlo.cli  # noqa: E402

import jobs  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def _strata(plan):
    return [[spec["stratum"] for spec in round_] for round_ in plan]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert jobs.make_plan(qlo, workload, 7, 4) == jobs.make_plan(qlo, workload, 7, 4)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_other_seed_gives_same_stratum_mix(workload):
    a = jobs.make_plan(qlo, workload, 7, 4)
    b = jobs.make_plan(qlo, workload, 8, 4)
    assert _strata(a) == _strata(b)
    assert a != b


def test_spectrum_jobs_have_their_stratum_scale_and_degree():
    for round_ in jobs.make_plan(qlo, "spectrum", 3, 10):
        for spec in round_:
            poly = qlo.clique_polynomial(jobs._spectrum_graph(qlo, spec))
            assert poly.scale == spec["scale"]
            assert poly.degree * poly.scale == spec["degree"]


def _tiny(workload):
    spec = jobs.make_plan(qlo, workload, 5, 1)[0][0]
    if workload == "kms":
        spec.update(cutoff=3, quads=spec["quads"][:20])
    elif workload == "gibbs":
        spec.update(cutoff=4)
    return spec


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tiny_job_passes_checks_and_matches_the_cli(workload, tmp_path):
    spec = _tiny(workload)
    result = jobs.RUNNERS[workload](qlo, spec)
    assert jobs.cli_parity(qlo, qlo.cli, spec, result, str(tmp_path)) == []


def test_cli_parity_reports_a_differing_value(tmp_path):
    spec = _tiny("gibbs")
    result = jobs.run_gibbs(qlo, spec)
    result["quantities"]["Z_closed"] *= 1.01
    assert jobs.cli_parity(qlo, qlo.cli, spec, result, str(tmp_path)) != []


class _WrongInversion:
    """qlo with verify_inversion reporting a mismatch."""

    def __getattr__(self, name):
        return getattr(qlo, name)

    @staticmethod
    def verify_inversion(graph, cutoff):
        return qlo.InversionReport(match=False, cutoff=cutoff, first_mismatch=(1, 2, 3))


def test_a_failed_check_fails_only_its_job():
    ok, result, error = run.run_job(_WrongInversion(), _tiny("spectrum"))
    assert not ok and result is None and error.startswith("CheckFailed")
    ok, result, error = run.run_job(qlo, _tiny("spectrum"))
    assert ok and error is None


def test_tracer_counts_self_time_and_restores_the_library():
    original = qlo.multiply
    tracer = Tracer()
    with tracer.install(qlo):
        assert qlo.multiply is not original
        with tracer.job():
            jobs.run_kms(qlo, _tiny("kms"))
    assert qlo.multiply is original and qlo.fock.multiply is original
    assert tracer.calls["job"] == 1
    assert tracer.calls["fock.left_op"] > 0 and tracer.calls["monoid.multiply"] > 0
    for name in tracer.calls:
        assert 0 <= tracer.self_ns[name] <= tracer.total_ns[name]
    # only the job and the benchmark's direct calls are kept as spans
    direct = [s for s in tracer.spans if s[3] != "job"]
    job_id = next(s[1] for s in tracer.spans if s[3] == "job")
    assert direct and all(s[2] == job_id for s in direct)


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER)
    records = [{"ms": float(i), "probe_ms": run.PROBE_REF_MS} for i in range(1, 101)]
    setup_record = {"s": [0.1], "probe_ms": [run.PROBE_REF_MS]}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(records, 10.0, setup_record))


def test_times_are_given_at_the_reference_speed():
    records = [{"ms": float(i), "probe_ms": run.PROBE_REF_MS} for i in range(1, 101)]
    setup_record = {"s": [0.1, 0.2, 0.3], "probe_ms": [run.PROBE_REF_MS] * 3}
    at_ref = run.end_to_end(records, 10.0, setup_record)
    for record in records:
        record["probe_ms"] *= 2  # the same jobs on a machine twice as slow
    setup_record = {"s": [0.2, 0.4, 0.6], "probe_ms": [2 * run.PROBE_REF_MS] * 3}
    slow = run.end_to_end(records, 20.0, setup_record)
    for name in ("jobs_per_s", "setup_s"):
        assert slow[name][0] == pytest.approx(at_ref[name][0])
    assert slow["job_p50_ms"][0] == pytest.approx(at_ref["job_p50_ms"][0] / 2)


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
