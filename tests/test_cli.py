"""Config parsing, presets, subcommand output contracts and exit codes."""

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qlo import (
    INFINITY, ThermoContext, build_graph, cli, fock, growth, join, normalize, oracles, preset_graph, rootiso,
)
from qlo.growth import MAX_LEVELS
from qlo.cli import (
    ConfigError,
    MonoidConfig,
    config_from_dict,
    emit_config,
    parse_config,
)

from conftest import (
    cliques_by_subset_scan,
    decimal_tail,
    largest_cutoff,
    successors_by_pair_scan,
    weighted_graphs,
)

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- config handling -----------------------------------------------------------


def test_parse_config_round_trip(tmp_path):
    config = parse_config(DATA / "path3.json")
    path = tmp_path / "monoid.json"
    path.write_text(emit_config(config))
    again = parse_config(path)
    assert again == config


def test_parse_config_rational_weight():
    config = parse_config(DATA / "rational_weights.json")
    assert dict(config.generators)["b"] == Fraction(3, 2)
    graph = config.to_graph()
    assert graph.weights["b"] == Fraction(3, 2)


def test_parse_config_full_file():
    config = parse_config(DATA / "free2.json")
    graph = config.to_graph()
    assert graph.generators == ("a", "b")
    assert not graph.edges


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["commuting_pairs"].append(["a", "a"]), "self-pair"),
        (lambda d: d["commuting_pairs"].append(["a", "z"]), "declared"),
        (lambda d: d["generators"].append({"name": "a", "weight": {"num": 1, "den": 1}}), "duplicate"),
        (lambda d: d["generators"][0]["weight"].update(num=0), "positive"),
        (lambda d: d["generators"][0].update(weight=1.5), "num/den"),
        (lambda d: d.update(extra=1), "unknown field"),
    ],
)
def test_parse_config_schema_errors(mutate, fragment):
    with open(DATA / "free2.json") as fh:
        data = json.load(fh)
    mutate(data)
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert fragment in str(info.value)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/monoid.json")


def test_presets_match_golden_files():
    for name, filename in [
        ("free:2", "free2.json"),
        ("path:3", "path3.json"),
        ("abelian:2", "abelian2.json"),
        ("cycle:5", "cycle5.json"),
    ]:
        with open(DATA / filename) as fh:
            golden = config_from_dict(json.load(fh))
        assert preset_graph(name) == golden.to_graph()


# -- subcommands ----------------------------------------------------------------


def test_beta_c_pinned_output(capsys):
    code, out, _ = run_cli(
        capsys, "beta-c", "--preset", "free:2", "--tol", "1e-12"
    )
    assert code == 0
    assert out.strip() == "0.693147180559945"


def test_clique_poly_pinned_output(capsys):
    code, out, _ = run_cli(capsys, "clique-poly", "--preset", "abelian:2")
    assert code == 0
    assert out.strip() == "1 - 2*t^1 + 1*t^2"


def test_growth_csv_header_and_rows(capsys):
    code, out, _ = run_cli(
        capsys, "growth", "--preset", "path:3", "--cutoff", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda_num,lambda_den,a_n"
    assert lines[1:] == ["0,1,1", "1,1,3", "2,1,7", "3,1,15"]


def test_growth_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "growth", "--preset", "abelian:2", "--cutoff", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [
        {"lambda": {"num": 0, "den": 1}, "count": 1},
        {"lambda": {"num": 1, "den": 1}, "count": 2},
        {"lambda": {"num": 2, "den": 1}, "count": 3},
    ]


def test_growth_rational_cutoff_with_config(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text((DATA / "rational_weights.json").read_text())
    code, out, _ = run_cli(
        capsys, "growth", "--config", str(path), "--cutoff", "7/2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "3,2,1" in lines  # the weight-3/2 generator appears as num=3, den=2


def test_invert_output(capsys):
    code, out, _ = run_cli(
        capsys, "invert", "--preset", "free:2", "--cutoff", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exponent_num,exponent_den,coefficient"
    assert lines[1:] == [
        "0,1,1", "1,1,2", "2,1,4", "3,1,8", "4,1,16",
    ]


def test_roots_output(capsys):
    code, out, _ = run_cli(
        capsys, "roots", "--preset", "path:3", "--tol", "1e-10"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multiplicity,subcritical"
    assert lines[1] == "0.5,1,0"
    assert lines[2] == "1,1,0"


SCALE62_STDOUT = {
    ("beta-c", "csv"): "3.15675828085894\n",
    ("beta-c", "json"): '{\n  "beta_c": 3.156758280858943,\n  "tol": 1e-12\n}\n',
    ("roots", "csv"): (
        "value,multiplicity,subcritical\n"
        "0.0425634965791275,1,0\n"
        "0.613443437702335,1,1\n"
    ),
    ("roots", "json"): """{
  "roots": [
    {
      "value": 0.04256349657912752,
      "multiplicity": 1,
      "exact": false,
      "subcritical": false
    },
    {
      "value": 0.6134434377023349,
      "multiplicity": 1,
      "exact": false,
      "subcritical": true
    }
  ]
}
""",
}


@pytest.mark.parametrize("command, fmt", sorted(SCALE62_STDOUT))
def test_scale62_cycle_pinned_output(capsys, command, fmt):
    # 5-cycle with weights 1/31, 1/2, 1, 1, 1: a scale-62, degree-124 clique
    # polynomial whose squarefree step once dominated the run time
    code, out, err = run_cli(
        capsys, command, "--config", str(DATA / "cycle5_scale62.json"), "--format", fmt
    )
    assert (code, err) == (0, "")
    assert out == SCALE62_STDOUT[command, fmt]


SCALE582_STDOUT = {
    ("beta-c", "csv"): "4.84480485034284\n",
    ("beta-c", "json"): '{\n  "beta_c": 4.844804850342845,\n  "tol": 1e-12\n}\n',
    ("roots", "csv"): (
        "value,multiplicity,subcritical\n"
        "0.00786915296765801,1,0\n"
        "0.61002383966488,1,1\n"
    ),
    # gibbs and kms-check bound their Gibbs tails on Q's 8 nonzero terms, each tail
    # exact at one point above exp(-beta/582); kms-check divides by Z_W from growth
    # counts, as gibbs's Z_truncated
    ("gibbs --cutoff 4 --beta 6", "csv"): (
        "quantity,value\n"
        "beta,6\n"
        "cutoff,4\n"
        "dimension,3207337841\n"
        "Z_truncated,68.4322370911484\n"
        "Z_closed,68.8751267162543\n"
        "psi_vacuum,0.0146129958994041\n"
        "psi_vacuum_times_Z_closed,1.00647194427556\n"
        "normalization_gap,0.00647194427556053\n"
        "tail_bound,0.442889625109895\n"
    ),
    ("gibbs --cutoff 4 --beta 6", "json"): (
        "{\n"
        '  "beta": 6.0,\n'
        '  "cutoff": 4.0,\n'
        '  "dimension": 3207337841,\n'
        '  "Z_truncated": 68.43223709114841,\n'
        '  "Z_closed": 68.87512671625427,\n'
        '  "psi_vacuum": 0.014612995899404088,\n'
        '  "psi_vacuum_times_Z_closed": 1.0064719442755605,\n'
        '  "normalization_gap": 0.006471944275560526,\n'
        '  "tail_bound": 0.44288962510989544\n'
        "}\n"
    ),
    ("kms-check --cutoff 3/2 --beta 6 --samples 6", "csv"): (
        "sample,p1,q1,p2,q2,residual,bound,ok\n"
        "0,b|d,b|b,e|b,a.e,0,0.302511465083637,1\n"
        "1,c,d|a,e,d|b,0,0.252294071898295,1\n"
        "2,d,b|d,a|d,d|a,0,2.63245753314834,1\n"
        "3,b|e,c,a.e,d|b,0,0.139208532763324,1\n"
        "4,a|c,b|e,a|a,c,0,2.58128359419063,1\n"
        "5,b.c,a.b,d|b,c,0,0.289382144640881,1\n"
    ),
}


@pytest.mark.parametrize("command, fmt", sorted(SCALE582_STDOUT))
def test_scale582_cycle_pinned_output(capsys, command, fmt):
    # 5-cycle with weights 1/291, 1/2, 1, 1, 1: a degree-1164 clique
    # polynomial with 8 terms, which dense isolation took 13 s to handle
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, *command.split(), "--config", str(DATA / "cycle5_scale582.json"), "--format", fmt
    )
    assert (code, err) == (0, "")
    assert out == SCALE582_STDOUT[command, fmt]
    assert time.perf_counter() - start < 5


def test_limsup_output(capsys):
    code, out, _ = run_cli(
        capsys, "limsup", "--preset", "free:2", "--cutoff", "20"
    )
    assert code == 0
    assert abs(float(out.strip()) - math.log(2**21 - 1) / 20) < 1e-12


def test_gibbs_report(capsys):
    # Q = (1 - t)**12 is 5.5e-13 at t = exp(-0.1): the tail bound still admits it
    for preset, beta, cutoff in (("path:3", 1.5, 6), ("abelian:12", 0.1, 2)):
        code, out, _ = run_cli(
            capsys,
            "gibbs", "--preset", preset, "--beta", str(beta), "--cutoff", str(cutoff),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["normalization_gap"] <= payload["tail_bound"]
        assert Decimal(payload["tail_bound"]) >= decimal_tail(ThermoContext(preset_graph(preset)), beta, cutoff)


def test_kms_check_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "kms-check", "--preset", "free:2", "--beta", "2.0",
        "--cutoff", "6", "--samples", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert all(row["residual"] <= row["bound"] for row in payload["results"])


def test_verify_small_cutoff(capsys):
    # abelian:2 is complete, so only path:3 and cycle:5 reach infinite joins
    for preset in ("abelian:2", "path:3", "cycle:5"):
        code, out, _ = run_cli(capsys, "verify", "--preset", preset, "--cutoff", "4")
        assert code == 0, preset
        assert "all 12 verification checks passed" in out
        assert "FAIL" not in out


def test_verify_fails_on_a_wrong_join(capsys, monkeypatch):
    def join_without_last_block(p, q):
        bound = join(p, q)
        if bound is INFINITY or bound.is_identity():
            return bound
        return normalize(bound.graph, [s for block in bound.key[:-1] for s in block])

    monkeypatch.setattr(oracles, "join", join_without_last_block)
    code, out, _ = run_cli(capsys, "verify", "--preset", "path:3", "--cutoff", "4")
    assert code == cli.EXIT_VERIFICATION
    assert "FAIL join-equals-brute-force" in out.splitlines()


def test_verify_reports_a_check_that_raises(capsys, monkeypatch):
    def crash(pairs, basis):
        raise RuntimeError("boom")

    monkeypatch.setattr(oracles, "join_mismatch", crash)
    code, out, _ = run_cli(capsys, "verify", "--preset", "path:3", "--cutoff", "4")
    assert code == cli.EXIT_VERIFICATION
    lines = out.splitlines()
    assert "FAIL join-equals-brute-force: boom" in lines
    assert lines[-1] == "1 verification check(s) failed: join-equals-brute-force"


def test_verify_work_guard_fails_fast(capsys):
    # 119,806 rows with traces of up to 582 blocks: unguarded, not done after 100 s
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "--config", str(DATA / "cycle5_scale582.json"), "--cutoff", "2"
    )
    assert time.perf_counter() - start < 5
    assert (code, out) == (cli.EXIT_COMPUTATION, "")
    assert (f"verify at basis dimension 119806 with traces of up to 582 blocks costs "
            f"{25 * 119806 + 582**2 // 50} (25 * dimension + blocks^2 // 50), "
            f"past the limit {oracles.MAX_VERIFY_WORK}") in err


def test_verify_work_guard_admits_its_limit(capsys, monkeypatch):
    argv = ["verify", "--preset", "path:3", "--cutoff", "2"]
    work = 25 * (1 + 3 + 7) + 2**2 // 50  # 11 traces of weight <= 2, the longest a|a
    monkeypatch.setattr(oracles, "MAX_VERIFY_WORK", work)
    code, out, _ = run_cli(capsys, *argv)
    assert code == cli.EXIT_OK and "all 12 verification checks passed" in out
    monkeypatch.setattr(oracles, "MAX_VERIFY_WORK", work - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (cli.EXIT_COMPUTATION, "")
    assert f"costs {work} (25 * dimension + blocks^2 // 50), past the limit {work - 1}" in err


def test_verify_runs_just_under_its_work_limit(capsys):
    for argv, work in [
        # 4,681 traces of weight <= 4, the longest a|a|a|a: 117,025, just under the limit
        (["--preset", "free:8", "--cutoff", "4"], 25 * 4681 + 4**2 // 50),
        # 442 traces, the longest 291 blocks: the costliest verify of tools/digest.py
        (["--config", str(DATA / "cycle5_scale582.json"), "--cutoff", "1"], 25 * 442 + 291**2 // 50),
    ]:
        assert work <= oracles.MAX_VERIFY_WORK
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == cli.EXIT_OK and "all 12 verification checks passed" in out


def test_verify_samples_kms_quadruples_without_listing_them():
    # free:5 has 31 traces of at most 2 letters up to weight 2: 923,521
    # quadruples, about 70 MB as the list the 20,000 samples were drawn from
    checks = dict(oracles.verification_suite(preset_graph("free:5"), 2))
    assert checks["enumeration-matches-transfer-dp"]()  # builds the basis first
    tracemalloc.start()
    try:
        assert checks["kms-identity-symbolic"]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


# -- exit codes --------------------------------------------------------------------


def test_exit_usage_on_unknown_subcommand(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_exit_usage_on_missing_required_flag(capsys):
    assert run_cli(capsys, "growth", "--preset", "free:2")[0] == 2


def test_exit_validation_on_bad_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": []}')
    code, _, err = run_cli(capsys, "growth", "--config", str(bad), "--cutoff", "2")
    assert code == 3
    assert "generators" in err


@pytest.mark.parametrize("name", ["a.b", "a|b", "a,b", "."])
def test_exit_validation_on_a_name_that_holds_a_separator(capsys, tmp_path, name):
    with open(DATA / "free2.json") as fh:
        data = json.load(fh)
    data["generators"][0]["name"] = name
    data["commuting_pairs"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "growth", "--config", str(bad), "--cutoff", "2")
    assert (code, out) == (3, "")
    separator = next(ch for ch in ".|," if ch in name)
    assert f"name {name!r} holds {separator!r}" in err


@pytest.mark.parametrize("preset, message", [
    ("free", "malformed preset 'free'; expected family:n"),
    ("torus:3", "unknown preset family 'torus'; choose from ('free', 'abelian', 'path', 'cycle')"),
    ("path:0", "preset size must be at least 1"),
    ("cycle:2", "cycle presets need at least 3 vertices"),
])
def test_exit_validation_on_a_bad_preset(capsys, preset, message):
    code, out, err = run_cli(capsys, "growth", "--preset", preset, "--cutoff", "2")
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert message in err


def test_exit_validation_when_graph_missing(capsys):
    assert run_cli(capsys, "growth", "--cutoff", "2")[0] == 3


def test_exit_validation_both_sources(capsys):
    code, _, _ = run_cli(
        capsys, "growth", "--config", str(DATA / "free2.json"), "--preset", "free:2",
        "--cutoff", "2",
    )
    assert code == 3


def test_exit_computation_on_subcritical_beta(capsys):
    # below beta_c, and one float above it, where exp(-beta) is not yet certified
    # below the bracket of Q's smallest root that beta_c is read from
    for preset in ("free:2", "path:3", "cycle:5"):
        beta_c = ThermoContext(preset_graph(preset)).beta_c
        for command, beta in itertools.product(("gibbs", "kms-check"), (0.2, math.nextafter(beta_c, math.inf))):
            argv = [command, "--preset", preset, "--beta", repr(beta), "--cutoff", "4"]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (4, ""), argv
            assert "beta_c" in err


@pytest.mark.parametrize("command", ["kms-check", "gibbs"])
def test_subcritical_beta_exits_before_the_basis_is_built(capsys, monkeypatch, command):
    def refuse(graph, top):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(growth, "_enumerate", refuse)
    code, out, err = run_cli(
        capsys, command, "--preset", "cycle:4", "--cutoff", "13", "--beta", "0.5"
    )
    assert code == cli.EXIT_COMPUTATION
    assert out == ""
    assert "--beta must exceed beta_c = 0.693147180559945" in err


def test_basis_size_guard_fails_fast(capsys):
    # verify builds its basis at min(cutoff, 4); kms-check and gibbs build none
    start = time.perf_counter()
    argv = ["verify", "--config", str(DATA / "cycle5_scale62.json"), "--cutoff", "4"]
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == cli.EXIT_COMPUTATION
    assert out == ""
    assert f"basis dimension 1009261 exceeds the limit {growth.MAX_BASIS_DIM}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["clique-poly", "--preset", "abelian:24"],
        ["growth", "--preset", "abelian:16", "--cutoff", "16"],
    ],
)
def test_clique_count_guard_fails_fast(capsys, argv):
    # 2^24 - 1 cliques; and 2^16 - 1 with 3^16 - 2^16 entries in their successor lists
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == cli.EXIT_COMPUTATION
    assert out == ""
    assert f"more cliques than the limit {growth.MAX_CLIQUES}" in err


def test_count_step_guard_fails_fast(capsys):
    # 9,999 levels of 4,095 cliques and 527,345 successor entries: past 120 s unguarded
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "growth", "--preset", "abelian:12", "--cutoff", "9999")
    assert time.perf_counter() - start < 5
    assert (code, out) == (cli.EXIT_COMPUTATION, "")
    assert (f"counting 9999 scaled weight levels takes {9999 * 531440} steps, "
            f"past the limit {growth.MAX_COUNT_STEPS}") in err


@pytest.mark.parametrize("preset, cutoff", [("path:3", 5), ("cycle:5", 4), ("abelian:3", 6)])
def test_count_step_guard_admits_its_limit(capsys, monkeypatch, preset, cutoff):
    # levels * (cliques + successor entries), counted by the pair-scan oracle
    cliques = [c for c in cliques_by_subset_scan(preset_graph(preset)) if c]
    succ = successors_by_pair_scan(preset_graph(preset), cliques)
    steps = cutoff * (len(cliques) + sum(map(len, succ)))
    argv = ["growth", "--preset", preset, "--cutoff", str(cutoff)]
    monkeypatch.setattr(growth, "MAX_COUNT_STEPS", steps)
    assert run_cli(capsys, *argv)[0] == cli.EXIT_OK
    monkeypatch.setattr(growth, "MAX_COUNT_STEPS", steps - 1)
    code, _, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_COMPUTATION
    assert f"takes {steps} steps, past the limit {steps - 1}" in err


def test_kms_sample_guard_fails_fast(capsys):
    argv = ["kms-check", "--preset", "free:2", "--cutoff", "4", "--beta", "3"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--samples", str(10**12))
    assert time.perf_counter() - start < 5
    assert (code, out) == (cli.EXIT_COMPUTATION, "")
    assert f"--samples {10**12} is past the limit {cli.MAX_KMS_WORK}" in err


def test_kms_sample_guard_admits_its_limit(capsys, monkeypatch):
    argv = ["kms-check", "--preset", "path:3", "--cutoff", "2", "--beta", "3", "--samples", "3"]
    monkeypatch.setattr(cli, "MAX_KMS_WORK", 3)
    assert run_cli(capsys, *argv)[0] == cli.EXIT_OK
    monkeypatch.setattr(cli, "MAX_KMS_WORK", 2)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (cli.EXIT_COMPUTATION, "")
    assert "--samples 3 is past the limit 2" in err


def test_kms_check_runs_its_sample_limit_in_seconds(capsys):
    # the costliest kms-check input of tools/digest.py: a degree-1164 clique
    # polynomial whose Gibbs tail is bounded once per distinct level and beta
    start = time.perf_counter()
    code, _, _ = run_cli(
        capsys, "kms-check", "--config", str(DATA / "cycle5_scale582.json"), "--cutoff", "3",
        "--beta", "6", "--samples", str(cli.MAX_KMS_WORK),
    )
    assert code == cli.EXIT_OK
    assert time.perf_counter() - start < 10


def test_kms_tail_guard_fails_fast(capsys, tmp_path):
    # the 5-cycle {1/2499, 1/2, 1, 1, 1}: a degree-9,996 clique polynomial whose
    # every distinct Gibbs tail takes about 0.7 s to bound; 20 samples meet 7 tails
    config = MonoidConfig(
        generators=list(zip("abcde", map(Fraction, ("1/2499", "1/2", 1, 1, 1)))),
        commuting_pairs=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    )
    path = tmp_path / "cycle5_scale4998.json"
    path.write_text(emit_config(config))
    argv = ["kms-check", "--config", str(path), "--cutoff", "2", "--beta", "8"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--samples", "20")
    assert time.perf_counter() - start < 5  # 5.3 s to exit 0 before the guard
    assert (code, out) == (cli.EXIT_COMPUTATION, "")
    assert f"7 Gibbs tails x degree 9996 is past the limit {cli.MAX_KMS_TAILS}" in err
    code, out, _ = run_cli(capsys, *argv, "--samples", "1")  # one tail is admitted
    assert code == cli.EXIT_OK and len(out.splitlines()) == 2


def test_kms_tail_guard_admits_its_limit(capsys, monkeypatch):
    graph = preset_graph("path:4")
    argv = ["kms-check", "--preset", "path:4", "--cutoff", "3", "--beta", "3", "--samples", "8",
            "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == cli.EXIT_OK
    # the distinct weight gains of the drawn monomials, each one Gibbs tail
    weight = {t.serialize(): t.weight for t in growth.enumerate_up_to(graph, 3)}
    gains = {
        max(weight[p] - weight[q], 0)
        for row in json.loads(out)["results"]
        for p, q in (row["monomials"][:2], row["monomials"][2:])
    }
    poly = growth.clique_polynomial(graph)
    work = len(gains) * int(poly.degree * poly.scale)
    assert len(gains) >= 2
    monkeypatch.setattr(cli, "MAX_KMS_TAILS", work)
    assert run_cli(capsys, *argv) == (cli.EXIT_OK, out, "")
    monkeypatch.setattr(cli, "MAX_KMS_TAILS", work - 1)
    code, refused, err = run_cli(capsys, *argv)
    assert (code, refused) == (cli.EXIT_COMPUTATION, "")
    assert f"{len(gains)} Gibbs tails x degree {work // len(gains)} is past the limit {work - 1}" in err


def test_kms_pool_guard_fails_fast(capsys):
    # 1,002 units e, a1, ..., a1001 of which every product of two weighs <= 2
    start = time.perf_counter()
    argv = ["kms-check", "--preset", "free:1001", "--cutoff", "2", "--beta", "9"]
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert (code, out) == (cli.EXIT_COMPUTATION, "")
    assert f"{1002**2} pool products exceed the limit {growth.MAX_BASIS_DIM}" in err


def test_kms_pool_guard_admits_its_limit(capsys, monkeypatch):
    # path:3 at W = 2: each of e, a, b, c times each of them weighs <= 2
    argv = ["kms-check", "--preset", "path:3", "--cutoff", "2", "--beta", "3"]
    monkeypatch.setattr(cli, "MAX_BASIS_DIM", 16)
    assert run_cli(capsys, *argv)[0] == cli.EXIT_OK
    monkeypatch.setattr(cli, "MAX_BASIS_DIM", 15)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (cli.EXIT_COMPUTATION, "")
    assert "16 pool products exceed the limit 15" in err


class _Isolated(Exception):
    """Raised by a stand-in for the root isolation, to show that it ran."""


@pytest.mark.parametrize("command", ["gibbs", "kms-check"])
def test_limits_are_checked_before_roots_are_isolated(capsys, monkeypatch, tmp_path, command):
    # the 5-cycle {1/4997, 1/2, 1, 1, 1}: its degree-19,988 clique polynomial
    # takes seconds to isolate, and W = 2 is 19,988 scaled weight levels
    def isolate(coeffs):
        raise _Isolated

    monkeypatch.setattr(rootiso, "roots_in_unit_interval", isolate)
    config = MonoidConfig(
        generators=list(zip("abcde", map(Fraction, ("1/4997", "1/2", 1, 1, 1)))),
        commuting_pairs=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    )
    path = tmp_path / "cycle5_scale9994.json"
    path.write_text(emit_config(config))
    argv = [command, "--config", str(path), "--beta", "8"]
    code, out, err = run_cli(capsys, *argv, "--cutoff", "2")
    assert (code, out) == (cli.EXIT_COMPUTATION, "")
    assert f"19988 scaled weight levels exceed the limit {MAX_LEVELS}" in err
    with pytest.raises(_Isolated):  # the most levels admitted reach the isolation
        cli.main([*argv, "--cutoff", f"{MAX_LEVELS}/9994"])
    if command == "kms-check":
        code, out, err = run_cli(capsys, "kms-check", "--preset", "free:1001", "--cutoff", "2", "--beta", "9")
        assert (code, out) == (cli.EXIT_COMPUTATION, "")
        assert f"{1002**2} pool products exceed the limit {growth.MAX_BASIS_DIM}" in err


@pytest.mark.parametrize(
    "argv, most",
    [
        (["--preset", "path:3", "--cutoff", "18", "--beta", "3"], 5),  # a basis of 1,048,555
        (["--preset", "cycle:4", "--cutoff", "15", "--beta", "3"], 0.5),
        (["--config", str(DATA / "cycle5_scale582.json"), "--cutoff", "3", "--beta", "6"], 5),
    ],
)
def test_kms_check_builds_no_basis(capsys, monkeypatch, argv, most):
    def refuse(*args, **kwargs):
        raise AssertionError("the basis was built")

    monkeypatch.setattr(fock, "build_rep", refuse)
    monkeypatch.setattr(growth, "_enumerate", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "kms-check", *argv)
    assert time.perf_counter() - start < most
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 21


@pytest.mark.parametrize(
    "preset, cutoff", [("path:3", 7), ("free:2", 7), ("cycle:4", 6), ("cycle:5", 4)]
)
def test_kms_check_matches_the_truncated_representation(capsys, preset, cutoff):
    # the rep is an independent oracle: kms_numeric_check on its maps gives the
    # residual and bound that kms-check reads off the counts
    rep = fock.build_rep(preset_graph(preset), cutoff)
    beta = 1.5 * rep.thermo().beta_c
    code, out, _ = run_cli(
        capsys, "kms-check", "--preset", preset, "--cutoff", str(cutoff), "--beta", repr(beta),
        "--format", "json",
    )
    assert code == 0
    pool, rng = [t for t in rep.basis if t.length <= 2], random.Random(2024)
    for row in json.loads(out)["results"]:  # the same draw, each trace by its own string
        p1, q1, p2, q2 = (rng.choice(pool) for _ in range(4))
        assert row["monomials"] == [t.serialize() for t in (p1, q1, p2, q2)]
        want = fock.kms_numeric_check(rep, (p1, q1), (p2, q2), beta)
        assert abs(row["residual"] - want.residual) <= 1e-15
        assert math.isclose(row["bound"], want.bound, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("preset", ["free:2", "path:3", "cycle:4", "cycle:5"])
@pytest.mark.parametrize("beta", ["710", "800"])
def test_kms_check_exits_on_a_twist_past_float_range(capsys, preset, beta):
    code, out, err = run_cli(capsys, "kms-check", "--preset", preset, "--cutoff", "3", "--beta", beta)
    assert (code, out) == (cli.EXIT_COMPUTATION, "")
    assert f"the twist overflows float range at beta = {beta}" in err


@settings(deadline=None, max_examples=40)
@given(
    weighted_graphs(min_letters=1, max_letters=4, denominators=(1, 2, 3)),
    st.integers(0, 10),
    st.integers(1, 8),
)
@example(build_graph("ab", {"a": 1, "b": 3}, []), 5, 6)  # W = 5/2 < 2 * w_max = 6
@example(build_graph("abc", {"a": Fraction(1, 2), "b": 2, "c": 1}, [("a", "b")]), 7, 8)
def test_kms_check_draws_from_the_short_basis_traces(graph, halves, samples):
    """kms-check's monomials are the seeded draw from the basis traces of at
    most two letters, whether W lies above or below twice the heaviest weight."""
    cutoff = largest_cutoff(graph, Fraction(halves, 2), 400)
    pool = [t for t in fock.build_rep(graph, cutoff).basis if t.length <= 2]
    rng = random.Random(2024)
    want = [[rng.choice(pool).serialize() for _ in range(4)] for _ in range(samples)]
    beta = 2 * ThermoContext(graph).beta_c + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "monoid.json"
        path.write_text(emit_config(MonoidConfig(
            generators=list(graph.weights.items()),
            commuting_pairs=[tuple(sorted(e)) for e in graph.edges],
        )))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([
                "kms-check", "--config", str(path), "--cutoff", str(cutoff), "--beta", repr(beta),
                "--samples", str(samples), "--format", "json",
            ])
    assert code == cli.EXIT_OK
    assert [row["monomials"] for row in json.loads(out.getvalue())["results"]] == want


def _heavy_letter_config(tmp_path):
    """free:2 with weights 1 and 10^9: a clique polynomial of degree 10^9."""
    config = {
        "generators": [
            {"name": "a", "weight": {"num": 1, "den": 1}},
            {"name": "b", "weight": {"num": 10**9, "den": 1}},
        ],
        "commuting_pairs": [],
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_growth_counts_below_a_letter_past_the_cutoff(capsys, tmp_path):
    config = _heavy_letter_config(tmp_path)
    code, out, err = run_cli(capsys, "growth", "--config", config, "--cutoff", "3")
    assert (code, err) == (0, "")
    assert out == "lambda_num,lambda_den,a_n\n0,1,1\n1,1,1\n2,1,1\n3,1,1\n"


@pytest.mark.parametrize(
    "argv", [["clique-poly"], ["roots"], ["kms-check", "--beta", "3", "--cutoff", "3"]]
)
def test_clique_polynomial_degree_guard(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--config", _heavy_letter_config(tmp_path))
    assert code == cli.EXIT_COMPUTATION
    assert out == ""
    assert f"clique polynomial degree {10**9} exceeds the limit {growth.MAX_DEGREE}" in err


@pytest.mark.parametrize(
    "preset, cutoff, dim",
    [
        ("cycle:5", "12", 11250001),
        ("path:3", "40", 2**42 - 43),
        ("cycle:5", "30", 126959228515625001),
        # 4,390 digits, more than int -> str allows by default
        pytest.param("free:9", "4600", (9**4601 - 1) // 8, id="free:9-4600"),
    ],
)
def test_gibbs_reports_past_the_basis_limit(capsys, monkeypatch, preset, cutoff, dim):
    # gibbs reads the dimension off the growth counts and builds no basis
    def refuse(*args, **kwargs):
        raise AssertionError("the basis was built")

    monkeypatch.setattr(fock, "build_rep", refuse)
    monkeypatch.setattr(growth, "_enumerate", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "gibbs", "--preset", preset, "--cutoff", cutoff, "--beta", "3"
    )
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert f"dimension,{dim}" in out.splitlines()


@pytest.mark.parametrize(
    "preset, cutoff",
    [("path:3", 6), ("path:3", 8), ("path:3", 10), ("free:2", 9), ("cycle:4", 8), ("cycle:5", 5)],
)
def test_gibbs_report_matches_the_truncated_representation(capsys, preset, cutoff):
    # the rep is an independent oracle: its basis size and the Gibbs value of
    # its vacuum projection must agree with what gibbs reads off the counts
    graph = preset_graph(preset)
    rep = fock.build_rep(graph, cutoff)
    vacuum = fock.vacuum_projection(rep)
    for beta in (1.5, 3.0):
        code, out, _ = run_cli(
            capsys, "gibbs", "--preset", preset, "--cutoff", str(cutoff),
            "--beta", str(beta), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == rep.dim
        assert payload["psi_vacuum"] == 1.0 / payload["Z_truncated"]
        want = fock.gibbs_numeric(rep, vacuum, beta)
        assert abs(payload["psi_vacuum"] / want - 1) <= 1e-11, (preset, cutoff, beta)


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "--preset", "path:3"],
        ["invert", "--preset", "path:3"],
        ["limsup", "--preset", "free:2"],
        ["gibbs", "--preset", "path:3", "--beta", "2"],
    ],
)
def test_absurd_cutoffs_fail_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--cutoff", "1e400")
    assert time.perf_counter() - start < 5
    assert code == cli.EXIT_COMPUTATION
    assert out == ""
    assert f"{10**400} scaled weight levels exceed the limit {MAX_LEVELS}" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["growth", "--preset", "path:3", "--cutoff", "abc"], "--cutoff"),
        (["limsup", "--preset", "free:2", "--cutoff", "1/0"], "--cutoff"),
        (["gibbs", "--preset", "path:3", "--beta", "nan", "--cutoff", "4"], "--beta"),
        (["gibbs", "--preset", "path:3", "--beta", "inf", "--cutoff", "4"], "--beta"),
        (["kms-check", "--preset", "free:2", "--beta", "nan", "--cutoff", "4"], "--beta"),
        (["beta-c", "--preset", "cycle:5", "--tol", "nan"], "--tol"),
        (["roots", "--preset", "path:3", "--tol", "inf"], "--tol"),
        (["verify", "--preset", "path:3", "--cutoff", "-1"], "--cutoff"),
        (["kms-check", "--preset", "free:2", "--beta", "3", "--cutoff", "4", "--samples", "0"],
         "--samples"),
    ],
)
def test_exit_validation_on_bad_numbers(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert flag in err and "Traceback" not in err


def test_exit_validation_on_malformed_config(capsys, tmp_path):
    path = tmp_path / "monoid.json"
    path.write_text('{"generators": [')
    code, out, err = run_cli(capsys, "growth", "--config", str(path), "--cutoff", "3")
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert f"{path}: malformed JSON" in err and "Traceback" not in err


def run_python(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_module_entry_point_runs_the_cli():
    def run(*extra):
        return run_python("-m", "qlo.cli", "growth", "--preset", "path:3", *extra)

    done = run("--cutoff", "3")
    assert done.returncode == cli.EXIT_OK
    assert done.stdout.splitlines() == [
        "lambda_num,lambda_den,a_n", "0,1,1", "1,1,3", "2,1,7", "3,1,15",
    ]
    assert run().returncode == cli.EXIT_USAGE  # --cutoff is required


def test_importing_the_cli_leaves_the_oracles_out():
    done = run_python("-c", "import sys, qlo.cli; print('qlo.oracles' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
