"""Config parsing, presets, subcommand output contracts and exit codes."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qlo import cli
from qlo.cli import (
    ConfigError,
    MonoidConfig,
    config_from_dict,
    emit_config,
    parse_config,
    preset_config,
)

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- config handling -----------------------------------------------------------


def test_parse_config_round_trip(tmp_path):
    config = preset_config("path:3")
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
        built = preset_config(name)
        assert built.generators == golden.generators
        assert sorted(map(sorted, built.commuting_pairs)) == sorted(
            map(sorted, golden.commuting_pairs)
        )


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


def test_limsup_output(capsys):
    code, out, _ = run_cli(
        capsys, "limsup", "--preset", "free:2", "--cutoff", "20"
    )
    assert code == 0
    assert abs(float(out.strip()) - math.log(2**21 - 1) / 20) < 1e-12


def test_gibbs_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "gibbs", "--preset", "path:3", "--beta", "1.5", "--cutoff", "6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["normalization_gap"] <= payload["tail_bound"]


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
    code, out, _ = run_cli(
        capsys, "verify", "--preset", "abelian:2", "--cutoff", "4"
    )
    assert code == 0
    assert "all 12 verification checks passed" in out
    assert "FAIL" not in out


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


def test_exit_validation_when_graph_missing(capsys):
    assert run_cli(capsys, "growth", "--cutoff", "2")[0] == 3


def test_exit_validation_both_sources(capsys, tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(emit_config(preset_config("free:2")))
    code, _, _ = run_cli(
        capsys, "growth", "--config", str(cfg), "--preset", "free:2",
        "--cutoff", "2",
    )
    assert code == 3


def test_exit_computation_on_subcritical_beta(capsys):
    code, _, err = run_cli(
        capsys, "gibbs", "--preset", "free:2", "--beta", "0.2", "--cutoff", "4"
    )
    assert code == 4
    assert "beta_c" in err


def test_qlo_threads_validation(capsys, monkeypatch):
    monkeypatch.setenv("QLO_THREADS", "not-a-number")
    code, _, err = run_cli(capsys, "beta-c", "--preset", "free:2")
    assert code == 3
    assert "QLO_THREADS" in err
    monkeypatch.setenv("QLO_THREADS", "2")
    code, out, _ = run_cli(capsys, "beta-c", "--preset", "free:2")
    assert code == 0


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "qlo.cli", "growth", "--preset", "path:3"]

    def run(*extra):
        return subprocess.run(
            command + list(extra), env=env, capture_output=True, text=True, timeout=120
        )

    done = run("--cutoff", "3")
    assert done.returncode == cli.EXIT_OK
    assert done.stdout.splitlines() == [
        "lambda_num,lambda_den,a_n", "0,1,1", "1,1,3", "2,1,7", "3,1,15",
    ]
    assert run().returncode == cli.EXIT_USAGE  # --cutoff is required
