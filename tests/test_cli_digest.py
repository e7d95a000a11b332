"""tools/cli_digest.py: one digest line per CLI call, on two argv lists."""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def test_digest_lines_hash_each_call_and_mask_the_root():
    missing = str(ROOT / "tests" / "data" / "missing.json")
    argvs = [
        ["growth", "--preset", "path:3", "--cutoff", "3"],
        ["growth", "--config", missing, "--cutoff", "3"],
    ]
    lines = cli_digest.digest_lines(ROOT, argvs)
    stdout = "lambda_num,lambda_den,a_n\n0,1,1\n1,1,3\n2,1,7\n3,1,15\n"
    stderr = "error: config file not found: <root>/tests/data/missing.json\n"
    assert lines == [
        hashlib.sha256(f"{stdout}\0\0{0}".encode()).hexdigest()[:16]
        + " 0 growth --preset path:3 --cutoff 3",
        hashlib.sha256(f"\0{stderr}\0{3}".encode()).hexdigest()[:16]
        + " 3 growth --config <root>/tests/data/missing.json --cutoff 3",
    ]
    assert cli_digest.digest_lines(ROOT, argvs) == lines


def test_matrix_runs_every_form_on_every_input_in_both_formats():
    argvs = cli_digest.matrix(ROOT)
    inputs = len(cli_digest.PRESETS) + len(list((ROOT / "tests" / "data").glob("*.json")))
    assert len(argvs) == len({tuple(a) for a in argvs}) == inputs * len(cli_digest.FORMS) * 2
    assert {a[0] for a in argvs} == {"growth", "clique-poly", "beta-c", "roots", "invert",
                                     "limsup", "verify", "gibbs", "kms-check"}
