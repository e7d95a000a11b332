"""tools/digest.py: each section's lines and total; every test runs one section."""

import hashlib
import importlib.util
import re
from pathlib import Path

import qlo
from qlo import rootiso

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def _section(checkout, name):
    """The section's item lines, after checking its line and total formats."""
    *lines, total = digest.section(checkout, name)
    whole = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert total == f"total {len(lines)} {name} {whole}"
    assert all(re.match(r"[0-9a-f]{16} ", line) for line in lines)
    return lines


def test_call_lines_hash_each_call_and_mask_the_root():
    checkout = digest.load(ROOT)
    missing = str(ROOT / "tests" / "data" / "missing.json")
    argvs = [
        ["growth", "--preset", "path:3", "--cutoff", "3"],
        ["growth", "--config", missing, "--cutoff", "3"],
    ]
    lines = [digest.call_line(checkout, argv) for argv in argvs]
    stdout = "lambda_num,lambda_den,a_n\n0,1,1\n1,1,3\n2,1,7\n3,1,15\n"
    stderr = "error: config file not found: <root>/tests/data/missing.json\n"
    assert lines == [
        hashlib.sha256(f"{stdout}\0\0{0}".encode()).hexdigest()[:16]
        + " 0 growth --preset path:3 --cutoff 3",
        hashlib.sha256(f"\0{stderr}\0{3}".encode()).hexdigest()[:16]
        + " 3 growth --config <root>/tests/data/missing.json --cutoff 3",
    ]
    assert [digest.call_line(checkout, argv) for argv in argvs] == lines


def test_calls_section_totals_its_lines_and_ranks_its_slowest_calls(monkeypatch, capsys):
    monkeypatch.setattr(digest, "matrix", lambda root: [["clique-poly", "--preset", "path:3"]])
    assert len(_section(digest.load(ROOT), "calls")) == 1
    assert capsys.readouterr().err.splitlines()[0] == "slowest calls:"


def test_matrix_runs_every_form_on_every_input_in_both_formats():
    argvs = digest.matrix(ROOT)
    inputs = len(digest.PRESETS) + len(list((ROOT / "tests" / "data").glob("*.json")))
    assert len(argvs) == len({tuple(a) for a in argvs}) == inputs * len(digest.FORMS) * 2
    assert {a[0] for a in argvs} == {"growth", "clique-poly", "beta-c", "roots", "invert",
                                     "limsup", "verify", "gibbs", "kms-check"}


def test_graph_lines_and_total_are_the_same_with_every_proposal_declined(monkeypatch):
    checkout = digest.load(ROOT)
    lines = _section(checkout, "graphs")
    labels = [line.split(" ", 1)[1] for line in lines]
    assert labels[-2:] == ["cycle5 scale 194", "cycle5 scale 1994"]
    assert any(label.startswith("cycle:5/scale16/deg44") for label in labels)
    assert sum(label.startswith("random ") for label in labels) == digest.RANDOM_GRAPHS
    # every proposal declined: nodes and brackets from one exact sign per bit
    monkeypatch.setattr(rootiso, "_certified_node", lambda *args: None)
    assert _section(checkout, "graphs") == lines


def test_input_lines_and_total_are_the_same_on_dict_form_operators(monkeypatch):
    checkout = digest.load(ROOT)
    lines = _section(checkout, "inputs")
    labels = [line.split(" ", 1)[1] for line in lines]
    assert labels[:3] == ["path:3 W=7", "free:2 W=9", "cycle:4 W=6"]
    data = sorted(p.name for p in (ROOT / "tests" / "data").glob("*.json"))
    assert [label.split()[0] for label in labels if ".json" in label] == data
    assert len(set(lines)) == len(lines)
    # translations and projections held as entries dicts give the same digest
    for name in ("left_op", "range_projection"):
        real = getattr(qlo, name)
        monkeypatch.setattr(qlo, name, lambda *a, real=real: qlo.SparseOperator(a[0].dim, real(*a).entries))
    assert _section(checkout, "inputs") == lines
