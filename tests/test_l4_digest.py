"""tools/l4_digest.py: one digest line per input, and one total."""

import importlib.util
import re
from pathlib import Path

import qlo

ROOT = Path(__file__).resolve().parent.parent


def _load(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # for its `from cli_digest import`
    path = ROOT / "tools" / "l4_digest.py"
    spec = importlib.util.spec_from_file_location("l4_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_and_total_are_the_same_on_dict_form_operators(monkeypatch, capsys):
    l4_digest = _load(monkeypatch)
    l4_digest.main(["--root", str(ROOT)])
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"total \d+ inputs [0-9a-f]{16}", lines[-1])
    assert int(lines[-1].split()[1]) == len(lines) - 1
    assert all(re.match(r"[0-9a-f]{16} ", line) for line in lines[:-1])
    labels = [line.split(" ", 1)[1] for line in lines[:-1]]
    assert labels[:3] == ["path:3 W=7", "free:2 W=9", "cycle:4 W=6"]
    data = sorted(p.name for p in (ROOT / "tests" / "data").glob("*.json"))
    assert [label.split()[0] for label in labels if ".json" in label] == data
    assert len(set(lines[:-1])) == len(lines) - 1
    # translations and projections held as entries dicts give the same digest
    for name in ("left_op", "range_projection"):
        real = getattr(qlo, name)
        monkeypatch.setattr(qlo, name, lambda *a, real=real: qlo.SparseOperator(a[0].dim, real(*a).entries))
    l4_digest.main(["--root", str(ROOT)])
    assert capsys.readouterr().out.splitlines() == lines
