"""tools/roots_digest.py: one digest line per graph, and one total."""

import importlib.util
import re
from pathlib import Path

from qlo import rootiso

ROOT = Path(__file__).resolve().parent.parent


def _load(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # for its `from cli_digest import`
    path = ROOT / "tools" / "roots_digest.py"
    spec = importlib.util.spec_from_file_location("roots_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_and_total_are_the_same_with_every_proposal_declined(monkeypatch, capsys):
    roots_digest = _load(monkeypatch)
    roots_digest.main(["--root", str(ROOT)])
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"total \d+ graphs [0-9a-f]{16}", lines[-1])
    assert int(lines[-1].split()[1]) == len(lines) - 1
    assert all(re.match(r"[0-9a-f]{16} ", line) for line in lines[:-1])
    labels = [line.split(" ", 1)[1] for line in lines[:-1]]
    assert labels[-2:] == ["cycle5 scale 194", "cycle5 scale 1994"]
    assert any(label.startswith("cycle:5/scale16/deg44") for label in labels)
    assert sum(label.startswith("random ") for label in labels) == roots_digest.RANDOM_GRAPHS
    # every proposal declined: nodes and brackets from one exact sign per bit
    monkeypatch.setattr(rootiso, "_certified_node", lambda *args: None)
    roots_digest.main(["--root", str(ROOT)])
    assert capsys.readouterr().out.splitlines() == lines
