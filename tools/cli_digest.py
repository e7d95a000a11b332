"""Digest the output of every CLI call in a fixed matrix, to compare checkouts.

Usage, from the root of a checkout:

    python3 tools/cli_digest.py --root ../parent > parent.txt
    python3 tools/cli_digest.py --root . > change.txt
    diff parent.txt change.txt

``qlo.cli.main`` runs in-process, imported from ``<root>/src``, on each
input of the matrix (the PRESETS below and every ``tests/data/*.json`` of
the root), with each of the FORMS below, in CSV and in JSON.  Each call prints
one line: a digest of its stdout, its stderr and its exit code, then the exit
code and the argv.  The root path is written as ``<root>`` in the stderr and
the argv, so two checkouts that behave alike print the same lines.  The last
line gives the number of calls and a digest of all the lines before it.  The
ten slowest calls, with their wall times, go to stderr.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import sys
import time
from pathlib import Path

PRESETS = ["free:2", "abelian:2", "path:3", "path:4", "cycle:4", "cycle:5"]

FORMS = [
    ["growth", "--cutoff", "3"],
    ["growth", "--cutoff", "5/2"],
    ["growth", "--cutoff", "-1"],
    ["clique-poly"],
    ["beta-c"],
    ["beta-c", "--tol", "1e-6"],
    ["roots"],
    ["invert", "--cutoff", "4"],
    ["limsup", "--cutoff", "6"],
    ["verify", "--cutoff", "1"],
    ["gibbs", "--beta", "6", "--cutoff", "4"],
    ["gibbs", "--beta", "0.5", "--cutoff", "4"],
    ["kms-check", "--beta", "6", "--cutoff", "3", "--samples", "4"],
    ["kms-check", "--beta", "6", "--cutoff", "3/2", "--samples", "4"],
    ["kms-check", "--beta", "0.5", "--cutoff", "3"],
]


def load_cli(root):
    """qlo.cli imported from root/src; a qlo imported from elsewhere is dropped first."""
    src = (Path(root) / "src").resolve()
    loaded = sys.modules.get("qlo")
    if loaded is None or Path(loaded.__file__).resolve().parent != src / "qlo":
        for name in [k for k in sys.modules if k == "qlo" or k.startswith("qlo.")]:
            del sys.modules[name]
        sys.path.insert(0, str(src))
    cli = importlib.import_module("qlo.cli")
    if Path(cli.__file__).resolve().parent != src / "qlo":
        raise RuntimeError(f"imported qlo.cli from {cli.__file__}, not from {src}")
    return cli


def matrix(root):
    """Every argv of the matrix: each input with each form, in CSV then JSON."""
    configs = sorted((Path(root) / "tests" / "data").glob("*.json"))
    inputs = [["--preset", name] for name in PRESETS]
    inputs += [["--config", str(path)] for path in configs]
    return [
        form + graph + ["--format", fmt]
        for graph in inputs for form in FORMS for fmt in ("csv", "json")
    ]


def digest_lines(root, argvs):
    """One line per argv: the call's digest, exit code and argv, the root masked."""
    cli, mask = load_cli(root), str(Path(root).resolve())
    lines = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        blob = "\0".join([out.getvalue(), err.getvalue().replace(mask, "<root>"), str(code)])
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        lines.append(f"{digest} {code} {' '.join(argv).replace(mask, '<root>')}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/qlo runs (default: this one)")
    args = parser.parse_args(argv)
    lines, times = [], []
    for call in matrix(Path(args.root).resolve()):
        start = time.perf_counter()
        lines += digest_lines(args.root, [call])
        times.append((time.perf_counter() - start, lines[-1].split(" ", 2)[2]))
    print("slowest calls:", file=sys.stderr)
    for seconds, call in sorted(times, reverse=True)[:10]:
        print(f"{seconds:8.2f} s  {call}", file=sys.stderr)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    print("\n".join(lines))
    print(f"total {len(lines)} calls {total}")


if __name__ == "__main__":
    main()
