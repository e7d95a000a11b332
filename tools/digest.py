"""Digest what a checkout's qlo computes, to compare checkouts line by line.

Usage, from the root of a checkout:

    python3 tools/digest.py --root ../parent > parent.txt
    python3 tools/digest.py --root . > change.txt
    diff parent.txt change.txt

``qlo`` is imported from ``<root>/src`` and ``<root>/bench/jobs.py`` is
loaded once.  Three sections follow, in this order.  Each prints one line per
item, a digest and then the item, and ends with ``total <n> <section>
<digest>``: the number of items and a digest of all the section's lines.

- ``calls``, the CLI: ``qlo.cli.main`` runs in-process on each input of the
  matrix (the PRESETS below and every ``tests/data/*.json`` of the root),
  with each of the FORMS below, in CSV and in JSON.  A line digests the
  call's stdout, stderr and exit code, then gives the exit code and the argv.
  The root path is written as ``<root>`` in the stderr and the argv, so two
  checkouts that behave alike print the same lines.  The ten slowest calls,
  with their wall times, go to stderr.
- ``graphs``, the roots (L3): a ``ThermoContext`` on each graph of a fixed
  seeded set: the graphs of the ``spectrum`` strata of ``bench/jobs.py``
  (seed 4242, two rounds), random weighted graphs of 2 to 6 letters, and the
  weighted 5-cycles {1/(d/2), 1/2, 1, 1, 1} at scales d = 194 and 1994.  A
  line digests the isolated roots (``ctx._roots``: bounds, multiplicity,
  factor), ``beta_c``, and each root's refined bracket and the
  ``clique_roots_in_unit_interval`` report at each of TOLS, then gives the
  graph's label.
- ``inputs``, the truncated representation (L4): a ``build_rep`` on every
  (preset, cutoff) of the ``gibbs`` and ``kms`` strata of ``bench/jobs.py``,
  then on every ``tests/data/*.json`` at the largest cutoff in steps of 1/2
  from 3 whose basis has at most MAX_DIM rows.  The pool is the basis traces
  of at most two letters, as in the ``kms`` job.  A line digests
  ``vacuum_projection``'s entries; the hash of each pool trace's ``left_op``
  entries, in their order; the ``nica_check`` verdict on every pair of the
  first NICA_POOL pool traces; and at each of the two betas
  BETA_FACTORS * beta_c, ``gibbs_numeric`` of the vacuum and of each pool
  trace's ``range_projection``, and the residual, bound, psi_ab and psi_ba of
  ``kms_numeric_check`` on the KMS_SAMPLES quadruples the ``kms`` job draws
  with its fixed seed and on KMS_PAIRS pairs (p, r), (r, p) drawn after
  them.  Then it gives the input's label.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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

TOLS = (1e-6, 1e-9, 1e-12, 1e-14)
SPECTRUM_SEED, SPECTRUM_ROUNDS = 4242, 2
RANDOM_SEED, RANDOM_GRAPHS = 2310, 60

MAX_DIM = 3000
BETA_FACTORS = (1.5, 3.0)
NICA_POOL = 12
KMS_PAIRS = 4


def load(root):
    """The checkout at root: the root resolved, its qlo and qlo.cli imported
    from root/src, a qlo imported from elsewhere dropped first, and its
    bench/jobs.py."""
    root = Path(root).resolve()
    src = (root / "src").resolve()
    loaded = sys.modules.get("qlo")
    if loaded is None or Path(loaded.__file__).resolve().parent != src / "qlo":
        for name in [k for k in sys.modules if k == "qlo" or k.startswith("qlo.")]:
            del sys.modules[name]
        sys.path.insert(0, str(src))
    cli = importlib.import_module("qlo.cli")
    if Path(cli.__file__).resolve().parent != src / "qlo":
        raise RuntimeError(f"imported qlo.cli from {cli.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("digest_jobs", root / "bench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return SimpleNamespace(root=root, qlo=sys.modules["qlo"], cli=cli, jobs=jobs)


def _hash(parts, sep="\n"):
    return hashlib.sha256(sep.join(map(str, parts)).encode()).hexdigest()[:16]


def matrix(root):
    """Every argv of the matrix: each input with each form, in CSV then JSON."""
    configs = sorted((Path(root) / "tests" / "data").glob("*.json"))
    inputs = [["--preset", name] for name in PRESETS]
    inputs += [["--config", str(path)] for path in configs]
    return [
        form + graph + ["--format", fmt]
        for graph in inputs for form in FORMS for fmt in ("csv", "json")
    ]


def call_line(checkout, argv):
    """The call's digest, exit code and argv, the root masked."""
    out, err, mask = io.StringIO(), io.StringIO(), str(checkout.root)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = checkout.cli.main(list(argv))
    digest = _hash([out.getvalue(), err.getvalue().replace(mask, "<root>"), code], "\0")
    return f"{digest} {code} {' '.join(argv).replace(mask, '<root>')}"


def calls(checkout):
    times = []
    for argv in matrix(checkout.root):
        start = time.perf_counter()
        line = call_line(checkout, argv)
        times.append((time.perf_counter() - start, line.split(" ", 2)[2]))
        yield line
    print("slowest calls:", file=sys.stderr)
    for seconds, call in sorted(times, reverse=True)[:10]:
        print(f"{seconds:8.2f} s  {call}", file=sys.stderr)


def _fraction(x):
    """Hex numerator/denominator: exact, and free of the decimal digit limit."""
    return f"{x.numerator:x}/{x.denominator:x}"


def _estimate(r):
    return (f"{r.value!r} {r.multiplicity} {r.is_exact} {r.merged} "
            f"{_fraction(r.t_lo)} {_fraction(r.t_hi)}")


def _roots(qlo, graph):
    """A digest of the roots, beta_c and the refined brackets of one graph."""
    ctx = qlo.ThermoContext(graph)
    parts = [repr(ctx._roots), repr(ctx.beta_c)]
    for tol in TOLS:
        for root in ctx._roots:
            parts.append(" ".join(map(_fraction, qlo.thermo._refine_root(ctx, root, tol))))
        report = qlo.clique_roots_in_unit_interval(ctx, tol)
        parts += [_estimate(r) for r in report.roots]
        parts.append(repr([report.roots.index(r) for r in report.subcritical]))
    return _hash(parts)


def graphs(checkout):
    qlo, jobs = checkout.qlo, checkout.jobs
    for round_ in jobs.make_plan(qlo, "spectrum", SPECTRUM_SEED, SPECTRUM_ROUNDS):
        for job in round_:
            yield f"{_roots(qlo, jobs._spectrum_graph(qlo, job))} {job['stratum']} {job['numerators']}"
    rng = random.Random(RANDOM_SEED)
    for _ in range(RANDOM_GRAPHS):
        names = "abcdef"[: rng.randint(2, 6)]
        edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < 0.5]
        weights = {}
        for s in names:
            d = rng.choice((1, 2, 3, 4, 6))
            weights[s] = Fraction(rng.randint((d + 1) // 2, 2 * d), d)
        label = " ".join(f"{s}={w}" for s, w in weights.items())
        yield f"{_roots(qlo, qlo.build_graph(names, weights, edges))} random {label} {edges}"
    for d in (194, 1994):
        weights = dict(zip("abcde", (Fraction(2, d), Fraction(1, 2), 1, 1, 1)))
        edges = [("abcde"[i], "abcde"[(i + 1) % 5]) for i in range(5)]
        yield f"{_roots(qlo, qlo.build_graph('abcde', weights, edges))} cycle5 scale {d}"


def _report(qlo, rep, pair1, pair2, beta):
    r = qlo.kms_numeric_check(rep, pair1, pair2, beta)
    return r.residual, r.bound, r.psi_ab, r.psi_ba


def _rep(checkout, graph, cutoff):
    """A digest of the representation's operators and floats on one input."""
    qlo, jobs = checkout.qlo, checkout.jobs
    rep = qlo.build_rep(graph, cutoff)
    pool = [t for t in qlo.enumerate_up_to(graph, cutoff) if t.length <= 2]
    vacuum = qlo.vacuum_projection(rep)
    parts = [rep.dim, list(vacuum.entries.items())]
    parts += [_hash(qlo.left_op(rep, p).entries.items()) for p in pool]
    head = pool[:NICA_POOL]
    parts.append([qlo.nica_check(rep, p, q) for p in head for q in head])
    rng = random.Random(jobs.KMS_CLI_SEED)
    quads = [[rng.choice(pool) for _ in range(4)] for _ in range(jobs.KMS_SAMPLES)]
    for _ in range(KMS_PAIRS):
        p, r = rng.choice(pool), rng.choice(pool)
        quads.append([p, r, r, p])
    beta_c = rep.thermo().beta_c or 0.5  # beta_c is 0 on one letter
    for factor in BETA_FACTORS:
        beta = factor * beta_c
        parts += [repr(beta), repr(qlo.gibbs_numeric(rep, vacuum, beta))]
        parts += [repr(qlo.gibbs_numeric(rep, qlo.range_projection(rep, p), beta)) for p in pool]
        parts += [repr(_report(qlo, rep, (p1, q1), (p2, q2), beta)) for p1, q1, p2, q2 in quads]
    return _hash(parts)


def inputs(checkout):
    qlo, jobs = checkout.qlo, checkout.jobs
    for family, cutoff in dict.fromkeys([*jobs.GIBBS_STRATA, *jobs.KMS_STRATA]):
        yield f"{_rep(checkout, qlo.preset_graph(family), Fraction(cutoff))} {family} W={cutoff}"
    for path in sorted((checkout.root / "tests" / "data").glob("*.json")):
        graph = checkout.cli.parse_config(path).to_graph()
        cutoff = Fraction(3)
        while cutoff > 0 and qlo.growth_table(graph, cutoff).total() > MAX_DIM:
            cutoff -= Fraction(1, 2)
        yield f"{_rep(checkout, graph, cutoff)} {path.name} W={cutoff}"


SECTIONS = {"calls": calls, "graphs": graphs, "inputs": inputs}


def section(checkout, name):
    """The section's lines, then its total line."""
    lines = list(SECTIONS[name](checkout))
    return lines + [f"total {len(lines)} {name} {_hash(lines)}"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/qlo runs (default: this one)")
    checkout = load(parser.parse_args(argv).root)
    for name in SECTIONS:
        print("\n".join(section(checkout, name)))


if __name__ == "__main__":
    main()
