"""Digest the clique-polynomial roots of a fixed graph set, to compare checkouts.

Usage, from the root of a checkout:

    python3 tools/roots_digest.py --root ../parent > parent.txt
    python3 tools/roots_digest.py --root . > change.txt
    diff parent.txt change.txt

``qlo`` is imported from ``<root>/src`` (as ``tools/cli_digest.py`` does)
and a ``ThermoContext`` is built on each graph of a fixed seeded set: the
graphs of the ``spectrum`` strata of ``<root>/bench/jobs.py`` (seed 4242,
two rounds), random weighted graphs of 2 to 6 letters, and the weighted
5-cycles {1/(d/2), 1/2, 1, 1, 1} at scales d = 194 and 1994.  Each graph
prints one line: a digest of the isolated roots (``ctx._roots``: bounds,
multiplicity, factor), of ``beta_c``, and of each root's refined bracket and
the ``clique_roots_in_unit_interval`` report at each of TOLS, then the
graph's label.  The last line gives the number of graphs and a digest of all
the lines before it.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from cli_digest import load_cli

TOLS = (1e-6, 1e-9, 1e-12, 1e-14)
SPECTRUM_SEED, SPECTRUM_ROUNDS = 4242, 2
RANDOM_SEED, RANDOM_GRAPHS = 2310, 60


def graphs(root, qlo):
    """(label, graph) for every graph of the set, in a fixed order."""
    path = Path(root) / "bench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("roots_digest_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    for round_ in jobs.make_plan(qlo, "spectrum", SPECTRUM_SEED, SPECTRUM_ROUNDS):
        for job in round_:
            yield f"{job['stratum']} {job['numerators']}", jobs._spectrum_graph(qlo, job)
    rng = random.Random(RANDOM_SEED)
    for _ in range(RANDOM_GRAPHS):
        names = "abcdef"[: rng.randint(2, 6)]
        edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < 0.5]
        weights = {}
        for s in names:
            d = rng.choice((1, 2, 3, 4, 6))
            weights[s] = Fraction(rng.randint((d + 1) // 2, 2 * d), d)
        label = " ".join(f"{s}={w}" for s, w in weights.items())
        yield f"random {label} {edges}", qlo.build_graph(names, weights, edges)
    for d in (194, 1994):
        weights = dict(zip("abcde", (Fraction(2, d), Fraction(1, 2), 1, 1, 1)))
        edges = [("abcde"[i], "abcde"[(i + 1) % 5]) for i in range(5)]
        yield f"cycle5 scale {d}", qlo.build_graph("abcde", weights, edges)


def _fraction(x):
    """Hex numerator/denominator: exact, and free of the decimal digit limit."""
    return f"{x.numerator:x}/{x.denominator:x}"


def _estimate(r):
    return (f"{r.value!r} {r.multiplicity} {r.is_exact} {r.merged} "
            f"{_fraction(r.t_lo)} {_fraction(r.t_hi)}")


def digest_graph(qlo, graph):
    """A digest of the roots, beta_c and the refined brackets of one graph."""
    from qlo.thermo import _refine_root

    ctx = qlo.ThermoContext(graph)
    parts = [repr(ctx._roots), repr(ctx.beta_c)]
    for tol in TOLS:
        for root in ctx._roots:
            parts.append(" ".join(map(_fraction, _refine_root(ctx, root, tol))))
        report = qlo.clique_roots_in_unit_interval(ctx, tol)
        parts += [_estimate(r) for r in report.roots]
        parts.append(repr([report.roots.index(r) for r in report.subcritical]))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/qlo runs (default: this one)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    load_cli(root)
    qlo = sys.modules["qlo"]
    lines = [f"{digest_graph(qlo, graph)} {label}" for label, graph in graphs(root, qlo)]
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    print("\n".join(lines))
    print(f"total {len(lines)} graphs {total}")


if __name__ == "__main__":
    main()
