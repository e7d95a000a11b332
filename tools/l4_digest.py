"""Digest the truncated representation's operators and floats, to compare checkouts.

Usage, from the root of a checkout:

    python3 tools/l4_digest.py --root ../parent > parent.txt
    python3 tools/l4_digest.py --root . > change.txt
    diff parent.txt change.txt

``qlo`` is imported from ``<root>/src`` (as ``tools/cli_digest.py`` does) and
a ``build_rep`` is made on each input: every (preset, cutoff) of the ``gibbs``
and ``kms`` strata of ``<root>/bench/jobs.py``, then every
``tests/data/*.json`` at the largest cutoff in steps of 1/2 from 3 whose basis
has at most MAX_DIM rows.  The pool is the basis traces of at most two letters,
as in the ``kms`` job.  Each input prints one line: a digest of

- ``vacuum_projection``'s entries;
- the hash of each pool trace's ``left_op`` entries, in their order;
- the ``nica_check`` verdict on every pair of the first NICA_POOL pool traces;
- at each of the two betas BETA_FACTORS * beta_c: ``gibbs_numeric`` of the
  vacuum and of each pool trace's ``range_projection``, and the residual,
  bound, psi_ab and psi_ba of ``kms_numeric_check`` on the KMS_SAMPLES
  quadruples the ``kms`` job draws with its fixed seed and on KMS_PAIRS
  pairs (p, r), (r, p) drawn after them;

then the input's label.  The last line gives the number of inputs and a
digest of all the lines before it.  Only the standard library is used.
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

MAX_DIM = 3000
BETA_FACTORS = (1.5, 3.0)
NICA_POOL = 12
KMS_PAIRS = 4


def _jobs(root):
    path = Path(root) / "bench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("l4_digest_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs


def inputs(root, qlo, cli, jobs):
    """(label, graph, cutoff) for every input, in a fixed order."""
    strata = dict.fromkeys([*jobs.GIBBS_STRATA, *jobs.KMS_STRATA])
    for family, cutoff in strata:
        yield f"{family} W={cutoff}", qlo.preset_graph(family), Fraction(cutoff)
    for path in sorted((Path(root) / "tests" / "data").glob("*.json")):
        graph = cli.parse_config(path).to_graph()
        cutoff = Fraction(3)
        while cutoff > 0 and qlo.growth_table(graph, cutoff).total() > MAX_DIM:
            cutoff -= Fraction(1, 2)
        yield f"{path.name} W={cutoff}", graph, cutoff


def _hash(parts):
    return hashlib.sha256("\n".join(map(str, parts)).encode()).hexdigest()[:16]


def _report(qlo, rep, pair1, pair2, beta):
    r = qlo.kms_numeric_check(rep, pair1, pair2, beta)
    return r.residual, r.bound, r.psi_ab, r.psi_ba


def digest_input(qlo, jobs, graph, cutoff):
    """A digest of the representation's operators and floats on one input."""
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/qlo runs (default: this one)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    cli = load_cli(root)
    qlo, jobs = sys.modules["qlo"], _jobs(root)
    lines = [f"{digest_input(qlo, jobs, graph, cutoff)} {label}"
             for label, graph, cutoff in inputs(root, qlo, cli, jobs)]
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    print("\n".join(lines))
    print(f"total {len(lines)} inputs {total}")


if __name__ == "__main__":
    main()
