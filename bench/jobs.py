"""Job plans, job bodies and output checks for the three benchmark workloads.

A job is the sequence of public ``qlo`` calls one CLI subcommand makes, on a
graph built fresh for that job, followed by checks of its outputs.  Every
library call goes through attributes of the ``qlo`` package passed in as
``q``, so that a tracer can interpose on them from outside the program.

Each workload has fixed strata; one round of a plan holds one job per
stratum.  The seed chooses only values inside a stratum (beta factors,
words, weight numerators), so every seed gives the same cost mix.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import tempfile
from fractions import Fraction

WORKLOADS = ("kms", "gibbs", "spectrum")

# (preset, cutoff W).  Cutoffs sit one or two levels below the ones the
# acceptance criteria use, so that a job takes about 0.1-0.3 s on a 2-core
# box and a 35 s run completes well over 100 jobs.
# The first stratum is the one the run compares with the CLI.
KMS_STRATA = (("path:3", 7), ("free:2", 8), ("cycle:4", 6), ("cycle:5", 4), ("path:4", 5))
GIBBS_STRATA = (("path:3", 7), ("free:2", 9), ("cycle:4", 6), ("cycle:5", 5), ("path:4", 5))
# (preset, weight scale, scaled degree of the clique polynomial).  Weights
# are n/scale with n in [1, 2*scale], drawn until the heaviest clique weighs
# exactly degree/scale.  Root isolation cost climbs steeply with the degree:
# at ~60 a job takes 0.3 s, at ~76 over 1 s, at scale 194 (degree 388) 47 s,
# so the strata stop at 44 and keep each job under ~0.2 s.
SPECTRUM_STRATA = (
    ("path:5", 10, 28), ("free:4", 6, 12), ("path:4", 8, 20), ("cycle:4", 12, 36), ("cycle:5", 16, 44),
)
SPECTRUM_CUTOFF = 12

KMS_SAMPLES = 3  # numeric kms_numeric_check samples, drawn as kms-check does
KMS_CLI_SEED = 2024  # the fixed sample seed of the kms-check subcommand
# Those samples come out with residual exactly 0, so each job also checks
# seed-drawn pairs A = L_p L_q^*, B = L_q L_p^*, whose products have a
# diagonal and so a rounding-level residual to hold against the bound.
KMS_SEEDED_SAMPLES = 2
KMS_WORDS = 32  # normalized random words per job
KMS_QUADS = 200  # symbolic quadruples per job
GIBBS_PROJECTIONS = 4  # range projections per job
BETA_FACTORS = (1.2, 3.0)  # beta is drawn in this range times beta_c
ROOT_TOL = 1e-12
PARITY_REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output check of a job did not hold."""


def _check(condition, what):
    if not condition:
        raise CheckFailed(what)


def _max_clique_sum(gens, edges, nums):
    adjacent = {frozenset(e) for e in edges}
    best = 0
    for size in range(1, len(gens) + 1):
        for subset in itertools.combinations(range(len(gens)), size):
            pairs = itertools.combinations(subset, 2)
            if all(frozenset((gens[i], gens[j])) in adjacent for i, j in pairs):
                best = max(best, sum(nums[i] for i in subset))
    return best


def _random_word(rng, gens, min_len, max_len):
    return "".join(rng.choice(gens) for _ in range(rng.randint(min_len, max_len)))


def _shape(q, family):
    _, _, gens, edges = q.preset_spec(family)
    return gens, edges


def _kms_spec(q, rng, family, cutoff):
    gens, _ = _shape(q, family)
    words = [_random_word(rng, gens, 0, 4) for _ in range(KMS_WORDS)]
    quads = [tuple(rng.randrange(KMS_WORDS) for _ in range(5)) for _ in range(KMS_QUADS)]
    return {
        "workload": "kms",
        "stratum": f"{family}/W{cutoff}",
        "family": family,
        "cutoff": cutoff,
        "beta_factor": rng.uniform(*BETA_FACTORS),
        "numeric_pairs": [(rng.random(), rng.random()) for _ in range(KMS_SEEDED_SAMPLES)],
        "words": words,
        "quads": quads,
    }


def _gibbs_spec(q, rng, family, cutoff):
    gens, _ = _shape(q, family)
    words = [_random_word(rng, gens, 1, 3) for _ in range(GIBBS_PROJECTIONS)]
    return {
        "workload": "gibbs",
        "stratum": f"{family}/W{cutoff}",
        "family": family,
        "cutoff": cutoff,
        "beta_factor": rng.uniform(*BETA_FACTORS),
        "words": words,
    }


def _spectrum_spec(q, rng, family, scale, degree):
    gens, edges = _shape(q, family)
    while True:
        nums = [rng.randint(1, 2 * scale) for _ in gens]
        # a common factor with the scale would put the weights on a coarser lattice
        if math.gcd(scale, *nums) == 1 and _max_clique_sum(gens, edges, nums) == degree:
            break
    return {
        "workload": "spectrum",
        "stratum": f"{family}/scale{scale}/deg{degree}",
        "family": family,
        "scale": scale,
        "degree": degree,
        "numerators": nums,
    }


_SPEC_MAKERS = {
    "kms": (_kms_spec, KMS_STRATA),
    "gibbs": (_gibbs_spec, GIBBS_STRATA),
    "spectrum": (_spectrum_spec, SPECTRUM_STRATA),
}


def make_plan(q, workload, seed, rounds):
    """`rounds` rounds of job specs, one per stratum, from the seed alone."""
    make, strata = _SPEC_MAKERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [[make(q, rng, *stratum) for stratum in strata] for _ in range(rounds)]


# -- job bodies ----------------------------------------------------------------


def _spectrum_graph(q, spec):
    gens, edges = _shape(q, spec["family"])
    weights = {s: Fraction(n, spec["scale"]) for s, n in zip(gens, spec["numerators"])}
    return q.build_graph(gens, weights, edges)


def run_kms(q, spec):
    """kms-check on a preset, then symbolic twisted-trace quadruples."""
    graph = q.preset_graph(spec["family"])
    cutoff = spec["cutoff"]
    rep = q.build_rep(graph, cutoff)
    ctx = rep.thermo()
    beta = spec["beta_factor"] * ctx.beta_c
    pool = [t for t in q.enumerate_up_to(graph, cutoff) if t.length <= 2]
    for p in pool:
        q.left_op(rep, p)
    rng = random.Random(KMS_CLI_SEED)
    samples = []
    for _ in range(KMS_SAMPLES):
        p1, q1, p2, q2 = (rng.choice(pool) for _ in range(4))
        report = q.kms_numeric_check(rep, (p1, q1), (p2, q2), beta)
        _check(report.ok, f"kms_numeric_check residual {report.residual} > bound {report.bound}")
        samples.append(([t.serialize() for t in (p1, q1, p2, q2)], report.residual, report.bound))
    for u, v in spec["numeric_pairs"]:
        p, r = pool[int(u * len(pool))], pool[int(v * len(pool))]
        report = q.kms_numeric_check(rep, (p, r), (r, p), beta)
        _check(report.ok, f"kms_numeric_check residual {report.residual} > bound {report.bound}")

    words = [q.normalize(graph, w) for w in spec["words"]]
    for i1, i2, i3, i4, iz in spec["quads"]:
        p1, q1, p2, q2, z = (words[i] for i in (i1, i2, i3, i4, iz))
        _check(q.kms_identity_check(p1, q1, p2, q2).holds, "kms_identity_check")
        pieces = q.wick(p1, q1)
        bound = q.join(p1, q1)
        if pieces is None:
            _check(bound is q.INFINITY, "wick collapsed but the join is finite")
        else:
            a, b = pieces
            _check(q.multiply(p1, a) == q.multiply(q1, b), "wick round trip p*a == q*b")
        translated = q.join(q.multiply(z, p1), q.multiply(z, q1))
        if bound is q.INFINITY:
            _check(translated is q.INFINITY, "translated join of a join-free pair")
        else:
            _check(
                translated is not q.INFINITY and translated == q.multiply(z, bound),
                "translation identity join(zp, zq) == z*join(p, q)",
            )
    return {"beta": beta, "dim": rep.dim, "samples": samples}


def run_gibbs(q, spec):
    """gibbs on a preset, then diagonal monomial values (criterion 10)."""
    graph = q.preset_graph(spec["family"])
    cutoff = spec["cutoff"]
    ctx = q.ThermoContext(graph)
    beta = spec["beta_factor"] * ctx.beta_c
    rep = q.build_rep(graph, cutoff)
    rep._thermo = ctx  # the gibbs subcommand shares its context the same way
    vacuum = q.vacuum_projection(rep)
    quantities = {
        "dimension": rep.dim,
        "Z_closed": q.partition_function(ctx, beta),
        "Z_truncated": q.partition_function(ctx, beta, "truncated", cutoff=cutoff),
        "psi_vacuum": q.gibbs_numeric(rep, vacuum, beta),
        "tail_bound": q.tail_mass(ctx, beta, cutoff),
    }
    _check(rep.dim == q.growth_table(graph, cutoff).total(), "dim == growth_table(W).total()")
    for word in spec["words"]:
        p = q.normalize(graph, word)
        got = q.gibbs_numeric(rep, q.range_projection(rep, p), beta)
        want = q.gibbs_value(p, p).value_at(beta)
        tail = q.tail_mass(ctx, beta, cutoff, up_to=Fraction(cutoff) - p.weight)
        _check(abs(got - want) <= want * tail + 1e-12, f"gibbs value of {word} within the tail bound")
    return {"beta": beta, "dim": rep.dim, "quantities": quantities}


def run_spectrum(q, spec):
    """roots, invert and limsup on a rational-weight graph (criteria 01-05)."""
    graph = _spectrum_graph(q, spec)
    poly = q.clique_polynomial(graph)
    ctx = q.ThermoContext(graph)
    report = q.clique_roots_in_unit_interval(ctx, ROOT_TOL)
    table = q.growth_table(graph, SPECTRUM_CUTOFF)
    series = q.invert_series(poly, SPECTRUM_CUTOFF)
    inversion = q.verify_inversion(graph, SPECTRUM_CUTOFF)
    q.beta_critical_limsup_estimate(ctx, SPECTRUM_CUTOFF)

    _check(inversion.match, f"verify_inversion mismatch at {inversion.first_mismatch}")
    _check(table.counts() == series.terms, "growth counts equal the reciprocal series")
    _check(ctx.beta_c <= ctx.lemma_bound + 1e-10, "beta_c <= log|S| / min weight")
    smallest = report.roots[0]
    _check(abs(math.exp(-ctx.beta_c) - smallest.value) <= 2 * ROOT_TOL, "exp(-beta_c) is the smallest root")
    _check(all(r.value > smallest.value for r in report.roots[1:]), "roots are reported in increasing order")
    return {
        "scale": poly.scale,
        "degree": int(poly.degree * poly.scale),
        "roots": [(r.value, r.multiplicity, r.is_exact, r in report.subcritical) for r in report.roots],
    }


RUNNERS = {"kms": run_kms, "gibbs": run_gibbs, "spectrum": run_spectrum}


# -- CLI parity ----------------------------------------------------------------


def _close(a, b):
    return math.isclose(a, b, rel_tol=PARITY_REL_TOL, abs_tol=1e-15)


def _run_cli(cli, argv):
    """Exit code and parsed JSON output (None when it printed nothing)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "json"])
    return code, json.loads(out.getvalue()) if out.getvalue().strip() else None


def cli_parity(q, cli, spec, result, workdir):
    """Run the matching subcommand in-process and compare with a job result.

    Returns a list of mismatch descriptions; empty means the CLI printed the
    values the job computed.  `workdir` holds the temporary config file the
    spectrum comparison needs.
    """
    problems = []
    if spec["workload"] == "kms":
        code, out = _run_cli(cli, [
            "kms-check", "--preset", spec["family"], "--beta", repr(result["beta"]),
            "--cutoff", str(spec["cutoff"]), "--samples", str(KMS_SAMPLES),
        ])
        if code != 0 or out is None:
            return [f"kms-check exit {code}"]
        for row, (monomials, residual, bound) in zip(out["results"], result["samples"]):
            if row["monomials"] != monomials:
                problems.append(f"kms-check drew {row['monomials']}, job drew {monomials}")
            elif not (_close(row["residual"], residual) and _close(row["bound"], bound)):
                problems.append(f"kms-check residual/bound differ on {monomials}")
    elif spec["workload"] == "gibbs":
        code, out = _run_cli(cli, [
            "gibbs", "--preset", spec["family"], "--beta", repr(result["beta"]),
            "--cutoff", str(spec["cutoff"]),
        ])
        if code != 0 or out is None:
            return [f"gibbs exit {code}"]
        for name, value in result["quantities"].items():
            if not _close(out[name], value):
                problems.append(f"gibbs {name}: cli {out[name]} job {value}")
    else:
        gens, edges = _shape(q, spec["family"])
        config = cli.MonoidConfig(
            generators=[(s, Fraction(n, spec["scale"])) for s, n in zip(gens, spec["numerators"])],
            commuting_pairs=edges,
        )
        path = os.path.join(workdir, "spectrum.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cli.emit_config(config))
        code, out = _run_cli(cli, ["roots", "--config", path])
        if code != 0 or out is None:
            return [f"roots exit {code}"]
        rows = [(r["value"], r["multiplicity"], r["exact"], r["subcritical"]) for r in out["roots"]]
        if len(rows) != len(result["roots"]) or not all(
            _close(a[0], b[0]) and a[1:] == b[1:] for a, b in zip(rows, result["roots"])
        ):
            problems.append(f"roots: cli {rows} job {result['roots']}")
    return problems


def parity_workdir(root):
    """A temporary directory inside the checkout, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=root)
