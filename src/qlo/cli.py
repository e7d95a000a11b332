"""Command line interface: presets or JSON configs in, CSV/JSON out.

Exit codes: 0 success, 2 usage, 3 validation (config or graph), 4
computation (e.g. beta at or below the critical value), 5 verification
failure.  Weights are exact rationals serialized as {"num": .., "den": ..}
objects; floats are rejected.  All floating-point output is printed with 15
significant digits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import fock, thermo
from .growth import (
    clique_polynomial,
    enumerate_up_to,
    growth_table,
    invert_series,
    is_lattice_ordered,
    verify_inversion,
)
from .monoid import (
    GraphError,
    INFINITY,
    build_graph,
    divides,
    join,
    multiply,
    wick,
)
from .presets import preset_spec
from .thermo import ComputationError, ThermoContext

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_COMPUTATION = 4
EXIT_VERIFICATION = 5


class ConfigError(ValueError):
    """Config file problem; the message names the offending field."""


@dataclass
class MonoidConfig:
    generators: list  # of (name, Fraction weight)
    commuting_pairs: list  # of (name, name)
    label: str | None = None

    def to_graph(self):
        names = [name for name, _ in self.generators]
        weights = {name: w for name, w in self.generators}
        return build_graph(names, weights, self.commuting_pairs)

    def to_json_dict(self):
        out = {
            "generators": [
                {
                    "name": name,
                    "weight": {"num": w.numerator, "den": w.denominator},
                }
                for name, w in self.generators
            ],
            "commuting_pairs": [list(pair) for pair in self.commuting_pairs],
        }
        if self.label is not None:
            out["label"] = self.label
        return out


def emit_config(config):
    return json.dumps(config.to_json_dict(), indent=2) + "\n"


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _parse_weight(obj, where):
    _require(isinstance(obj, dict), f"{where}: weight must be a num/den object")
    _require(set(obj) == {"num", "den"}, f"{where}: weight needs exactly num and den")
    num, den = obj["num"], obj["den"]
    _require(isinstance(num, int) and not isinstance(num, bool), f"{where}: num must be an integer")
    _require(isinstance(den, int) and not isinstance(den, bool), f"{where}: den must be an integer")
    _require(num > 0 and den > 0, f"{where}: weight must be positive")
    return Fraction(num, den)


def config_from_dict(data, source="config"):
    _require(isinstance(data, dict), f"{source}: top level must be an object")
    allowed = {"generators", "commuting_pairs", "label"}
    for key in data:
        _require(key in allowed, f"{source}: unknown field {key!r}")
    gens_raw = data.get("generators")
    _require(isinstance(gens_raw, list) and gens_raw, f"{source}: generators must be a nonempty list")
    generators = []
    names = set()
    for i, entry in enumerate(gens_raw):
        where = f"{source}: generators[{i}]"
        _require(isinstance(entry, dict), f"{where} must be an object")
        _require(set(entry) == {"name", "weight"}, f"{where} needs exactly name and weight")
        name = entry["name"]
        _require(isinstance(name, str) and name, f"{where}: name must be a nonempty string")
        _require(name not in names, f"{where}: duplicate name {name!r}")
        names.add(name)
        generators.append((name, _parse_weight(entry["weight"], where)))
    pairs_raw = data.get("commuting_pairs", [])
    _require(isinstance(pairs_raw, list), f"{source}: commuting_pairs must be a list")
    pairs = []
    for i, pair in enumerate(pairs_raw):
        where = f"{source}: commuting_pairs[{i}]"
        _require(isinstance(pair, list) and len(pair) == 2, f"{where} must be a two-element list")
        a, b = pair
        _require(a in names and b in names, f"{where}: endpoints must be declared generators")
        _require(a != b, f"{where}: self-pair [{a!r}, {a!r}] is not allowed")
        pairs.append((a, b))
    label = data.get("label")
    if label is not None:
        _require(isinstance(label, str), f"{source}: label must be a string")
    return MonoidConfig(generators=generators, commuting_pairs=pairs, label=label)


def parse_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON ({exc})")
    return config_from_dict(data, source=path)


def preset_config(name):
    family, n, gens, edges = preset_spec(name)
    return MonoidConfig(
        generators=[(s, Fraction(1)) for s in gens],
        commuting_pairs=[tuple(e) for e in edges],
        label=f"{family}:{n}",
    )


def _thread_cap():
    raw = os.environ.get("QLO_THREADS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError("QLO_THREADS must be a positive integer")
    if cap < 1:
        raise ConfigError("QLO_THREADS must be a positive integer")
    return cap


def _fmt(x):
    return f"{x:.15g}"


def _graph_from_args(args):
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        config = parse_config(args.config)
    elif args.preset:
        config = preset_config(args.preset)
    else:
        raise ConfigError("a graph is required: use --config or --preset")
    return config.to_graph()


def _emit(args, csv_lines, json_obj):
    if args.format == "json":
        print(json.dumps(json_obj, indent=2))
    else:
        for line in csv_lines:
            print(line)


# -- subcommands -------------------------------------------------------------


def _cmd_growth(args):
    graph = _graph_from_args(args)
    table = growth_table(graph, _nonnegative(args.cutoff, "--cutoff"))
    csv_lines = ["lambda_num,lambda_den,a_n"]
    csv_lines += [f"{w.numerator},{w.denominator},{n}" for w, n in table.rows]
    json_obj = {
        "cutoff": _frac_obj(table.cutoff),
        "rows": [
            {"lambda": _frac_obj(w), "count": n} for w, n in table.rows
        ],
    }
    _emit(args, csv_lines, json_obj)
    return EXIT_OK


def _cmd_clique_poly(args):
    graph = _graph_from_args(args)
    poly = clique_polynomial(graph)
    json_obj = {
        "terms": [
            {"exponent": _frac_obj(e), "coefficient": poly.terms[e]}
            for e in sorted(poly.terms)
        ]
    }
    _emit(args, [str(poly)], json_obj)
    return EXIT_OK


def _cmd_beta_c(args):
    graph = _graph_from_args(args)
    ctx = ThermoContext(graph, tol=_positive(args.tol, "--tol"))
    value = ctx.beta_c
    _emit(args, [_fmt(value)], {"beta_c": value, "tol": args.tol})
    return EXIT_OK


def _cmd_roots(args):
    graph = _graph_from_args(args)
    ctx = ThermoContext(graph)
    report = thermo.clique_roots_in_unit_interval(ctx, _positive(args.tol, "--tol"))
    csv_lines = ["value,multiplicity,subcritical"]
    rows = []
    for r in report.roots:
        inside = r in report.subcritical
        csv_lines.append(f"{_fmt(r.value)},{r.multiplicity},{int(inside)}")
        rows.append(
            {
                "value": r.value,
                "multiplicity": r.multiplicity,
                "exact": r.is_exact,
                "subcritical": inside,
            }
        )
    _emit(args, csv_lines, {"roots": rows})
    return EXIT_OK


def _cmd_invert(args):
    graph = _graph_from_args(args)
    series = invert_series(
        clique_polynomial(graph), _nonnegative(args.cutoff, "--cutoff")
    )
    exps = sorted(series.terms)
    csv_lines = ["exponent_num,exponent_den,coefficient"]
    csv_lines += [
        f"{e.numerator},{e.denominator},{series.terms[e]}" for e in exps
    ]
    json_obj = {
        "terms": [
            {"exponent": _frac_obj(e), "coefficient": series.terms[e]}
            for e in exps
        ]
    }
    _emit(args, csv_lines, json_obj)
    return EXIT_OK


def _cmd_gibbs(args):
    graph = _graph_from_args(args)
    beta = args.beta
    cutoff = _nonnegative(args.cutoff, "--cutoff")
    ctx = ThermoContext(graph)
    if beta <= ctx.beta_c:
        raise ComputationError(
            f"--beta must exceed beta_c = {_fmt(ctx.beta_c)}"
        )
    rep = fock.build_rep(graph, cutoff)
    rep._thermo = ctx
    vacuum = fock.vacuum_projection(rep)
    z_closed = thermo.partition_function(ctx, beta)
    z_trunc = thermo.partition_function(ctx, beta, "truncated", cutoff=cutoff)
    psi_vacuum = fock.gibbs_numeric(rep, vacuum, beta)
    tail = thermo.tail_mass(ctx, beta, cutoff)
    quantities = [
        ("beta", beta),
        ("cutoff", float(cutoff)),
        ("dimension", rep.dim),
        ("Z_truncated", z_trunc),
        ("Z_closed", z_closed),
        ("psi_vacuum", psi_vacuum),
        ("psi_vacuum_times_Z_closed", psi_vacuum * z_closed),
        ("normalization_gap", abs(psi_vacuum * z_closed - 1.0)),
        ("tail_bound", tail),
    ]
    csv_lines = ["quantity,value"] + [
        f"{name},{_fmt(value)}" for name, value in quantities
    ]
    _emit(args, csv_lines, dict(quantities))
    return EXIT_OK


def _cmd_kms_check(args):
    graph = _graph_from_args(args)
    beta = args.beta
    cutoff = _nonnegative(args.cutoff, "--cutoff")
    samples = args.samples
    if samples < 1:
        raise ConfigError("--samples must be at least 1")
    rep = fock.build_rep(graph, cutoff)
    ctx = rep.thermo()
    if beta <= ctx.beta_c:
        raise ComputationError(
            f"--beta must exceed beta_c = {_fmt(ctx.beta_c)}"
        )
    pool = [t for t in rep.basis if t.length <= 2]
    rng = random.Random(20_24)
    rows = []
    failures = 0
    for k in range(samples):
        p1, q1, p2, q2 = (rng.choice(pool) for _ in range(4))
        report = fock.kms_numeric_check(rep, (p1, q1), (p2, q2), beta)
        rows.append((k, p1, q1, p2, q2, report))
        if not report.ok:
            failures += 1
    csv_lines = ["sample,p1,q1,p2,q2,residual,bound,ok"]
    for k, p1, q1, p2, q2, report in rows:
        csv_lines.append(
            ",".join(
                [
                    str(k),
                    p1.serialize(),
                    q1.serialize(),
                    p2.serialize(),
                    q2.serialize(),
                    _fmt(report.residual),
                    _fmt(report.bound),
                    str(int(report.ok)),
                ]
            )
        )
    json_obj = {
        "beta": beta,
        "cutoff": float(cutoff),
        "samples": samples,
        "failures": failures,
        "max_residual": max(r.residual for *_, r in rows),
        "results": [
            {
                "monomials": [
                    p1.serialize(),
                    q1.serialize(),
                    p2.serialize(),
                    q2.serialize(),
                ],
                "residual": report.residual,
                "bound": report.bound,
                "ok": report.ok,
            }
            for _, p1, q1, p2, q2, report in rows
        ],
    }
    _emit(args, csv_lines, json_obj)
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def _cmd_limsup(args):
    graph = _graph_from_args(args)
    ctx = ThermoContext(graph)
    value = thermo.beta_critical_limsup_estimate(
        ctx, _nonnegative(args.cutoff, "--cutoff")
    )
    _emit(args, [_fmt(value)], {"estimate": value, "cutoff": args.cutoff})
    return EXIT_OK


def _cmd_verify(args):
    graph = _graph_from_args(args)
    cutoff = _nonnegative(args.cutoff, "--cutoff")
    checks = _verification_suite(graph, cutoff)
    failed = []
    for name, func in checks:
        try:
            ok = func()
        except Exception as exc:  # a crash is a failure with a reason
            ok = False
            print(f"FAIL {name}: {exc}")
        else:
            print(("ok   " if ok else "FAIL ") + name)
        if not ok:
            failed.append(name)
    if failed:
        print(f"{len(failed)} verification check(s) failed: {', '.join(failed)}")
        return EXIT_VERIFICATION
    print(f"all {len(checks)} verification checks passed")
    return EXIT_OK


def _verification_suite(graph, cutoff):
    """Deterministic cross-checks of every layer, sized by the cutoff."""
    small = min(cutoff, Fraction(4))
    rng = random.Random(97)

    def enumeration_matches_dp():
        elements = enumerate_up_to(graph, small)
        table = growth_table(graph, small)
        counts = {}
        for t in elements:
            counts[t.weight] = counts.get(t.weight, 0) + 1
        return counts == table.counts()

    def inversion_matches():
        return verify_inversion(graph, cutoff).match

    def join_brute_force():
        pool = [t for t in enumerate_up_to(graph, small) if t.length <= 3]
        pairs = list(itertools.product(pool, repeat=2))
        if len(pairs) > 400:
            pairs = rng.sample(pairs, 400)
        candidates = sorted(enumerate_up_to(graph, small), key=lambda t: t.weight)
        for p, q in pairs:
            ubs = [
                multiply(p, v)
                for v in candidates
                if v.weight <= q.weight and divides(q, multiply(p, v))
            ]
            j = join(p, q)
            if j is INFINITY:
                if ubs:
                    return False
            else:
                least = min(ubs, key=lambda u: u.weight, default=None)
                if least is None or least != j:
                    return False
                if not all(divides(j, u) for u in ubs):
                    return False
        return True

    def translation_identity():
        pool = enumerate_up_to(graph, Fraction(small, 1))
        for _ in range(200):
            z, p, q = (rng.choice(pool) for _ in range(3))
            lhs = join(multiply(z, p), multiply(z, q))
            rhs = join(p, q)
            if rhs is INFINITY:
                if lhs is not INFINITY:
                    return False
            elif lhs is INFINITY or lhs != multiply(z, rhs):
                return False
        return True

    def wick_round_trip():
        pool = enumerate_up_to(graph, small)
        for _ in range(200):
            p, q = rng.choice(pool), rng.choice(pool)
            pieces = wick(p, q)
            if pieces is None:
                if join(p, q) is not INFINITY:
                    return False
                continue
            a, b = pieces
            if multiply(p, a) != multiply(q, b):
                return False
        return True

    def beta_c_bound():
        ctx = ThermoContext(graph)
        return ctx.beta_c <= ctx.lemma_bound + 1e-10

    def smallest_root_certified():
        ctx = ThermoContext(graph)
        if ctx.beta_c == 0.0:
            return True
        bound = ctx.certified_root_free_bound()
        return math.exp(-ctx.beta_c) >= float(bound) * (1 - 1e-9)

    def lattice_order_consistency():
        ctx = ThermoContext(graph)
        return (ctx.beta_c == 0.0) == is_lattice_ordered(graph)

    def nica_exhaustive():
        rep = fock.build_rep(graph, small)
        pool = [t for t in enumerate_up_to(graph, small) if t.length <= 2]
        return all(
            fock.nica_check(rep, p, q)
            for p, q in itertools.product(pool, repeat=2)
        )

    def vacuum_identity():
        rep = fock.build_rep(graph, small)
        try:
            fock.vacuum_projection(rep)
        except fock.OperatorIdentityError:
            return False
        return True

    def kms_symbolic():
        pool = [t for t in enumerate_up_to(graph, small) if t.length <= 2]
        quads = list(itertools.product(pool, repeat=4))
        if len(quads) > 20000:
            quads = rng.sample(quads, 20000)
        return all(
            thermo.kms_identity_check(p1, q1, p2, q2).holds
            for p1, q1, p2, q2 in quads
        )

    def gibbs_off_diagonal_zero():
        rep = fock.build_rep(graph, small)
        pool = [t for t in enumerate_up_to(graph, small) if t.length <= 2]
        ctx = ThermoContext(graph)
        beta = max(1.0, 1.5 * ctx.beta_c)
        for _ in range(50):
            p, q = rng.choice(pool), rng.choice(pool)
            if p == q:
                continue
            op = fock.left_op(rep, p) @ fock.left_op(rep, q).adjoint()
            if fock.gibbs_numeric(rep, op, beta) != 0.0:
                return False
        return True

    return [
        ("enumeration-matches-transfer-dp", enumeration_matches_dp),
        ("clique-inversion-exact", inversion_matches),
        ("join-equals-brute-force", join_brute_force),
        ("join-translation-identity", translation_identity),
        ("wick-round-trip", wick_round_trip),
        ("beta-c-generator-bound", beta_c_bound),
        ("smallest-root-certified", smallest_root_certified),
        ("lattice-order-beta-c-zero", lattice_order_consistency),
        ("nica-covariance-exhaustive", nica_exhaustive),
        ("vacuum-projection-identity", vacuum_identity),
        ("kms-identity-symbolic", kms_symbolic),
        ("gibbs-off-diagonal-zero", gibbs_off_diagonal_zero),
    ]


# -- argument plumbing --------------------------------------------------------


def _frac_obj(f):
    return {"num": f.numerator, "den": f.denominator}


def _nonnegative(raw, flag):
    value = Fraction(raw)
    if value < 0:
        raise ConfigError(f"{flag} must be nonnegative")
    return value


def _positive(value, flag):
    if value <= 0:
        raise ConfigError(f"{flag} must be positive")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qlo",
        description="Growth, clique polynomials and equilibrium-state checks "
        "for weighted trace monoids.",
        epilog="QLO_THREADS (positive integer) caps internal parallelism; "
        "the current implementation is sequential, so any cap is honoured.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a monoid JSON config")
    common.add_argument(
        "--preset",
        help="named graph family:size (free:n, abelian:k, path:n, cycle:n)",
    )
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", parents=[common], help="growth table up to a weight cutoff")
    p.add_argument("--cutoff", required=True, help="weight cutoff (rational like 10 or 21/2)")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("clique-poly", parents=[common], help="clique polynomial")
    p.set_defaults(func=_cmd_clique_poly)

    p = sub.add_parser("beta-c", parents=[common], help="critical inverse temperature")
    p.add_argument("--tol", type=float, default=1e-12, help="absolute error tolerance")
    p.set_defaults(func=_cmd_beta_c)

    p = sub.add_parser("roots", parents=[common], help="clique-polynomial roots in (0, 1]")
    p.add_argument("--tol", type=float, default=1e-12, help="absolute error tolerance")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("invert", parents=[common], help="reciprocal series of the clique polynomial")
    p.add_argument("--cutoff", required=True, help="exponent cutoff")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("verify", parents=[common], help="run the cross-check suite")
    p.add_argument("--cutoff", required=True, help="weight cutoff for the checks")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gibbs", parents=[common], help="truncated Gibbs-state report")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--cutoff", required=True)
    p.set_defaults(func=_cmd_gibbs)

    p = sub.add_parser("kms-check", parents=[common], help="numeric twisted-trace residuals")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--cutoff", required=True)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=_cmd_kms_check)

    p = sub.add_parser("limsup", parents=[common], help="growth-rate estimate of beta_c")
    p.add_argument("--cutoff", required=True)
    p.set_defaults(func=_cmd_limsup)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        _thread_cap()
        return args.func(args)
    except (ConfigError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
