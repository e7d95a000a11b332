"""Command line interface: presets or JSON configs in, CSV/JSON out.

Exit codes: 0 success, 2 usage, 3 validation (config or graph), 4
computation (e.g. beta at or below the critical value), 5 verification
failure.  Weights are exact rationals serialized as {"num": .., "den": ..}
objects; floats are rejected.  All floating-point output is printed with 15
significant digits; integers are printed exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import thermo
from .growth import MAX_BASIS_DIM, clique_polynomial, growth_table, invert_series
from .monoid import GraphError, build_graph, multiply
from .presets import preset_graph
from .thermo import ComputationError, ThermoContext

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_COMPUTATION = 4
EXIT_VERIFICATION = 5

MAX_KMS_WORK = 50_000  # most samples one kms-check draws: about 2 s on the presets
MAX_KMS_TAILS = 20_000  # most distinct Gibbs tails x scaled degree of Q: about 2 s at degree 9,996


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


_NAME_SEPARATORS = ".|,"  # '.' and '|' join letters and blocks in Trace.serialize(), ',' CSV fields


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
        for ch in _NAME_SEPARATORS:
            _require(ch not in name, f"{where}: name {name!r} holds {ch!r}, which separates "
                     "letters in serialized traces and fields in CSV rows")
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


def _fmt(x):
    return str(x) if isinstance(x, int) else f"{x:.15g}"


def _graph_from_args(args):
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        return parse_config(args.config).to_graph()
    if args.preset:
        return preset_graph(args.preset)
    raise ConfigError("a graph is required: use --config or --preset")


def _terms_obj(poly):
    return {"terms": [{"exponent": _frac_obj(e), "coefficient": c} for e, c in poly.terms.items()]}


def _context_above_beta_c(graph, beta):
    """The graph's ThermoContext; ComputationError (exit 4) when beta <= beta_c."""
    ctx = ThermoContext(graph)
    if beta <= ctx.beta_c:
        raise ComputationError(f"--beta must exceed beta_c = {_fmt(ctx.beta_c)}")
    return ctx


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
    _emit(args, [str(poly)], _terms_obj(poly))
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
    csv_lines = ["exponent_num,exponent_den,coefficient"]
    csv_lines += [f"{e.numerator},{e.denominator},{c}" for e, c in series.terms.items()]
    _emit(args, csv_lines, _terms_obj(series))
    return EXIT_OK


def _cmd_gibbs(args):
    graph = _graph_from_args(args)
    beta = _finite(args.beta, "--beta")
    cutoff = _nonnegative(args.cutoff, "--cutoff")
    ctx = _context_above_beta_c(graph, beta)
    z_closed = thermo.partition_function(ctx, beta)
    z_trunc = thermo.partition_function(ctx, beta, "truncated", cutoff=cutoff)
    psi_vacuum = 1.0 / z_trunc  # the truncated state is normalized by its own trace
    quantities = [
        ("beta", beta),
        ("cutoff", float(cutoff)),
        ("dimension", ctx.growth(cutoff).total()),
        ("Z_truncated", z_trunc),
        ("Z_closed", z_closed),
        ("psi_vacuum", psi_vacuum),
        ("psi_vacuum_times_Z_closed", psi_vacuum * z_closed),
        ("normalization_gap", abs(psi_vacuum * z_closed - 1.0)),
        ("tail_bound", thermo.tail_mass(ctx, beta, cutoff)),
    ]
    csv_lines = ["quantity,value"] + [
        f"{name},{_fmt(value)}" for name, value in quantities
    ]
    _emit(args, csv_lines, dict(quantities))
    return EXIT_OK


def _cmd_kms_check(args):
    graph = _graph_from_args(args)
    beta = _finite(args.beta, "--beta")
    cutoff = _nonnegative(args.cutoff, "--cutoff")
    samples = args.samples
    if samples < 1:
        raise ConfigError("--samples must be at least 1")
    if samples > MAX_KMS_WORK:
        raise ComputationError(f"--samples {samples} is past the limit {MAX_KMS_WORK}")
    ctx = _context_above_beta_c(graph, beta)
    # the pool, the basis traces of at most 2 letters in basis order: the products
    # s*t of e and the letters, each s with the prefix by weight that keeps s*t in W
    units = sorted([graph.identity(), *map(graph.gen, graph.generators)], key=lambda t: t._w)
    top = math.floor(cutoff * graph.scale)
    heads = [bisect_right(units, top - s._w, key=lambda t: t._w) for s in units]
    if sum(heads) > MAX_BASIS_DIM:
        raise ComputationError(f"{sum(heads)} pool products exceed the limit {MAX_BASIS_DIM}")
    products = {u._masks: u for s, k in zip(units, heads) for u in (multiply(s, t) for t in units[:k])}
    pool = sorted(products.values(), key=lambda t: (t._w, t.serialize()))  # Trace.sort_key's order
    rng = random.Random(20_24)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(2 * samples)]
    tails, degree = len({max(p._w - q._w, 0) for p, q in pairs}), len(ctx._coeffs) - 1
    if tails * degree > MAX_KMS_TAILS:
        raise ComputationError(f"{tails} Gibbs tails x degree {degree} is past the limit {MAX_KMS_TAILS}")
    sums = thermo._level_sums(ctx, beta, cutoff)
    rows = []
    for pair1, pair2 in zip(pairs[::2], pairs[1::2]):
        masses = thermo._twisted_masses(sums, pair1, pair2, beta)
        report = thermo._kms_report(ctx, pair1, pair2, beta, cutoff, *masses, sums[-1])
        rows.append(([t.serialize() for t in (*pair1, *pair2)], report))
    failures = sum(not r.ok for _, r in rows)
    csv_lines = ["sample,p1,q1,p2,q2,residual,bound,ok"] + [
        ",".join([str(k), *monomials, _fmt(r.residual), _fmt(r.bound), str(int(r.ok))])
        for k, (monomials, r) in enumerate(rows)
    ]
    json_obj = {
        "beta": beta,
        "cutoff": float(cutoff),
        "samples": samples,
        "failures": failures,
        "max_residual": max(r.residual for _, r in rows),
        "results": [
            {"monomials": monomials, "residual": r.residual, "bound": r.bound, "ok": r.ok}
            for monomials, r in rows
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
    # imported here so that importing the CLI compiles none of the suite
    from .oracles import verification_suite

    graph = _graph_from_args(args)
    cutoff = _nonnegative(args.cutoff, "--cutoff")
    checks = verification_suite(graph, cutoff)
    failed = []
    for name, func in checks:
        try:
            ok = func()
        except ComputationError:  # a refused input size exits 4, not a failed check
            raise
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


# -- argument plumbing --------------------------------------------------------


def _frac_obj(f):
    return {"num": f.numerator, "den": f.denominator}


def _nonnegative(raw, flag):
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(
            f"{flag} must be a rational number like 10 or 21/2, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(f"{flag} must be nonnegative")
    return value


def _finite(value, flag):
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value}")
    return value


def _positive(value, flag):
    if not 0 < value < math.inf:
        raise ConfigError(f"{flag} must be positive and finite, got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qlo",
        description="Growth, clique polynomials and equilibrium-state checks "
        "for weighted trace monoids.",
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

    p = sub.add_parser("gibbs", parents=[common], help="Gibbs-state report from growth counts")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--cutoff", required=True)
    p.set_defaults(func=_cmd_gibbs)

    p = sub.add_parser("kms-check", parents=[common], help="twisted-trace residuals from growth counts")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--cutoff", required=True)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=_cmd_kms_check)

    p = sub.add_parser("limsup", parents=[common], help="growth-rate estimate of beta_c")
    p.add_argument("--cutoff", required=True)
    p.set_defaults(func=_cmd_limsup)

    return parser


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):  # exact counts can pass 4300 digits
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
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
