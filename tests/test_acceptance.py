"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
All tolerances are fixed here, not tuned at runtime.  Criterion 9 checks the
truncated vacuum gap against the exact relative tail Z/Z_W - 1 of path:3.
"""

import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

from qlo import (
    ThermoContext,
    beta_critical_limsup_estimate,
    build_rep,
    clique_roots_in_unit_interval,
    enumerate_up_to,
    fock_state_value,
    gibbs_numeric,
    gibbs_value,
    is_lattice_ordered,
    kms_identity_check,
    left_op,
    nica_check,
    partition_function,
    range_projection,
    tail_mass,
    vacuum_projection,
    verify_inversion,
)
from qlo.monoid import build_graph
from qlo.oracles import join_mismatch, translation_identity_holds
from conftest import NAMED_GRAPHS, path3_relative_tail, random_graph


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number:02d} ({title}): PASS")


def named_graphs():
    return [(name, make()) for name, make in NAMED_GRAPHS.items()]


def ten_random_graphs():
    rng = random.Random(2024)
    out = []
    for k in range(10):
        n = rng.randint(2, 6)
        out.append((f"random{k}(n={n})", random_graph(n, seed=1000 + k)))
    return out


_CTX_CACHE = {}


def thermo_ctx(name, graph, tol=1e-12):
    key = (name, tol)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = ThermoContext(graph, tol=tol)
    return _CTX_CACHE[key]


# -- 1: inversion formula -------------------------------------------------------


def test_criterion_01_inversion_formula():
    with criterion(1, "clique-polynomial inversion matches growth counts"):
        cases = named_graphs() + ten_random_graphs()
        for name, graph in cases:
            report = verify_inversion(graph, 10)
            assert report.match, (name, report.first_mismatch)


# -- 2: critical temperature of free monoids ----------------------------------------


def test_criterion_02_free_monoid_beta_c():
    with criterion(2, "beta_c of the free monoid is log n"):
        for n in (2, 3, 5):
            graph = random_graph(n, seed=0, edge_probability=0.0)
            ctx = ThermoContext(graph, tol=1e-12)
            assert abs(ctx.beta_c - math.log(n)) <= 1e-10, n


# -- 3: generator bound ----------------------------------------------------------


def test_criterion_03_generator_bound():
    with criterion(3, "beta_c <= log|S| / min weight"):
        for name, graph in named_graphs() + ten_random_graphs():
            ctx = thermo_ctx(name, graph)
            assert ctx.beta_c <= ctx.lemma_bound + 1e-10, name


# -- 4: beta_c = 0 exactly iff the graph is complete ---------------------------------


def test_criterion_04_zero_beta_c_iff_complete():
    with criterion(4, "beta_c vanishes exactly for complete graphs"):
        checked = 0
        for n in range(1, 6):
            names = "abcde"[:n]
            pairs = list(itertools.combinations(names, 2))
            for bits in range(2 ** len(pairs)):
                edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
                graph = build_graph(names, 1, edges)
                ctx = ThermoContext(graph, tol=1e-9)
                assert (ctx.beta_c == 0.0) == is_lattice_ordered(graph)
                checked += 1
        assert checked == 1 + 2 + 8 + 64 + 1024


# -- 5: smallest-root property ------------------------------------------------------


def test_criterion_05_smallest_root_certified():
    with criterion(5, "exp(-beta_c) is the certified smallest clique root"):
        tol = 1e-10
        for name, graph in named_graphs() + ten_random_graphs():
            ctx = thermo_ctx(name, graph)
            report = clique_roots_in_unit_interval(ctx, tol)
            smallest = report.roots[0]
            target = math.exp(-ctx.beta_c)
            assert abs(target - smallest.value) <= 2 * tol, name
            # isolation certifies no root below the smallest root's interval
            free_below = float(ctx.certified_root_free_bound())
            assert target >= free_below * (1 - 1e-9), name
            assert all(r.value > smallest.value for r in report.roots[1:])


# -- 6: join against brute force ------------------------------------------------------


def test_criterion_06_join_oracle_and_translation():
    with criterion(6, "recursive join equals brute force; left translation"):
        graphs = [
            ("path3", NAMED_GRAPHS["path3"]()),
            ("rand5a", random_graph(5, seed=3, edge_probability=0.7)),
            ("rand5b", random_graph(5, seed=9, edge_probability=0.7)),
        ]
        for name, graph in graphs:
            max_w = max(graph.weights.values())
            pool = [t for t in enumerate_up_to(graph, 4 * max_w) if t.length <= 4]
            mismatch = join_mismatch(itertools.product(pool, repeat=2), pool)
            assert mismatch is None, (name, mismatch)
        rng = random.Random(6)
        for name, graph in graphs:
            pool = [t for t in enumerate_up_to(graph, 3) if t.length <= 3]
            for _ in range(1000):
                triple = tuple(rng.choice(pool) for _ in range(3))
                assert translation_identity_holds(*triple), (name, triple)


# -- 7: exact operator identities --------------------------------------------------


def test_criterion_07_operator_identities():
    with criterion(7, "covariance relation and vacuum projection forms, exact"):
        for name, graph in named_graphs():
            rep = build_rep(graph, 4)
            max_w = max(graph.weights.values())
            pool = [
                t for t in enumerate_up_to(graph, 3 * max_w) if t.length <= 3
            ]
            for p, q in itertools.product(pool, repeat=2):
                assert nica_check(rep, p, q), (name, p, q)
        for name, graph in named_graphs():
            for cutoff in (4, 6, 8):
                rep = build_rep(graph, cutoff)
                vacuum_projection(rep)  # raises if the two forms disagree


# -- 8: symbolic twisted-trace identity ----------------------------------------------


def test_criterion_08_kms_identity_symbolic():
    with criterion(8, "twisted-trace identity holds symbolically"):
        for name, graph in named_graphs():
            max_w = max(graph.weights.values())
            short = [
                t for t in enumerate_up_to(graph, 2 * max_w) if t.length <= 2
            ]
            for quad in itertools.product(short, repeat=4):
                assert kms_identity_check(*quad).holds, (name, quad)
        rng = random.Random(8)
        for name, graph in named_graphs():
            max_w = max(graph.weights.values())
            pool = [
                t for t in enumerate_up_to(graph, 4 * max_w) if t.length <= 4
            ]
            for _ in range(10_000):
                quad = tuple(rng.choice(pool) for _ in range(4))
                assert kms_identity_check(*quad).holds, (name, quad)


# -- 9: Gibbs normalization ---------------------------------------------------------


def test_criterion_09_gibbs_normalization():
    with criterion(9, "vacuum expectation times closed partition function"):
        graph = NAMED_GRAPHS["path3"]()
        ctx = thermo_ctx("path3", graph)
        beta = 1.5 * ctx.beta_c
        z_closed = partition_function(ctx, beta)
        # The truncated state is normalized by its own trace Z_W, so its
        # vacuum value is 1/Z_W and the gap is exactly the relative tail
        # Z/Z_W - 1, which the path:3 weight counts give in closed form.
        for cutoff in (8, 10, 12):
            rep = build_rep(graph, cutoff)
            value = gibbs_numeric(rep, vacuum_projection(rep), beta)
            gap = abs(value * z_closed - 1.0)
            exact = path3_relative_tail(beta, cutoff)
            bound = tail_mass(ctx, beta, cutoff)
            message = (
                f"normalization gap at cutoff {cutoff} is {gap:.6g}; "
                f"the exact relative tail is {exact:.6g}"
            )
            assert gap <= bound + 1e-12, message + f", tail bound {bound:.6g}"
            assert abs(gap - exact) <= 1e-12, message
        # The tail decays like 2^(-W/2) at this beta, so a gap of 1e-4 is
        # first reached at cutoff 28 (1.1e-4 at 26).  A basis there would hold
        # ~1e9 traces; the identity above ties the vacuum value to 1/Z_W, so
        # the growth counts suffice.
        cutoff = 28
        z_truncated = partition_function(ctx, beta, "truncated", cutoff=cutoff)
        gap = z_closed / z_truncated - 1.0
        exact = path3_relative_tail(beta, cutoff)
        message = (
            f"normalization gap at cutoff {cutoff} is {gap:.6g}; "
            f"the exact relative tail is {exact:.6g}"
        )
        assert abs(gap - exact) <= 1e-12, message
        assert gap <= 1e-4, message + ", above 1e-4"


# -- 10: Gibbs monomial values ---------------------------------------------------------


def test_criterion_10_gibbs_monomials():
    with criterion(10, "diagonal monomial expectations within the tail bound"):
        cutoff = 12
        graph_names = ["free2", "abelian2", "abelian3", "path3", "weighted_abelian2"]
        rng = random.Random(10)
        for name in graph_names:
            graph = NAMED_GRAPHS[name]()
            ctx = thermo_ctx(name, graph)
            beta = 1.5 * ctx.beta_c if ctx.beta_c > 0 else 1.0
            rep = build_rep(graph, cutoff)
            pool = enumerate_up_to(graph, 4)
            for _ in range(100):
                p = rng.choice(pool)
                # L_p L_p^* equals the divisibility projection (pinned in the
                # unit suite); the projection form scales to this basis size
                op = range_projection(rep, p)
                got = gibbs_numeric(rep, op, beta)
                want = gibbs_value(p, p).value_at(beta)
                bound = want * tail_mass(
                    ctx, beta, cutoff, up_to=Fraction(cutoff) - p.weight
                )
                assert abs(got - want) <= bound + 1e-12, (name, p)
            for _ in range(25):
                p, q = rng.choice(pool), rng.choice(pool)
                if p == q:
                    continue
                op = left_op(rep, p) @ left_op(rep, q).adjoint()
                assert gibbs_numeric(rep, op, beta) == 0.0, (name, p, q)


# -- 11: growth-rate estimate ------------------------------------------------------


def test_criterion_11_limsup_estimate():
    with criterion(11, "growth-rate estimate approaches beta_c from above"):
        graph = NAMED_GRAPHS["free2"]()
        ctx = thermo_ctx("free2", graph)
        estimates = [
            beta_critical_limsup_estimate(ctx, cutoff)
            for cutoff in (10, 15, 20)
        ]
        assert estimates[0] > estimates[1] > estimates[2]
        assert abs(estimates[2] - math.log(2)) <= 0.05


# -- 12: ground state ---------------------------------------------------------------


def test_criterion_12_ground_state_limit():
    with criterion(12, "vacuum state is the high-beta limit of equilibrium"):
        for name, graph in named_graphs():
            margin = math.exp(-10 * float(graph.min_weight))
            for s in graph.generators:
                p = graph.gen(s)
                for beta in (10.0, 20.0, 40.0):
                    gap = abs(
                        gibbs_value(p, p).value_at(beta)
                        - fock_state_value(p, p).value_at(beta)
                    )
                    assert gap <= margin, (name, s, beta)
            e = graph.identity()
            assert fock_state_value(e, e).value_at(10.0) == 1.0
