"""Critical temperatures, partition functions and symbolic equilibrium values."""

import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from qlo import (
    ComputationError,
    InsufficientDataError,
    MismatchedGraphError,
    StateValue,
    ThermoContext,
    beta_critical,
    beta_critical_limsup_estimate,
    clique_roots_in_unit_interval,
    enumerate_up_to,
    fock_state_value,
    gibbs_value,
    is_lattice_ordered,
    kms_identity_check,
    normalize,
    partition_function,
    tail_mass,
)
from conftest import (
    NAMED_GRAPHS,
    make_abelian2,
    make_abelian3,
    make_free2,
    make_free3,
    make_path3,
    make_weighted_abelian2,
    random_graph,
)


# -- beta_c ----------------------------------------------------------------


def test_beta_critical_free_monoids():
    for n, make in ((2, make_free2), (3, make_free3)):
        ctx = ThermoContext(make(), tol=1e-12)
        assert abs(ctx.beta_c - math.log(n)) <= 1e-10


def test_beta_critical_complete_graphs_exact_zero():
    for make in (make_abelian2, make_abelian3, make_weighted_abelian2):
        ctx = ThermoContext(make())
        assert ctx.beta_c == 0.0  # exact, not merely small


def test_beta_critical_path_graph():
    ctx = ThermoContext(make_path3())
    assert abs(ctx.beta_c - math.log(2)) <= 1e-10


def test_beta_critical_respects_tolerance_argument():
    ctx = ThermoContext(make_free3())
    for tol in (1e-6, 1e-9, 1e-12):
        assert abs(beta_critical(ctx, tol) - math.log(3)) <= tol


def test_beta_critical_generator_bound():
    graphs = [make() for make in NAMED_GRAPHS.values()]
    graphs += [random_graph(5, seed=s) for s in range(6)]
    for g in graphs:
        ctx = ThermoContext(g)
        assert ctx.beta_c <= ctx.lemma_bound + 1e-10


def test_beta_c_zero_iff_complete_small_graphs():
    # exhaustive over all graphs on up to 4 vertices
    import itertools as it

    for n in range(1, 5):
        names = "abcd"[:n]
        all_pairs = list(it.combinations(names, 2))
        for bits in range(2 ** len(all_pairs)):
            edges = [p for i, p in enumerate(all_pairs) if bits >> i & 1]
            from qlo import build_graph

            g = build_graph(names, 1, edges)
            ctx = ThermoContext(g)
            assert (ctx.beta_c == 0.0) == is_lattice_ordered(g)


def test_smallest_root_certificate():
    for make in (make_free2, make_free3, make_path3):
        ctx = ThermoContext(make())
        bound = float(ctx.certified_root_free_bound())
        assert math.exp(-ctx.beta_c) >= bound * (1 - 1e-9)
        value = ctx.clique_poly.evaluate(math.exp(-ctx.beta_c))
        assert abs(value) <= 1e-9


# -- roots report ----------------------------------------------------------


def test_clique_roots_path_graph():
    report = clique_roots_in_unit_interval(ThermoContext(make_path3()), 1e-10)
    values = [(r.value, r.multiplicity) for r in report.roots]
    assert values == [(0.5, 1), (1.0, 1)]
    assert report.subcritical == ()


def test_clique_roots_free_and_abelian():
    report = clique_roots_in_unit_interval(ThermoContext(make_free2()), 1e-10)
    assert [(r.value, r.multiplicity) for r in report.roots] == [(0.5, 1)]
    report = clique_roots_in_unit_interval(ThermoContext(make_abelian2()), 1e-10)
    assert [(r.value, r.multiplicity) for r in report.roots] == [(1.0, 2)]


def test_clique_roots_agree_with_beta_c():
    for make in NAMED_GRAPHS.values():
        ctx = ThermoContext(make())
        tol = 1e-10
        report = clique_roots_in_unit_interval(ctx, tol)
        assert report.roots, "every nonempty graph has a root in (0, 1]"
        assert abs(math.exp(-ctx.beta_c) - report.roots[0].value) <= 2 * tol


# -- partition function ------------------------------------------------------


def test_partition_function_free2_closed():
    ctx = ThermoContext(make_free2())
    assert abs(partition_function(ctx, math.log(4)) - 2.0) <= 1e-12


def test_partition_function_rejects_subcritical_beta():
    ctx = ThermoContext(make_free2())
    with pytest.raises(ComputationError):
        partition_function(ctx, math.log(2))
    with pytest.raises(ComputationError):
        partition_function(ctx, 0.1)


def test_partition_function_truncated():
    ctx = ThermoContext(make_free2())
    assert partition_function(ctx, 1.0, "truncated", cutoff=0) == 1.0
    closed = partition_function(ctx, 1.5)
    previous = 0.0
    for cutoff in (2, 4, 8, 12):
        trunc = partition_function(ctx, 1.5, "truncated", cutoff=cutoff)
        assert previous < trunc <= closed
        previous = trunc


def test_partition_function_monotone_decreasing_in_beta():
    ctx = ThermoContext(make_path3())
    grid = [ctx.beta_c + 0.05 * k for k in range(1, 40)]
    values = [partition_function(ctx, b) for b in grid]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_truncation_gap_equals_exact_tail():
    ctx = ThermoContext(make_path3())
    beta = 1.8
    closed = partition_function(ctx, beta)
    gaps = []
    for cutoff in (4, 8, 12):
        trunc = partition_function(ctx, beta, "truncated", cutoff=cutoff)
        gap = closed - trunc
        gaps.append(gap)
        assert abs(gap - tail_mass(ctx, beta, cutoff)) <= 1e-12
    assert gaps[0] > gaps[1] > gaps[2] > 0
    # the gap between two cutoffs is exactly the mass in the weight band
    table = ctx.growth(12)
    band = sum(
        n * math.exp(-beta * float(w)) for w, n in table.rows if 4 < w <= 12
    )
    assert abs((gaps[0] - gaps[2]) - band) <= 1e-12


def test_tail_mass_bounds_the_exact_tail_far_out():
    # path:3 has 2^(n+1) - 1 traces of weight n, so the mass above V is
    # 2(2t)^(V+1)/(1 - 2t) - t^(V+1)/(1 - t) at t = exp(-beta); a float
    # difference Z_closed - Z_V loses it entirely at these points
    ctx = ThermoContext(make_path3())
    for beta, cutoff in ((6.0, 10), (3.0, 20)):
        with localcontext() as dec:
            dec.prec = 50
            t = Decimal(-beta).exp()
            exact = 2 * (2 * t) ** (cutoff + 1) / (1 - 2 * t) - t ** (cutoff + 1) / (1 - t)
            got = Decimal(tail_mass(ctx, beta, cutoff))
            assert exact <= got <= exact * (1 + Decimal("1e-9")), (beta, cutoff, got, exact)


def test_partition_consistency_with_enumeration():
    g = make_path3()
    ctx = ThermoContext(g)
    beta = 1.3
    direct = sum(
        math.exp(-beta * float(t.weight)) for t in enumerate_up_to(g, 6)
    )
    trunc = partition_function(ctx, beta, "truncated", cutoff=6)
    assert abs(direct - trunc) <= 1e-9


# -- limsup estimate ----------------------------------------------------------


def test_limsup_estimate_free2():
    ctx = ThermoContext(make_free2())
    values = [beta_critical_limsup_estimate(ctx, W) for W in (10, 15, 20)]
    assert values[0] > values[1] > values[2]
    assert abs(values[2] - math.log(2**21 - 1) / 20) <= 1e-12
    assert values[2] - math.log(2) <= 0.05


def test_limsup_estimate_abelian2_goes_to_zero():
    ctx = ThermoContext(make_abelian2())
    value = beta_critical_limsup_estimate(ctx, 40)
    assert abs(value - math.log(861) / 40) <= 1e-12


def test_limsup_requires_enough_rows():
    ctx = ThermoContext(make_free2())
    with pytest.raises(InsufficientDataError):
        beta_critical_limsup_estimate(ctx, 0)


# -- symbolic state values ------------------------------------------------------


def test_gibbs_value_examples():
    g = make_free2()
    a, b = g.gen("a"), g.gen("b")
    assert gibbs_value(a, a) == StateValue.exact(1)
    assert gibbs_value(a, b).is_zero()
    assert gibbs_value(g.identity(), g.identity()) == StateValue.exact(0)
    assert gibbs_value(a, a).value_at(2.0) == math.exp(-2.0)


def test_gibbs_value_rejects_mismatched_graphs():
    with pytest.raises(MismatchedGraphError):
        gibbs_value(make_free2().gen("a"), make_path3().gen("a"))


def test_state_value_algebra():
    x = StateValue.exact(Fraction(3, 2))
    y = StateValue.exact(Fraction(1, 2))
    assert x * y == StateValue.exact(2)
    assert (x * StateValue.zero()).is_zero()
    assert StateValue.zero().value_at(5.0) == 0.0


def test_fock_state_value():
    g = make_path3()
    e = g.identity()
    a = g.gen("a")
    assert fock_state_value(e, e) == StateValue.exact(0)
    assert fock_state_value(a, e).is_zero()
    assert fock_state_value(a, a).is_zero()
    # matches the large-beta limit of the equilibrium values
    for beta in (10.0, 20.0, 40.0):
        for p in (e, a):
            gap = abs(
                gibbs_value(p, p).value_at(beta)
                - fock_state_value(p, p).value_at(beta)
            )
            assert gap <= math.exp(-10 * float(g.min_weight))


# -- symbolic twisted-trace identity ---------------------------------------------


def test_kms_identity_exhaustive_length_two():
    for make in (make_free2, make_abelian2, make_path3):
        g = make()
        pool = [t for t in enumerate_up_to(g, 2) if t.length <= 2]
        for quad in itertools.product(pool, repeat=4):
            report = kms_identity_check(*quad)
            assert report.holds, quad


def test_kms_identity_random_long_traces():
    g = random_graph(5, seed=53, edge_probability=0.5)
    pool = [t for t in enumerate_up_to(g, 4) if t.length <= 4]
    rng = random.Random(11)
    for _ in range(3000):
        quad = tuple(rng.choice(pool) for _ in range(4))
        assert kms_identity_check(*quad).holds, quad


def test_kms_identity_spec_cases(path3):
    p = normalize(path3, "ab")
    q = normalize(path3, "b")
    report = kms_identity_check(p, q, q, p)
    assert report.holds
    assert not report.lhs.is_zero()  # join(q, q) is finite here
    e = path3.identity()
    report = kms_identity_check(e, e, p, q)
    assert report.holds
    assert report.lhs.is_zero() and report.rhs.is_zero()


def test_kms_identity_weighted_graph():
    g = make_weighted_abelian2()
    pool = [t for t in enumerate_up_to(g, 3) if t.length <= 2]
    for quad in itertools.product(pool, repeat=4):
        assert kms_identity_check(*quad).holds


def test_kms_exponents_are_rational_and_match():
    g = make_abelian2()
    a, b = g.gen("a"), g.gen("b")
    ab = normalize(g, "ab")
    report = kms_identity_check(ab, a, a, ab)
    if not report.lhs.is_zero():
        assert isinstance(report.lhs_exponent, Fraction)
        assert report.lhs_exponent == report.rhs_exponent
