"""Critical temperatures, partition functions and symbolic equilibrium values."""

import copy
import dataclasses
import itertools
import math
import pickle
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qlo.thermo
from qlo import rootiso
from qlo import (
    ComputationError,
    InsufficientDataError,
    MismatchedGraphError,
    StateValue,
    ThermoContext,
    beta_critical,
    beta_critical_limsup_estimate,
    build_graph,
    clique_roots_in_unit_interval,
    enumerate_up_to,
    fock_state_value,
    gibbs_value,
    is_lattice_ordered,
    kms_identity_check,
    multiply,
    normalize,
    partition_function,
    preset_graph,
    tail_mass,
    wick,
)
from conftest import (
    NAMED_GRAPHS,
    decimal_tail,
    make_abelian2,
    make_abelian3,
    make_free2,
    make_free3,
    make_path3,
    make_weighted_abelian2,
    many_term_graph,
    random_graph,
    reference_tail_mass,
    split_sign_tail_mass,
    weighted_graphs,
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


def test_clique_roots_closer_than_twice_tol_merge():
    # at tol 0.3 the roots 1/2 and 1 of 1 - 3t + 2t^2 are one flagged estimate
    report = clique_roots_in_unit_interval(ThermoContext(make_path3()), 0.3)
    (root,) = report.roots
    assert (root.value, root.multiplicity, root.merged) == (0.5, 2, True)
    assert (root.t_lo, root.t_hi) == (Fraction(1, 2), 1)
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


class _RecordingCache(dict):
    """A refinement cache that records the key of every bracket stored in it."""

    def __init__(self, entries):
        super().__init__(entries)
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def test_roots_report_reuses_the_refined_smallest_root():
    ctx = ThermoContext(NAMED_GRAPHS["cycle5"]())  # Q = 1 - 5t + 5t^2: two roots
    ctx._refined = cache = _RecordingCache(ctx._refined)
    report = clique_roots_in_unit_interval(ctx, ctx.tol)
    assert cache.stored == [(root, ctx.tol) for root in ctx._roots[1:]]
    assert clique_roots_in_unit_interval(ctx, ctx.tol) == report
    assert len(cache.stored) == len(ctx._roots) - 1  # the second report refines nothing
    clique_roots_in_unit_interval(ctx, ctx.tol / 4)
    assert len(cache.stored) == 2 * len(ctx._roots) - 1  # a new tol refines every root


def test_refining_a_root_takes_two_exact_signs(monkeypatch):
    ctx = ThermoContext(NAMED_GRAPHS["cycle5"]())
    signs, real = [], rootiso._sign
    monkeypatch.setattr(rootiso, "_sign", lambda *args: signs.append(args) or real(*args))
    clique_roots_in_unit_interval(ctx, ctx.tol / 4)
    assert len(signs) == 2 * len(ctx._roots)  # one certified node per root


def test_beta_c_at_scale_1994():
    # 5-cycle with weights 1/997, 1/2, 1, 1, 1: degree 3988, 8 terms
    names = "abcde"
    weights = {"a": Fraction(1, 997), "b": Fraction(1, 2), "c": 1, "d": 1, "e": 1}
    graph = build_graph(names, weights, [(names[i], names[(i + 1) % 5]) for i in range(5)])
    start = time.perf_counter()
    ctx = ThermoContext(graph)
    assert ctx.clique_poly.scale == 1994
    assert ctx.beta_c == 5.860491855692413
    assert time.perf_counter() - start < 10
    # t_lo and t_hi carry 1994 times the bits of a root's bracket; the report
    # takes their midpoint by one integer division, and it is the same float
    report = clique_roots_in_unit_interval(ctx, 1e-12)
    assert report.roots and all(r.value == float((r.t_lo + r.t_hi) / 2) for r in report.roots)


def test_many_term_clique_polynomial_roots():
    # 9 letters at scale 12: 27 terms on degree 47, the costliest of the
    # many_term_graph seeds 0-7 for isolation by terms
    start = time.perf_counter()
    ctx = ThermoContext(many_term_graph(1))
    report = clique_roots_in_unit_interval(ctx, ctx.tol)
    assert sum(1 for c in ctx._coeffs if c) == 27 and len(ctx._coeffs) == 48
    assert ctx.beta_c == 4.7177555385558705
    assert [(r.lo, r.hi, r.multiplicity) for r in ctx._roots] == [
        (Fraction(707715, 2**20), Fraction(707716, 2**20), 1),
        (Fraction(982665, 2**20), Fraction(982666, 2**20), 1),
    ]
    assert [(r.value, r.multiplicity, r.is_exact) for r in report.roots] == [
        (0.008935210795352427, 1, False),
        (0.45885101069913825, 1, False),
    ]
    assert len(report.subcritical) == 1
    assert time.perf_counter() - start < 5


# -- partition function ------------------------------------------------------


def test_partition_function_free2_closed():
    ctx = ThermoContext(make_free2())
    assert abs(partition_function(ctx, math.log(4)) - 2.0) <= 1e-12


@pytest.mark.parametrize("letters, beta", [(12, 0.1), (6, 0.05), (12, 0.5)])
def test_partition_function_complete_graphs_closed(letters, beta):
    # Q = (1 - t)**k has |Q|_1 = 2**k, so a float sum of its terms near t = 1
    # cancels; Q evaluated exactly at the float exp(-beta) does not
    ctx = ThermoContext(preset_graph(f"abelian:{letters}"))
    with localcontext() as dec:
        dec.prec = 50
        exact = (1 - Decimal(-beta).exp()) ** -letters
    assert abs(Decimal(partition_function(ctx, beta)) / exact - 1) <= Decimal("1e-13")


def test_partition_function_rejects_subcritical_beta():
    ctx = ThermoContext(make_free2())
    with pytest.raises(ComputationError):
        partition_function(ctx, math.log(2))
    with pytest.raises(ComputationError):
        partition_function(ctx, 0.1)
    for call in (
        lambda: partition_function(ctx, math.nan),
        lambda: partition_function(ctx, math.nan, "truncated", cutoff=4),
        lambda: partition_function(ctx, math.inf, "truncated", cutoff=4),
        lambda: tail_mass(ctx, math.nan, 4),
    ):
        with pytest.raises(ComputationError):
            call()


def test_nan_tolerance_is_rejected():
    ctx = ThermoContext(make_free2())
    for call in (
        lambda: ThermoContext(make_free2(), tol=math.nan),
        lambda: beta_critical(ctx, math.nan),
        lambda: clique_roots_in_unit_interval(ctx, math.nan),
    ):
        with pytest.raises(ValueError):
            call()


def test_partition_function_truncated():
    ctx = ThermoContext(make_free2())
    assert partition_function(ctx, 1.0, "truncated", cutoff=0) == 1.0
    closed = partition_function(ctx, 1.5)
    previous = 0.0
    for cutoff in (2, 4, 8, 12):
        trunc = partition_function(ctx, 1.5, "truncated", cutoff=cutoff)
        assert previous < trunc <= closed
        previous = trunc
    with pytest.raises(ValueError, match="truncated method requires a cutoff"):
        partition_function(ctx, 1.5, "truncated")
    with pytest.raises(ValueError, match="unknown method 'series'"):
        partition_function(ctx, 1.5, "series", cutoff=2)


def test_truncated_sum_past_float_range():
    # path:3 has 2^(n+1) - 1 traces of weight n: from n = 1023 on a count is
    # past float range while its term at beta = 0.7, about 2*exp(-0.0069n), is not
    ctx = ThermoContext(make_path3())
    beta, cutoff = 0.7, 1100
    z_w = partition_function(ctx, beta, "truncated", cutoff=cutoff)
    z_closed = partition_function(ctx, beta)
    # Q(exp(-0.7)) is about 3.4e-3, evaluated exactly at the float exp(-0.7),
    # whose rounding Q's slope magnifies; the tail bound itself is tight
    slack = 1e-12 * z_closed
    assert z_closed - tail_mass(ctx, beta, cutoff) - slack <= z_w <= z_closed + slack
    with localcontext() as dec:
        dec.prec = 50
        t = Decimal(-beta).exp()
        exact = sum((2 ** (n + 1) - 1) * t**n for n in range(cutoff + 1))
    assert abs(Decimal(z_w) / exact - 1) <= Decimal("1e-13")
    # where every count is a float the sum is the plain one, term for term
    table = ctx.growth(1000)
    plain = sum(float(n) * math.exp(-beta * float(w)) for w, n in table.rows)
    assert partition_function(ctx, beta, "truncated", cutoff=1000) == plain


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


def _tail_or_refusal(tail, ctx, beta, cutoff, up_to):
    try:
        return tail(ctx, beta, cutoff, up_to)
    except ComputationError as exc:
        return type(exc)


@settings(deadline=None, max_examples=80)
@given(weighted_graphs(min_letters=1, max_letters=5), st.data())
def test_tail_mass_matches_the_dense_reference_bit_for_bit(graph, data):
    # the sparse terms give the same rational bound, so the same float; it bounds the
    # 50-digit tail, is never above the split-sign bound, and admits every beta >= beta_c + tol
    ctx = ThermoContext(graph)
    if ctx.beta_c == 0.0:
        far = st.floats(0.01, 3.0)
    else:
        far = st.floats(1.0, 3.0, exclude_min=True).map(lambda factor: ctx.beta_c * factor)
    near = st.sampled_from([0, 1, 2, 4, 10]).map(
        lambda k: ctx.beta_c + k * ctx.tol if k else math.nextafter(ctx.beta_c, math.inf)
    )
    beta = data.draw(st.one_of(far, near), label="beta")
    cutoff = Fraction(data.draw(st.integers(0, 8), label="twice cutoff"), 2)
    up_to = data.draw(st.sampled_from(
        [None, cutoff, Fraction(-1, 2), Fraction(-1, 7), cutoff - Fraction(1, 7),
         cutoff - min(graph.weights.values()), cutoff - max(graph.weights.values())]
    ), label="up_to")
    got = _tail_or_refusal(tail_mass, ctx, beta, cutoff, up_to)
    assert got == _tail_or_refusal(reference_tail_mass, ctx, beta, cutoff, up_to)
    if got is ComputationError:
        assert beta < ctx.beta_c + ctx.tol
        return
    assert Decimal(got) >= decimal_tail(ctx, beta, cutoff, up_to)
    split = _tail_or_refusal(split_sign_tail_mass, ctx, beta, cutoff, up_to)
    assert split is ComputationError or got <= split


def test_tail_mass_matches_the_dense_reference_on_many_terms():
    ctx = ThermoContext(many_term_graph(1))  # 27 terms on degree 47
    for beta in (1.01 * ctx.beta_c, 1.5 * ctx.beta_c, 3 * ctx.beta_c):
        for cutoff, up_to in ((0, None), (2, None), (3, Fraction(5, 2)), (3, Fraction(13, 7)), (2, -1)):
            got = tail_mass(ctx, beta, cutoff, up_to)
            assert got == reference_tail_mass(ctx, beta, cutoff, up_to), (beta, cutoff, up_to)


def test_tail_mass_keeps_its_beta_free_terms_per_cutoff_and_level():
    """Calls on one context, at several betas and levels, return the floats a
    fresh context's first call returns; the context keeps one entry per level
    M = floor(V*scale) (every V < 0 on M = -1), whatever the cutoff, and none
    per beta, so calls on one level share an entry and return one float."""
    graph = many_term_graph(1)  # scale 12
    ctx = ThermoContext(graph)
    levels = [
        (2, None), (3, Fraction(5, 2)), (3, Fraction(13, 7)), (2, -1), (3, None), (3, 3),
        (2, Fraction(13, 7)), (3, Fraction(73, 24)), (2, Fraction(-1, 7)),
    ]
    for beta in (1.01 * ctx.beta_c, 1.5 * ctx.beta_c, 3 * ctx.beta_c):
        for cutoff, up_to in levels:
            got = tail_mass(ctx, beta, cutoff, up_to)
            assert got.hex() == tail_mass(ThermoContext(graph), beta, cutoff, up_to).hex()
        assert tail_mass(ctx, beta, 2, Fraction(13, 7)) is tail_mass(ctx, beta, 3, Fraction(13, 7))
        assert tail_mass(ctx, beta, 3, Fraction(73, 24)) is tail_mass(ctx, beta, 3, 3)
        assert tail_mass(ctx, beta, 2, Fraction(-1, 7)) is tail_mass(ctx, beta, 2, -1)
    assert sorted(ctx._tails) == [-1, 22, 24, 30, 36]


def test_tail_mass_bounds_each_level_and_beta_once(monkeypatch):
    """A repeated call returns the kept float and bounds nothing again."""
    ctx = ThermoContext(many_term_graph(1))
    beta = 1.5 * ctx.beta_c
    first = tail_mass(ctx, beta, 3, Fraction(5, 2))
    monkeypatch.setattr(qlo.thermo, "_exp_bracket", None)  # bounding now would raise TypeError
    assert tail_mass(ctx, beta, 3, Fraction(5, 2)) is first
    with pytest.raises(TypeError):
        tail_mass(ctx, 2 * beta, 3, Fraction(5, 2))


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


def test_kms_identity_rejects_a_foreign_trace_in_any_place():
    a, foreign = make_free2().gen("a"), make_path3().gen("a")
    for quad in ((a, foreign, a, a), (a, a, foreign, a), (a, a, a, foreign)):
        with pytest.raises(MismatchedGraphError):
            kms_identity_check(*quad)


def test_state_value_algebra():
    x = StateValue.exact(Fraction(3, 2))
    assert x == StateValue.exact(Fraction(6, 4)) and not x.is_zero()
    assert x.value_at(2.0) == math.exp(-3.0)
    assert StateValue.exact(0).value_at(7.0) == 1.0
    assert StateValue.zero().is_zero()
    assert StateValue.zero().value_at(5.0) == 0.0


def test_state_value_zero_is_one_instance_equal_to_a_fresh_zero():
    fresh, zero = StateValue("zero"), StateValue.zero()
    assert zero is StateValue.zero()
    assert zero == fresh and hash(zero) == hash(fresh) and repr(zero) == repr(fresh)
    assert zero.kind == "zero" and zero.exponent is None
    assert zero.is_zero() and zero.value_at(3.0) == fresh.value_at(3.0) == 0.0
    assert zero != StateValue.exact(0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        zero.kind = "exact"
    g = make_free2()
    a, b = g.gen("a"), g.gen("b")
    report = kms_identity_check(a, b, a, b)  # a* b collapses: no common upper bound
    assert report.holds and report.lhs == report.rhs == fresh
    assert gibbs_value(a, b) == fock_state_value(a, a) == fresh


def test_kms_report_built_on_read_is_frozen_and_compares_by_value():
    """The report is a frozen dataclass of (holds, lhs, rhs): it refuses
    assignment and deletion, also of names that are not fields, and compares,
    hashes and pickles by those values, whatever the scale."""
    g = make_free2()
    a, b = g.gen("a"), g.gen("b")
    report = kms_identity_check(a, b, a, b)
    assert report.lhs is StateValue.zero() and report.rhs is StateValue.zero()
    for name in ("holds", "lhs", "rhs", "lhs_exponent", "_sides", "_values"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(report, name)
    # exp(-beta) on both sides, on graphs of scale 1 and 2: equal reports
    half = build_graph("ab", {"a": 1, "b": Fraction(1, 2)})
    c = half.gen("a")
    whole, halved = kms_identity_check(a, g.identity(), a, multiply(a, a)), kms_identity_check(
        c, half.identity(), c, multiply(c, c))
    assert whole == halved and hash(whole) == hash(halved)
    assert halved.lhs == halved.rhs == StateValue.exact(1)
    for copied in (copy.copy(halved), pickle.loads(pickle.dumps(halved))):
        assert copied == halved and repr(copied) == repr(halved) and copied is not halved


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


def _reference_side(front, star1, mid, star2):
    """exp(beta*w(front)) * value(front star1^* mid star2^*) through L1's
    public wick and multiply: star1^* mid = a b^* with star1*a = mid*b."""
    pieces = wick(star1, mid)
    if pieces is None:
        return StateValue.zero()
    a, b = pieces
    if multiply(front, a) == multiply(star2, b):
        return StateValue.exact(a.weight)
    return StateValue.zero()


# the report's reference: a frozen dataclass of its three fields, built apart from thermo
EagerReport = dataclasses.make_dataclass(
    "KmsIdentityReport", [("holds", bool), ("lhs", StateValue), ("rhs", StateValue)], frozen=True
)


def _assert_matches_reference(quad):
    """The report's sides against `_reference_side`, and the report against the
    eager one: the same fields, exponents, hash and repr."""
    p1, q1, p2, q2 = quad
    report, unread = kms_identity_check(*quad), kms_identity_check(*quad)
    lhs, rhs = _reference_side(p1, q1, p2, q2), _reference_side(q1, p1, q2, p2)
    eager = EagerReport(lhs == rhs, lhs, rhs)
    assert hash(unread) == hash(eager) and unread == report  # a fresh report, as the reference
    assert (report.lhs, report.rhs) == (lhs, rhs), quad
    assert report.holds == (lhs == rhs), quad
    assert (report.lhs_exponent, report.rhs_exponent) == (lhs.exponent, rhs.exponent)
    assert repr(report) == repr(eager)
    for got in (report.lhs, report.rhs):
        assert got is StateValue.zero() or type(got.exponent) is Fraction
    return report, eager


@settings(deadline=None, max_examples=60)
@given(weighted_graphs(min_letters=1, max_letters=5), st.data())
def test_kms_identity_matches_the_wick_multiply_reference(graph, data):
    """Both sides against a reference built from wick and multiply, on short
    traces, their products and reversals, and random words."""
    words = st.lists(st.sampled_from(graph.generators), max_size=4)
    traces = [normalize(graph, data.draw(words)) for _ in range(6)]
    traces += [multiply(p, q) for p, q in zip(traces, reversed(traces))]
    pool = traces + [normalize(graph, [s for block in t.key for s in block][::-1]) for t in traces]
    rng = data.draw(st.randoms(use_true_random=False))
    pairs = [_assert_matches_reference(tuple(rng.choice(pool) for _ in range(4))) for _ in range(60)]
    for (report, eager), (other, other_eager) in zip(pairs, pairs[1:]):
        assert (report == other) == (eager == other_eager)
        assert (report != other) == (eager != other_eager)
    report, eager = pairs[0]
    assert report != (eager.holds, eager.lhs, eager.rhs) and report != eager
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.holds = not report.holds


def test_kms_identity_sides_with_equal_weights_but_different_products():
    """front*a and star2*b weigh the same but differ (ab against ba in free:2):
    the weight test passes and only the masks tell the side is zero."""
    g = make_free2()
    e, a, b = g.identity(), g.gen("a"), g.gen("b")
    ab, ba = normalize(g, "ab"), normalize(g, "ba")
    for quad in ((ab, e, e, ba), (ba, e, e, ab), (ab, a, a, ba), (a, ab, ba, b), (ab, b, a, ba)):
        p1, q1, p2, q2 = quad
        assert p1.weight - q2.weight == q1.weight - p2.weight
        report, _ = _assert_matches_reference(quad)
        assert report.lhs is StateValue.zero() and report.rhs is StateValue.zero()
        assert report.holds
    # and with the masks equal, the same quadruple shape is nonzero
    report, _ = _assert_matches_reference((ab, a, a, ab))
    assert report.lhs == report.rhs == StateValue.exact(0)


def test_kms_identity_holds_only_when_the_sides_agree(monkeypatch):
    """The verdict compares the two sides, zero included, in either order."""
    g = make_weighted_abelian2()
    a = g.gen("a")
    cases = [((None, None), True), ((None, 3), False), ((3, None), False),
             ((2, 2), True), ((2, 3), False), ((0, 0), True), ((0, None), False)]
    for (left, right), holds in cases:
        sides = iter((left, right))
        monkeypatch.setattr(qlo.thermo, "_twisted_weight", lambda *quad: next(sides))
        report = kms_identity_check(a, a, a, a)
        assert report.holds is holds, (left, right)
        for side, got in ((left, report.lhs), (right, report.rhs)):
            if side is None:
                assert got is StateValue.zero()
            else:
                assert got == StateValue.exact(Fraction(side, g.scale))


def test_kms_exponents_are_rational_and_match():
    g = make_abelian2()
    a, b = g.gen("a"), g.gen("b")
    ab = normalize(g, "ab")
    report = kms_identity_check(ab, a, a, ab)
    if not report.lhs.is_zero():
        assert isinstance(report.lhs_exponent, Fraction)
        assert report.lhs_exponent == report.rhs_exponent
