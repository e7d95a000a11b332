"""Exact root isolation: known polynomials, multiplicities, tight clusters."""

import contextlib
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qlo import ThermoContext, clique_polynomial, clique_roots_in_unit_interval, rootiso, thermo
from conftest import (
    fraction_halvings,
    fraction_horner,
    fraction_multiplicity,
    fraction_sturm_count,
    reference_refine,
    weighted_graphs,
)


def poly(*coeffs):
    return list(coeffs)


def times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_sign_at_is_exact():
    p = poly(1, -3, 2)  # (1 - t)(1 - 2t)
    assert rootiso.sign_at(p, Fraction(0)) == 1
    assert rootiso.sign_at(p, Fraction(1, 2)) == 0
    assert rootiso.sign_at(p, Fraction(3, 4)) == -1
    assert rootiso.sign_at(p, Fraction(1)) == 0


def test_isolate_simple_roots():
    p = poly(1, -3, 1)  # roots (3 +- sqrt 5)/2; only (3-sqrt5)/2 ~ 0.382 in (0,1)
    (root,) = rootiso.roots_in_unit_interval(p)
    assert root.lo < Fraction(381966, 10**6) < root.hi
    assert root.hi - root.lo == Fraction(1, 2**20)


def test_exact_dyadic_roots_found_during_refinement():
    p = poly(1, -2)  # root exactly 1/2
    steps = list(itertools.islice(rootiso.halvings(p, Fraction(0), Fraction(1)), 3))
    assert steps == [(0, 1, 1), (1, 1, 2)]
    (root,) = rootiso.roots_in_unit_interval(p)
    assert (root.lo, root.hi, root.multiplicity) == (
        Fraction(1, 2),
        Fraction(1, 2),
        1,
    )


def test_isolate_close_root_pair():
    # (8x - 3)(16x - 7) = 128x^2 - 104x + 21: roots 0.375 and 0.4375
    p = poly(21, -104, 128)
    roots = rootiso.roots_in_unit_interval(p)
    assert [(r.lo, r.hi) for r in roots] == [
        (Fraction(3, 8), Fraction(3, 8)),
        (Fraction(7, 16), Fraction(7, 16)),
    ]


def test_roots_at_the_ends_of_the_unit_interval():
    assert rootiso.roots_in_unit_interval(poly(0, 1)) == []  # root at 0
    (root,) = rootiso.roots_in_unit_interval(poly(-1, 1))
    assert (root.lo, root.hi, root.multiplicity) == (1, 1, 1)
    # x^3 (2x - 1): the roots at 0 are stripped, 1/2 stays
    (root,) = rootiso.roots_in_unit_interval(poly(0, 0, 0, -1, 2))
    assert (root.lo, root.hi, root.multiplicity) == (Fraction(1, 2), Fraction(1, 2), 1)


def test_no_roots_reported_for_positive_polynomial():
    assert rootiso.roots_in_unit_interval(poly(1, 1, 1)) == []


def test_refine_shrinks_to_width():
    p = poly(-1, 0, 3)  # root sqrt(1/3) ~ 0.5774
    (root,) = rootiso.roots_in_unit_interval(p)
    steps = itertools.islice(rootiso.halvings(list(root.factor), root.lo, root.hi), 40)
    ln, hn, den = next((ln, hn, den) for ln, hn, den in steps if (hn - ln) * 10**12 <= den)
    lo, hi = Fraction(ln, den), Fraction(hn, den)
    assert hi - lo <= Fraction(1, 10**12)
    assert rootiso.sign_at(p, lo) != rootiso.sign_at(p, hi)


def test_roots_in_unit_interval_full_reports():
    # (1 - t)(1 - 2t): simple roots at 1/2 and 1
    roots = rootiso.roots_in_unit_interval(poly(1, -3, 2))
    assert [(r.lo, r.hi, r.multiplicity) for r in roots] == [
        (Fraction(1, 2), Fraction(1, 2), 1),
        (Fraction(1), Fraction(1), 1),
    ]
    # (1 - t)^2: double root at 1, reported once
    roots = rootiso.roots_in_unit_interval(poly(1, -2, 1))
    assert [(r.lo, r.multiplicity) for r in roots] == [(Fraction(1), 2)]
    # (1 - 2t)^2 (1 - t): double root inside the interval
    roots = rootiso.roots_in_unit_interval(poly(1, -5, 8, -4))
    assert [(r.lo, r.multiplicity) for r in roots] == [
        (Fraction(1, 2), 2),
        (Fraction(1), 1),
    ]
    # (1 - 3t)^2 and (1 - 3t)^3: no dyadic point hits 1/3, so the gcd of an
    # undecided critical bracket finds it, on one level and on two
    for k in (2, 3):
        p = [1]
        for _ in range(k):
            p = times(p, [1, -3])
        (root,) = rootiso.roots_in_unit_interval(p)
        assert root.lo < Fraction(1, 3) < root.hi and root.multiplicity == k
        assert root.factor == (-1, 3)


def test_exact_root_at_the_end_of_a_neighbouring_node():
    # 1/2 and (2^21 + 1)/2^22: the second root's level-20 node starts at
    # the first, so its factor must not vanish there
    p = times([-1, 2], [-(2**21) - 1, 2**22])
    exact, near = rootiso.roots_in_unit_interval(p)
    assert (exact.lo, exact.hi) == (Fraction(1, 2), Fraction(1, 2))
    assert (near.lo, near.hi) == (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 2**20))
    assert rootiso.sign_at(list(near.factor), near.lo) != 0
    steps = rootiso.halvings(list(near.factor), near.lo, near.hi)
    *_, (ln, hn, den) = itertools.islice(steps, 3)
    assert Fraction(ln, den) == Fraction(hn, den) == Fraction(2**21 + 1, 2**22)


@pytest.mark.parametrize(
    "p",
    [
        poly(2, -7, 6),  # (2x - 1)(3x - 2): zero at 1/2, p' = 0 at 7/12
        poly(2, -5, 3),  # (x - 1)(3x - 2): zero at 1, p' = 0 at 5/6
        poly(2, -5, -1, 6),  # (2x - 1)(3x - 2)(x + 1): zero at 1/2, p' = 0 near 0.5855
    ],
)
def test_critical_sign_on_a_bracket_with_a_root_of_p_at_one_end(p):
    # p vanishes at one end of [1/2, 1] and p' once inside: the clean-bracket
    # test meets vl * vh == 0, and only the curvature bound may decide
    dp = [k * c for k, c in enumerate(p)][1:]
    assert fraction_horner(p, Fraction(1, 2)) * fraction_horner(p, Fraction(1)) == 0
    bracket = (1, 2, 2, 1, rootiso._terms(dp))  # [1/2, 1], multiplicity 1, factor p'
    sign, (ln, hn, den, _, f) = rootiso._critical_sign(rootiso._terms(p), bracket)
    lo, hi = Fraction(ln, den), Fraction(hn, den)
    assert Fraction(1, 2) <= lo < hi <= 1
    f = [dict(f).get(e, 0) for e in range(f[-1][0] + 1)]
    assert fraction_horner(f, lo) * fraction_horner(f, hi) < 0  # the critical point is inside
    for x in (lo, (lo + hi) / 2, hi):
        value = fraction_horner(p, x)
        assert sign == (value > 0) - (value < 0) == -1


def test_roots_closer_than_a_level_20_node_go_ten_levels_deeper():
    # (2^25 x - 100)^2 - 2: both roots in [3, 4] / 2^20
    n = 2**25
    roots = rootiso.roots_in_unit_interval([100**2 - 2, -200 * n, n * n])
    assert [r.hi - r.lo for r in roots] == [Fraction(1, 2**30)] * 2
    assert roots[0].hi < roots[1].lo


def test_roots_intervals_are_disjoint_and_sorted():
    # roots at 1/3, 1/2, 2/3 from (3x-1)(2x-1)(3x-2)
    p = [-2, 13, -27, 18]
    roots = rootiso.roots_in_unit_interval(p)
    assert len(roots) == 3
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo


def test_wilkinson_style_cluster():
    # roots 1/2, 1/4, 1/8, ..., 1/64 of the product of (2^k x - 1)
    p = [1]
    for k in range(1, 7):
        p = times(p, [-1, 2**k])
    roots = rootiso.roots_in_unit_interval(p)
    values = sorted(float((r.lo + r.hi) / 2) for r in roots)
    expected = sorted(1 / 2**k for k in range(1, 7))
    assert len(values) == 6
    for got, want in zip(values, expected):
        assert abs(got - want) < 1e-6


# distinct roots a/b with 0 < a < b <= 9, each with a multiplicity k <= 3
linear_factors = st.lists(
    st.tuples(st.integers(1, 8), st.integers(2, 9), st.integers(1, 3)).filter(
        lambda t: t[0] < t[1]
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda t: Fraction(t[0], t[1]),
)
# c0 + c1 x + c2 x^2 with no real root
quadratics = st.tuples(
    st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9)
).filter(lambda q: q[1] ** 2 < 4 * q[0] * q[2])


@settings(deadline=None, max_examples=60)
@given(
    linear_factors,
    quadratics,
    st.lists(st.fractions(-2, 2, max_denominator=60), max_size=4),
)
def test_integer_l3_on_products_of_linear_factors(factors, quadratic, points):
    roots = {Fraction(a, b): k for a, b, k in factors}
    quadratic = [c // math.gcd(*quadratic) for c in quadratic]
    p = quadratic
    for r, k in roots.items():
        for _ in range(k):
            p = times(p, [-r.numerator, r.denominator])
    for x in [Fraction(0), Fraction(1), *roots, *points]:
        value = fraction_horner(p, x)
        assert rootiso.sign_at(p, x) == (value > 0) - (value < 0)

    reported = rootiso.roots_in_unit_interval(p)
    assert len(reported) == len(roots)
    for r, k in roots.items():
        (owner,) = [x for x in reported if x.lo <= r <= x.hi]
        assert owner.multiplicity == k
    _check_against_sturm(p, reported)


def _check_against_sturm(p, reported):
    """Each interval holds one distinct root of p, with the Sturm oracle's
    count and multiplicity, and a factor simple there with no other root."""
    root_at_one = fraction_horner(p, Fraction(1)) == 0
    assert len(reported) == fraction_sturm_count(p, Fraction(0), Fraction(1)) + root_at_one
    assert all(a.hi <= b.lo for a, b in zip(reported, reported[1:]))
    for r in reported:
        if r.exact:
            assert fraction_horner(p, r.lo) == 0
        else:
            assert fraction_sturm_count(p, r.lo, r.hi) == 1
            assert fraction_sturm_count(r.factor, r.lo, r.hi) == 1
            assert fraction_horner(r.factor, r.lo) != 0 != fraction_horner(r.factor, r.hi)
        assert r.multiplicity == fraction_multiplicity(p, r.lo, r.hi)
        assert fraction_multiplicity(r.factor, r.lo, r.hi) == 1


@settings(deadline=None, max_examples=60)
@given(weighted_graphs(min_letters=2, max_letters=6, denominators=(1, 2, 3, 6)))
def test_clique_polynomial_roots_match_the_sturm_oracle(graph):
    p = clique_polynomial(graph).integer_coefficients()
    _check_against_sturm(p, rootiso.roots_in_unit_interval(p))


def _bisection_steps(halvings, n=48):
    """The first n intervals a bisection generator yields, or its error."""
    try:
        return list(itertools.islice(halvings, n))
    except ValueError as exc:
        return repr(exc)


@settings(deadline=None, max_examples=60)
@given(linear_factors, quadratics)
def test_integer_halvings_match_the_fraction_bisection(factors, quadratic):
    p = quadratic
    for a, b, k in factors:
        for _ in range(k):
            p = times(p, [-a, b])
    # isolating intervals of the squarefree part, then intervals with
    # non-dyadic ends around each root; even multiplicities do not bracket
    squarefree = quadratic
    for a, b, _ in factors:
        squarefree = times(squarefree, [-a, b])
    intervals = [(r.lo, r.hi) for r in rootiso.roots_in_unit_interval(squarefree)]
    for a, b, _ in factors:
        intervals.append((Fraction(7 * a - 1, 7 * b), Fraction(5 * a + 1, 5 * b)))
    for lo, hi in intervals:
        got = _bisection_steps(rootiso.halvings(p, lo, hi))
        want = _bisection_steps(fraction_halvings(p, lo, hi))
        if isinstance(got, list):
            assert all(d2 == 2 * d1 for (_, _, d1), (_, _, d2) in zip(got, got[1:]))
            got = [(Fraction(ln, d), Fraction(hn, d)) for ln, hn, d in got]
        assert got == want


def _stuck_halvings(terms, ln, hn, den):
    """A broken bisection: the denominator doubles, the interval stays."""
    while True:
        yield ln, hn, den
        ln, hn, den = 2 * ln, 2 * hn, 2 * den


def test_a_stuck_bisection_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(rootiso, "_halvings", _stuck_halvings)
    # (3x - 1)^2 + 2^-20: p(1/3) > 0 shows only on a critical bracket
    # narrower than about 2^-10, which a stuck bisection never reaches
    with pytest.raises(ArithmeticError):
        rootiso.roots_in_unit_interval([2**20 + 1, -6 * 2**20, 9 * 2**20])


# -- certified float proposals against one exact sign per bit -------------------

TOLS = (1e-2, 1e-6, 1e-9, 1e-12, 1e-14)  # at 1e-2 a level-20 node is already narrow enough


@contextlib.contextmanager
def _declined():
    """Every float proposal declined, so nodes come from one exact sign per
    bit, and every refinement from `reference_refine`'s bisection: the
    reference the certified nodes and `rootiso.refine` must reproduce."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootiso, "_certified_node", lambda *args: None)
        mp.setattr(thermo, "_refine_root", lambda ctx, r, tol: reference_refine(r, ctx.clique_poly.scale, tol))
        yield


def _outcome(run):
    try:
        return run()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


def _edge_tols(root, scale, k):
    """Two tols at the edge of the stop rule on the node k halvings below the
    root's: the rule first holds on that node at one of them, and one
    halving lower at the other.  There the lower and the upper end of the
    root's node can give different levels, so only the rule on the
    certified node's ancestors stops where the bisection does.  No tols when
    the root is exact, its node starts at 0, or k halvings meet it."""
    if root.exact or root.lo == 0:
        return []
    steps = rootiso.halvings(list(root.factor), root.lo, root.hi)
    *_, (ln, hn, den) = itertools.islice(steps, k + 1)
    if ln == hn:
        return []
    edge = 2 * scale * ((hn - ln) / ln)
    return [edge * (1 + 2**-30), edge * (1 - 2**-30)]


def _refinements(p, scale, k):
    """The roots of p and their brackets at TOLS and at each root's edge tols,
    refined on a stand-in context of this scale."""
    ctx = SimpleNamespace(clique_poly=SimpleNamespace(scale=scale), _refined={})
    roots = rootiso.roots_in_unit_interval(p)
    tols = [*TOLS, *(tol for r in roots for tol in _edge_tols(r, scale, k))]
    return roots, [_outcome(lambda: thermo._refine_root(ctx, r, tol)) for tol in tols for r in roots]


# roots a/b: dyadic (b a power of two, some past the level-20 nodes), small,
# or a close pair k/n, (k+1)/n with n up to 2**40, each with a multiplicity
# up to 3
dyadic_or_small_roots = st.one_of(
    st.tuples(st.integers(1, 2**12 - 1), st.just(2**12)),
    st.integers(21, 44).flatmap(lambda k: st.tuples(st.integers(1, 2**k - 1), st.just(2**k))),
    st.tuples(st.integers(1, 8), st.integers(2, 9)),
).filter(lambda t: t[0] < t[1])
close_pairs = st.tuples(st.integers(2**19, 2**40), st.integers(2**20, 2**40)).filter(
    lambda t: t[0] + 1 < t[1]
)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.tuples(dyadic_or_small_roots, st.integers(1, 3)), max_size=3),
    st.lists(close_pairs, max_size=1),
    quadratics,
    st.sampled_from([1, 2, 12, 194]),
    st.integers(1, 30),
)
def test_certified_nodes_match_one_sign_per_bit_on_products(roots, pairs, quadratic, scale, k):
    p = [c // math.gcd(*quadratic) for c in quadratic]
    for (a, b), mult in roots:
        for _ in range(mult):
            p = times(p, [-a, b])
    for j, n in pairs:
        p = times(times(p, [-j, n]), [-j - 1, n])
    got = _outcome(lambda: _refinements(p, scale, k))
    with _declined():
        want = _outcome(lambda: _refinements(p, scale, k))
    assert got == want


@settings(deadline=None, max_examples=40)
@given(
    weighted_graphs(min_letters=2, max_letters=6, denominators=(1, 2, 3, 4, 6, 7)),
    st.integers(1, 30),
)
def test_certified_nodes_match_one_sign_per_bit_on_clique_polynomials(graph, k):
    def run():
        ctx = ThermoContext(graph)
        scale = ctx.clique_poly.scale
        tols = [*TOLS, *(tol for r in ctx._roots for tol in _edge_tols(r, scale, k))]
        return ctx._roots, ctx.beta_c, [clique_roots_in_unit_interval(ctx, tol) for tol in tols]

    got = run()
    with _declined():
        want = run()
    assert got == want


@pytest.mark.parametrize("proposal", [0.0, 0.25, 0.5, 0.75, 1.0, 2.0, -1.0, math.inf, math.nan])
def test_a_proposal_off_the_bracket_is_clipped_or_declined(monkeypatch, proposal):
    # sqrt(1/3) ~ 0.5774 on the bracket [9/16, 5/8]: every proposal, however
    # far off, gives the walk's node or None, never a node beside the bracket
    f = rootiso._terms([-1, 0, 3])
    monkeypatch.setattr(rootiso, "_propose", lambda *args: proposal)
    for level in (2, 3, 4, 8, 20):
        node = rootiso._certified_node(f, 9, 10, 16, level)
        assert node in (None, rootiso._walk(f, 9, 10, 16, level))


def test_a_certified_node_takes_two_exact_signs(monkeypatch):
    f, signs = rootiso._terms([-1, 0, 3]), []
    walked = [rootiso._walk(f, 1, 2, 2, level) for level in (20, 45)]
    real = rootiso._sign
    monkeypatch.setattr(rootiso, "_sign", lambda *args: signs.append(args) or real(*args))
    assert [rootiso._certified_node(f, 1, 2, 2, level) for level in (20, 45)] == walked
    assert len(signs) == 4  # one at each end of each node


def test_a_node_checks_again_only_the_ends_outside_its_bracket(monkeypatch):
    # the search decides the signs at a node's ends inside the bracket; an end
    # outside it may hold a neighbouring exact root, which is divided out
    f, signs = rootiso._terms([-1, 0, 3]), []
    real = rootiso._sign
    monkeypatch.setattr(rootiso, "_sign", lambda *args: signs.append(args) or real(*args))
    for bracket, level, outside in (((1, 2, 2), 20, 0), ((9, 10, 16), 1, 2)):
        signs.clear()
        node = rootiso._node((*bracket, 1, f), level)
        assert node.hi - node.lo == Fraction(1, 2**level) and node.factor == (-1, 0, 3)
        assert len(signs) == 2 + outside  # two certify the node


def _halving(root, k):
    """The bracket of `rootiso.halvings` k halvings below the root's node, or
    the dyadic root they meet before."""
    *_, (ln, hn, den) = itertools.islice(rootiso.halvings(list(root.factor), root.lo, root.hi), k + 1)
    return Fraction(ln, den), Fraction(hn, den)


def test_refine_stops_within_most_halvings_and_at_a_dyadic_root():
    (third,) = rootiso.roots_in_unit_interval([-1, 3])  # on a level-20 node
    ln = third.lo.numerator * (2**20 // third.lo.denominator)

    def wide_above(j):  # fails on nodes j halvings below the root's, first
        return lambda a, b: a < ln << j

    for j in (0, 1, 7):
        assert rootiso.refine(third, wide_above(j), j) == _halving(third, j)
        assert rootiso.refine(third, wide_above(j), j + 3) == _halving(third, j)
        with pytest.raises(ArithmeticError):
            rootiso.refine(third, wide_above(j + 1), j)
    for most in (-9, -1, 0, 5):
        with pytest.raises(ArithmeticError):
            rootiso.refine(third, lambda a, b: True, most)
    assert rootiso.refine(third, wide_above(0), -9) == (third.lo, third.hi)  # most < 0 is 0

    # (2**24 + 1) / 2**25, met 5 halvings below its level-20 node, where the
    # node [2**24 + 1, 2**24 + 2] / 2**25 is no longer wide: the meet wins
    (near,) = rootiso.roots_in_unit_interval([-(2**24 + 1), 2**25])
    dyadic = Fraction(2**24 + 1, 2**25)
    assert not near.exact and _halving(near, 5) == (dyadic, dyadic)
    assert rootiso.refine(near, lambda a, b: a < 2**24 + 1, 30) == (dyadic, dyadic)
    assert rootiso.refine(near, lambda a, b: True, 5) == (dyadic, dyadic)
    with pytest.raises(ArithmeticError):
        rootiso.refine(near, lambda a, b: True, 4)
