"""Exact root isolation: known polynomials, multiplicities, tight clusters."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qlo import rootiso
from conftest import fraction_halvings, fraction_horner


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


def test_squarefree_decomposition_recovers_multiplicities():
    # (x - 1)^2 up to sign
    factors = rootiso.squarefree_decomposition(poly(1, -2, 1))
    assert len(factors) == 1
    mult, factor = factors[0]
    assert mult == 2 and factor == [-1, 1]
    # (2x - 1)^2 (x - 1): multiplicity 2 at 1/2, 1 at 1
    f = [-1, 5, -8, 4]
    factors = dict(
        (m, tuple(fac)) for m, fac in rootiso.squarefree_decomposition(f)
    )
    assert set(factors) == {1, 2}


def test_isolate_simple_roots():
    p = poly(1, -3, 1)  # roots (3 +- sqrt 5)/2; only (3-sqrt5)/2 ~ 0.382 in (0,1)
    intervals = rootiso.isolate_01(p)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo < Fraction(382, 1000) < hi


def test_exact_dyadic_roots_found_during_refinement():
    p = poly(1, -2)  # root exactly 1/2
    (interval,) = rootiso.isolate_01(p)
    assert rootiso.refine(p, *interval, Fraction(1, 2**40)) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    (root,) = rootiso.roots_in_unit_interval(p)
    assert (root.lo, root.hi, root.multiplicity) == (
        Fraction(1, 2),
        Fraction(1, 2),
        1,
    )


def test_isolate_close_root_pair():
    # (8x - 3)(16x - 7) = 128x^2 - 104x + 21: roots 0.375 and 0.4375
    p = poly(21, -104, 128)
    intervals = rootiso.isolate_01(p)
    assert len(intervals) == 2
    (lo1, hi1), (lo2, hi2) = sorted(intervals)
    assert lo1 <= Fraction(3, 8) <= hi1
    assert lo2 <= Fraction(7, 16) <= hi2


def test_isolate_rejects_roots_at_endpoints():
    with pytest.raises(ValueError):
        rootiso.isolate_01(poly(0, 1))  # root at 0
    with pytest.raises(ValueError):
        rootiso.isolate_01(poly(-1, 1))  # root at 1


def test_no_roots_reported_for_positive_polynomial():
    assert rootiso.isolate_01(poly(1, 1, 1)) == []
    assert rootiso.roots_in_unit_interval(poly(1, 1, 1)) == []


def test_refine_shrinks_to_width():
    p = poly(-1, 0, 3)  # root sqrt(1/3) ~ 0.5774
    (interval,) = rootiso.isolate_01(p)
    lo, hi = rootiso.refine(p, *interval, Fraction(1, 10**12))
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
    expected = {1: quadratic}
    for r, k in roots.items():
        linear = [-r.numerator, r.denominator]
        for _ in range(k):
            p = times(p, linear)
        expected[k] = times(expected.get(k, [1]), linear)
    for x in [Fraction(0), Fraction(1), *roots, *points]:
        value = fraction_horner(p, x)
        assert rootiso.sign_at(p, x) == (value > 0) - (value < 0)

    decomposition = rootiso.squarefree_decomposition(p)
    assert dict(decomposition) == expected
    assert len(decomposition) == len(expected)

    reported = rootiso.roots_in_unit_interval(p)
    assert len(reported) == len(roots)
    for r, k in roots.items():
        (owner,) = [x for x in reported if x.lo <= r <= x.hi]
        assert owner.multiplicity == k


def _bisection_steps(halvings, n=48):
    """The first n intervals a bisection generator yields, or its error."""
    try:
        return list(itertools.islice(halvings, n))
    except ValueError as exc:
        return repr(exc)


@settings(deadline=None, max_examples=60)
@given(linear_factors, quadratics, st.integers(0, 40))
def test_integer_halvings_match_the_fraction_bisection(factors, quadratic, bits):
    p = quadratic
    for a, b, k in factors:
        for _ in range(k):
            p = times(p, [-a, b])
    # isolating intervals of the squarefree part, then intervals with
    # non-dyadic ends around each root; even multiplicities do not bracket
    squarefree = quadratic
    for a, b, _ in factors:
        squarefree = times(squarefree, [-a, b])
    intervals = rootiso.isolate_01(squarefree)
    for a, b, _ in factors:
        intervals.append((Fraction(7 * a - 1, 7 * b), Fraction(5 * a + 1, 5 * b)))
    width = Fraction(1, 2**bits)
    for lo, hi in intervals:
        got = _bisection_steps(rootiso.halvings(p, lo, hi))
        want = _bisection_steps(fraction_halvings(p, lo, hi))
        if isinstance(got, list):
            assert all(d2 == 2 * d1 for (_, _, d1), (_, _, d2) in zip(got, got[1:]))
            got = [(Fraction(ln, d), Fraction(hn, d)) for ln, hn, d in got]
        assert got == want
        if isinstance(want, list):
            refined = next(iv for iv in fraction_halvings(p, lo, hi) if iv[1] - iv[0] <= width)
            assert rootiso.refine(p, lo, hi, width) == refined
