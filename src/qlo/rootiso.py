"""Exact real-root isolation for integer polynomials on (0, 1].

Polynomial arithmetic is integer-only.  Signs at a rational a/b come from
the integer b**n * p(a/b); Yun's algorithm finds the squarefree factors
with a primitive-remainder-sequence gcd and exact integer division, so
multiple roots are located once and reported with their multiplicity;
isolation is Descartes/bisection (variation counts after the Moebius
substitution x -> 1/(1+x)).  Isolation and refinement run on integer
numerators over a doubling denominator; Fraction appears only in the
interval endpoints they return.
Coefficient lists are ascending: coeffs[k] is the coefficient of x**k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

__all__ = [
    "sign_at",
    "squarefree_decomposition",
    "isolate_01",
    "halvings",
    "refine",
    "IsolatedRoot",
    "roots_in_unit_interval",
]


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _sign(coeffs, a, b):
    """Sign of b**n * p(a/b), n = deg p, by integer Horner; b > 0."""
    acc, b_power = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * b_power
        b_power *= b
    return (acc > 0) - (acc < 0)


def sign_at(coeffs, x):
    """Sign of p(x) at a rational x."""
    return _sign(coeffs, x.numerator, x.denominator)


def _derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _primitive(coeffs):
    """Divide out the content, leaving a positive leading coefficient."""
    coeffs = _trim(coeffs)
    if not coeffs:
        return []
    content = gcd(*coeffs)
    if coeffs[-1] < 0:
        content = -content
    return [c // content for c in coeffs]


def _exact_div(num, den):
    """Quotient of integer polynomials whose division leaves no remainder."""
    rem = _trim(num)
    top = len(den) - 1
    quot = [0] * max(len(rem) - top, 0)
    for k in range(len(quot) - 1, -1, -1):
        factor, r = divmod(rem[k + top], den[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        quot[k] = factor
        if factor:
            for i, c in enumerate(den):
                rem[k + i] -= factor * c
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return quot


def _gcd(a, b):
    """Primitive gcd of integer polynomials (primitive remainder sequence)."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        rem = a
        while len(rem) >= len(b):
            # scale rem so that a multiple of b cancels its leading term
            g = gcd(rem[-1], b[-1])
            factor, k = rem[-1] // g, len(rem) - len(b)
            rem = [c * (b[-1] // g) for c in rem]
            for i, c in enumerate(b):
                rem[k + i] -= factor * c
            rem = _trim(rem)
        a, b = b, _primitive(rem)
    return a


def squarefree_decomposition(coeffs):
    """Yun's algorithm: list of (multiplicity, primitive squarefree factor).

    Factors of degree zero are dropped; the product of factor**multiplicity
    recovers the input up to a constant.  Every gcd is primitive, so the
    divisions by it stay in the integers.
    """
    f = _primitive(coeffs)
    if len(f) <= 1:
        return []
    df = _derivative(f)
    u = _gcd(f, df)
    v = _exact_div(f, u)
    w = _exact_div(df, u)
    out = []
    i = 1
    while len(v) > 1:
        dv = _derivative(v)
        s = [x - y for x, y in zip_longest(w, dv, fillvalue=0)]
        g = _gcd(v, s)
        if len(g) > 1:
            out.append((i, g))
        v = _exact_div(v, g)
        w = _exact_div(s, g)
        i += 1
    return out


def _taylor_shift_1(coeffs):
    """p(x) -> p(x + 1), integer arithmetic."""
    out = list(coeffs)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += out[j + 1]
    return out


def _variations(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations_01(coeffs):
    """Descartes bound for the number of roots in the open interval (0, 1)."""
    return _variations(_taylor_shift_1(list(reversed(coeffs))))


def isolate_01(coeffs):
    """Isolating intervals for the roots of a squarefree poly in (0, 1).

    Returns a list of (lo, hi) Fractions; lo == hi marks an exact rational
    root.  Requires p(0) != 0 and p(1) != 0.
    """
    coeffs = _trim(coeffs)
    if not coeffs or coeffs[0] == 0:
        raise ValueError("zero constant term; strip roots at 0 first")
    if sum(coeffs) == 0:
        raise ValueError("root at 1; divide out (x - 1) first")
    n = len(coeffs) - 1
    found = []
    # (c, den, p): p on (0, 1) stands for coeffs on (c/den, (c+1)/den)
    work = [(0, 1, list(coeffs))]
    while work:
        c, den, p = work.pop()
        v = _variations_01(p)
        if v == 0:
            continue
        if v == 1:
            found.append((Fraction(c, den), Fraction(c + 1, den)))
            continue
        # left half: q(x) = 2^n p(x/2); right half: shift the left by one
        left = [a * 2 ** (n - k) for k, a in enumerate(p)]
        right = _taylor_shift_1(left)
        if right[0] == 0:
            # the midpoint is a root: record it and strip it from both
            # halves so no local polynomial ever vanishes at an endpoint
            found.append((Fraction(2 * c + 1, 2 * den),) * 2)
            right = right[1:]
            left = _exact_div(left, [-1, 1])
        work.append((2 * c, 2 * den, left))
        work.append((2 * c + 1, 2 * den, right))
    found.sort(key=lambda iv: iv[0])
    return found


def halvings(coeffs, lo, hi):
    """Yield an isolating interval [lo, hi], then its successive halves, as
    integer triples (lo_num, hi_num, den) over a denominator that doubles at
    each step; one exact sign per halving, and a root hit at a dyadic point
    ends it with lo_num == hi_num."""
    den = lcm(lo.denominator, hi.denominator)
    ln, hn = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    if ln != hn:
        slo, shi = _sign(coeffs, ln, den), _sign(coeffs, hn, den)
        if slo == 0:
            hn = ln
        elif shi == 0:
            ln = hn
        elif slo == shi:
            raise ValueError("interval does not bracket a sign change")
    yield ln, hn, den
    while ln != hn:
        mid, ln, hn, den = ln + hn, 2 * ln, 2 * hn, 2 * den
        smid = _sign(coeffs, mid, den)
        if smid == 0:
            ln = hn = mid
        elif smid == slo:
            ln = mid
        else:
            hn = mid
        yield ln, hn, den


def refine(coeffs, lo, hi, max_width):
    """Shrink a (lo, hi) isolating interval by exact-sign bisection."""
    width = Fraction(max_width)
    for ln, hn, den in halvings(coeffs, lo, hi):
        if (hn - ln) * width.denominator <= width.numerator * den:
            return Fraction(ln, den), Fraction(hn, den)


@dataclass(frozen=True)
class IsolatedRoot:
    lo: Fraction
    hi: Fraction
    multiplicity: int
    factor: tuple  # primitive squarefree factor owning this root

    @property
    def exact(self):
        return self.lo == self.hi


def roots_in_unit_interval(coeffs):
    """All real roots in (0, 1] with multiplicities, intervals disjoint.

    Roots at 0 are excluded by convention (strip x factors); a root at 1 is
    returned with the exact interval [1, 1].
    """
    coeffs = _trim(coeffs)
    if not coeffs:
        raise ValueError("zero polynomial")
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return []
    roots = []
    for multiplicity, factor in squarefree_decomposition(coeffs):
        body = list(factor)
        if sum(body) == 0:  # factor(1) == 0; squarefree, so exactly once
            roots.append(IsolatedRoot(Fraction(1), Fraction(1), multiplicity, tuple(factor)))
            body = _exact_div(body, [-1, 1])
        if len(body) > 1 and body[0] != 0:
            intervals = isolate_01(body)
            # an exact root a/b may sit on a neighbouring interval's endpoint;
            # divide out (b*x - a) so refinement signs stay honest
            deflated = body
            for lo, hi in intervals:
                if lo == hi:
                    deflated = _exact_div(deflated, [-lo.numerator, lo.denominator])
            for lo, hi in intervals:
                owner = body if lo == hi else deflated
                roots.append(IsolatedRoot(lo, hi, multiplicity, tuple(owner)))
    # shrink until intervals are pairwise disjoint so ordering is certified
    width = Fraction(1, 2**20)
    while True:
        roots = sorted(
            (IsolatedRoot(*refine(list(r.factor), r.lo, r.hi, width), r.multiplicity, r.factor)
             for r in roots),
            key=lambda r: (r.lo, r.hi),
        )
        if all(a.hi <= b.lo for a, b in zip(roots, roots[1:])):
            return roots
        width /= 2**10
