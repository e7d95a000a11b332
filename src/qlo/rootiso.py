"""Exact real-root isolation for integer polynomials on (0, 1].

Sign evaluation is exact rational arithmetic; isolation uses the
Descartes/bisection method (variation counts after the Moebius substitution
x -> 1/(1+x)), with Yun's algorithm supplying squarefree factors so that
multiple roots are located once and reported with their multiplicity.
Coefficient lists are ascending: coeffs[k] is the coefficient of x**k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "sign_at",
    "squarefree_decomposition",
    "isolate_01",
    "refine",
    "IsolatedRoot",
    "roots_in_unit_interval",
]


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def evaluate_at(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def sign_at(coeffs, x):
    value = evaluate_at(coeffs, x)
    return (value > 0) - (value < 0)


def _derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _poly_divmod(num, den):
    num = [Fraction(c) for c in num]
    den = _trim([Fraction(c) for c in den])
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    for k in range(len(quot) - 1, -1, -1):
        factor = rem[k + len(den) - 1] / den[-1]
        quot[k] = factor
        if factor:
            for i, c in enumerate(den):
                rem[k + i] -= factor * c
    return _trim(quot), _trim(rem)


def _poly_exact_div(num, den):
    quot, rem = _poly_divmod(num, den)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quot


def _monic_gcd(a, b):
    a = _trim([Fraction(c) for c in a])
    b = _trim([Fraction(c) for c in b])
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def _to_primitive(coeffs):
    """Clear denominators and content, producing a primitive integer list."""
    from math import gcd, lcm

    if not coeffs:
        return []
    denom = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * denom) for c in coeffs]
    content = 0
    for c in ints:
        content = gcd(content, abs(c))
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def squarefree_decomposition(coeffs):
    """Yun's algorithm: list of (multiplicity, primitive squarefree factor).

    Factors of degree zero are dropped; the product of factor**multiplicity
    recovers the input up to a constant.
    """
    f = _trim([Fraction(c) for c in coeffs])
    if len(f) <= 1:
        return []
    df = _derivative(f)
    u = _monic_gcd(f, df)
    v = _poly_exact_div(f, u)
    w = _poly_exact_div(df, u)
    out = []
    i = 1
    while len(v) > 1:
        dv = _derivative(v)
        s = [Fraction(0)] * max(len(w), len(dv))
        for k, c in enumerate(w):
            s[k] += c
        for k, c in enumerate(dv):
            s[k] -= c
        s = _trim(s)
        g = _monic_gcd(v, s)
        if len(g) > 1:
            out.append((i, _to_primitive(g)))
        v = _poly_exact_div(v, g)
        w = _poly_exact_div(s, g)
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
    count = 0
    prev = 0
    for c in coeffs:
        if c == 0:
            continue
        s = 1 if c > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


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
    work = [(Fraction(0), Fraction(1), list(coeffs))]
    while work:
        lo, hi, p = work.pop()
        v = _variations_01(p)
        if v == 0:
            continue
        if v == 1:
            found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        # left half: q(x) = 2^n p(x/2); right half: shift the left by one
        left = [c * 2 ** (n - k) for k, c in enumerate(p)]
        right = _taylor_shift_1(left)
        if right[0] == 0:
            # the midpoint is a root: record it and strip it from both
            # halves so no local polynomial ever vanishes at an endpoint
            found.append((mid, mid))
            right = right[1:]
            left = [int(c) for c in _poly_exact_div(left, [-1, 1])]
        work.append((lo, mid, left))
        work.append((mid, hi, right))
    found.sort(key=lambda iv: iv[0])
    return found


def refine(coeffs, lo, hi, max_width):
    """Shrink a (lo, hi) isolating interval by exact-sign bisection."""
    if lo == hi:
        return lo, hi
    slo = sign_at(coeffs, lo)
    shi = sign_at(coeffs, hi)
    if slo == 0:
        return lo, lo
    if shi == 0:
        return hi, hi
    if slo == shi:
        raise ValueError("interval does not bracket a sign change")
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        smid = sign_at(coeffs, mid)
        if smid == 0:
            return mid, mid
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


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
    one = Fraction(1)
    for multiplicity, factor in squarefree_decomposition(coeffs):
        body = list(factor)
        if sum(body) == 0:  # factor(1) == 0; squarefree, so exactly once
            roots.append(
                IsolatedRoot(one, one, multiplicity, tuple(factor))
            )
            body = _to_primitive(_poly_exact_div(body, [-1, 1]))
        if len(body) > 1 and body[0] != 0:
            intervals = isolate_01(body)
            # an exact root may sit on a neighbouring interval's endpoint;
            # divide the exact roots out so refinement signs stay honest
            deflated = body
            for lo, hi in intervals:
                if lo == hi:
                    deflated = _to_primitive(
                        _poly_exact_div(deflated, [-lo, 1])
                    )
            for lo, hi in intervals:
                owner = body if lo == hi else deflated
                roots.append(
                    IsolatedRoot(lo, hi, multiplicity, tuple(owner))
                )
    # shrink until intervals are pairwise disjoint so ordering is certified
    width = Fraction(1, 2**20)
    while True:
        refined = []
        for r in roots:
            lo, hi = refine(list(r.factor), r.lo, r.hi, width)
            refined.append(IsolatedRoot(lo, hi, r.multiplicity, r.factor))
        refined.sort(key=lambda r: (r.lo, r.hi))
        overlap = any(a.hi > b.lo for a, b in zip(refined, refined[1:]))
        if not overlap:
            return refined
        roots = refined
        width /= 2**10
