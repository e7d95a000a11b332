"""Exact real-root isolation for integer polynomials on (0, 1].

Coefficient lists are ascending at the API (coeffs[k] multiplies x**k);
inside, a polynomial is its nonzero terms (e, c), and the sign of p at n/d is
that of the integer sum of c * n**e * d**(top - e).  Isolation is Rolle
recursion on these sparse terms, so its work follows their number, not the
degree: the roots of x**(1 - e1) * p', one term fewer, cut (0, 1] into pieces
on which p is monotone, down to where Descartes' rule of signs allows one
positive root.  Each loop stops at a step limit from its inputs and raises
ArithmeticError there.  Fraction appears only in the endpoints returned.

A root's dyadic node at a level, the [a, a + 1] / 2**level that holds it,
is proposed by floats and certified by exact signs: safeguarded Newton steps
on the float terms propose the node, and the exact signs at its two ends
certify it, a zero there being the root itself.  Floats never decide a sign.
Where the signs do not certify the node, or a coefficient has no float, one
exact sign per level finds it instead, so the nodes are the same either way.
Isolation and refinement share this one node search: `refine` takes a root
to the bracket its bisection stops at from the node at the deepest level
that bisection can reach, reading the stop off the node's ancestors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, inf, lcm, ldexp, ulp

__all__ = [
    "sign_at",
    "halvings",
    "IsolatedRoot",
    "roots_in_unit_interval",
    "refine",
]


def _terms(coeffs):
    return [(e, c) for e, c in enumerate(coeffs) if c]


def _dense(terms):
    coeffs = dict(terms)
    return [coeffs.get(e, 0) for e in range(terms[-1][0] + 1)]


def _value(terms, n, d):
    """d**top * p(n/d), top = deg p, by sparse integer Horner; d > 0.
    With d = odd * 2**k, the powers of a dyadic d are shifts."""
    if not terms:
        return 0
    k = (d & -d).bit_length() - 1
    odd = d >> k
    top = prev = terms[-1][0]
    acc = 0
    for e, c in reversed(terms):
        acc = acc * n ** (prev - e) + (c * odd ** (top - e) << k * (top - e))
        prev = e
    return acc * n**prev


def _sign(terms, n, d):
    value = _value(terms, n, d)
    return (value > 0) - (value < 0)


def sign_at(coeffs, x):
    """Sign of p(x) at a rational x."""
    return _sign(_terms(coeffs), x.numerator, x.denominator)


def _primitive(coeffs):
    """Drop trailing zeros and divide out the content, leaving a positive
    leading coefficient."""
    terms = _terms(coeffs)
    if not terms:
        return []
    content = gcd(*(c for _, c in terms)) * (1 if terms[-1][1] > 0 else -1)
    return [c // content for c in _dense(terms)]


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
            rem = _primitive(rem)
        a, b = b, rem
    return a


def _halvings(terms, ln, hn, den):
    """The bisection behind `halvings`, on the terms of p."""
    if ln != hn:
        slo, shi = _sign(terms, ln, den), _sign(terms, hn, den)
        if slo == 0:
            hn = ln
        elif shi == 0:
            ln = hn
        elif slo == shi:
            raise ValueError("interval does not bracket a sign change")
    yield ln, hn, den
    while ln != hn:
        mid, ln, hn, den = ln + hn, 2 * ln, 2 * hn, 2 * den
        smid = _sign(terms, mid, den)
        if smid == 0:
            ln = hn = mid
        elif smid == slo:
            ln = mid
        else:
            hn = mid
        yield ln, hn, den


def halvings(coeffs, lo, hi):
    """Yield an isolating interval [lo, hi], then its successive halves, as
    integer triples (lo_num, hi_num, den) over a denominator that doubles at
    each step; one exact sign per halving, and a root hit at a dyadic point
    ends it with lo_num == hi_num.  The bisection reference that tests hold
    `refine` to; isolation and refinement themselves search nodes."""
    den = lcm(lo.denominator, hi.denominator)
    ln, hn = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    return _halvings(_terms(coeffs), ln, hn, den)


# A root of one level is a tuple (ln, hn, den, multiplicity, f): [ln/den,
# hn/den] holds it and no other root of the level, den is a power of two, and
# f (terms) is simple at it and changes sign across; ln == hn if it is exact.


def _critical_sign(p, crit):
    """Sign of p at the root c of p' that `crit` brackets, and a bracket on
    which p keeps that sign.  |p(c) - p(x)| <= sup|p''| (c - x)**2 / 2 decides
    a nonzero sign; after 64 halvings a gcd may find p(c) = 0 instead, and the
    bracket then comes with that factor, simple at c."""
    ln, hn, den, mult, f = crit
    top = p[-1][0]
    # den**(top-2) * sup|p''| on the bracket, bounded at its right end
    bound = _value([(e - 2, abs(c) * e * (e - 1)) for e, c in p if e > 1], hn, den)
    # p(c) != 0 gives |p(c)| >= 1 / (|p|_1**(deg f - 1) * |f|_1**top) by the
    # resultant with f's factor at c: below that, width**2 * top**2 * |p|_1 decides
    norm = sum(abs(c) for _, c in p)
    bits = (f[-1][0] - 1) * norm.bit_length() + top * sum(abs(c) for _, c in f).bit_length()
    limit = max(64, (bits + (top * top * norm).bit_length()) // 2 + 2)
    vl = vh = 0
    for step, (l2, h2, den) in enumerate(_halvings(f, ln, hn, den)):
        if l2 == h2:
            return _sign(p, l2, den), (l2, h2, den, mult, f)
        if step and h2 - l2 != hn - ln:
            raise ArithmeticError("a halving did not halve the critical bracket")
        # p at the ends, times den**top; an end that stayed only rescales
        vl = vl << top if step and l2 == 2 * ln else _value(p, l2, den)
        vh = vh << top if step and h2 == 2 * hn else _value(p, h2, den)
        ln, hn = l2, h2
        slack = (hn - ln) ** 2 * bound << step * (top - 2)
        # p = 0 at one end never passes the slack test either: p'(c) = 0 inside, so
        # 2|p(other end)| <= sup|p''| * width**2 = slack (Taylor); `>= 0` decides alike
        if vl * vh > 0 and 2 * max(abs(vl), abs(vh)) > slack:
            return (vl > 0) - (vl < 0), (ln, hn, den, mult, f)
        if step == 64:  # still undecided: does p vanish at c too?
            g = _terms(_gcd(_dense(p), _dense(f)))
            if g[-1][0] and _sign(g, ln, den) != _sign(g, hn, den):
                return 0, (ln, hn, den, mult, g)
        if step == limit:
            raise ArithmeticError(f"critical bracket undecided after {limit} halvings")


def _simplest(ln, hn, den):
    """The dyadic with the least denominator in [ln/den, hn/den], as (n, d)."""
    if ln == 0:
        return 0, 1
    shift = ((ln - 1) ^ hn).bit_length() - 1
    return hn >> shift, den >> shift


def _rolle(p, critical):
    """Roots of p in (0, 1] from the roots of p' there, both ascending.
    Any point of a decided critical bracket can end the monotone pieces on
    either side of it; the coarsest keeps the numbers small."""
    roots, a, sa = [], (0, 1), (p[0][1] > 0) - (p[0][1] < 0)
    if not critical or critical[-1][0] != critical[-1][2]:
        critical = critical + [(1, 1, 1, 0, None)]  # 1 ends the last piece
    for crit in critical:
        if crit[0] == crit[1]:
            s = _sign(p, crit[0], crit[2])
        else:
            s, crit = _critical_sign(p, crit)
        ln, hn, den, mult, f = crit
        z = _simplest(ln, hn, den)
        if s * sa < 0:  # one sign change on the pieces from a to z
            d = max(a[1], z[1])
            roots.append((a[0] * (d // a[1]), z[0] * (d // z[1]), d, 1, p))
        if s == 0:
            roots.append((ln, hn, den, mult + 1, f))
        a, sa = z, s
    return roots


@dataclass(frozen=True)
class IsolatedRoot:
    lo: Fraction
    hi: Fraction
    multiplicity: int
    factor: tuple  # a factor of the input, simple here, no other root in [lo, hi]

    @property
    def exact(self):
        return self.lo == self.hi


def _deflate(coeffs, x):
    """coeffs / (x.denominator * t - x.numerator), for a root x of coeffs."""
    quot, carry = [], 0
    for c in reversed(coeffs[1:]):
        carry = (c + x.numerator * carry) // x.denominator  # exact (Gauss)
        quot.append(carry)
    return quot[::-1]


def _propose(f, lo, hi, level):
    """A float near the root of f in the float bracket (lo, hi), by Newton
    steps kept inside it, bisecting where a step leaves it or fails to halve
    the one before.  It stops once a step moves less than a quarter of a
    level node or a few ulps, or after 2 * level + 16 steps.  Only a
    proposal: float signs here steer the bracket and decide nothing.
    OverflowError when a coefficient has no float."""
    terms = [(e, float(c)) for e, c in f]
    negative_at_lo = sum(c * lo**e for e, c in terms) < 0
    x, step, close = (lo + hi) / 2, hi - lo, 2.0 ** -(level + 2)
    for _ in range(2 * level + 16):
        fx = xdfx = 0.0  # f(x) and x * f'(x)
        for e, c in terms:
            cx = c * x**e
            fx += cx
            xdfx += e * cx
        if (fx < 0) == negative_at_lo:
            lo = x
        else:
            hi = x
        new = x - x * fx / xdfx if xdfx else inf
        if not lo <= new <= hi or abs(new - x) > step / 2:
            new = (lo + hi) / 2
        step, x = abs(new - x), new
        if step < close or step <= 4 * ulp(x):
            break
    return x


def _certified_node(f, ln, hn, den, level):
    """The level node [a, b] / 2**level that holds the root of f in the
    bracket [ln, hn] / den, where f is simple at it, has no other root and
    changes sign; a == b when the root is that dyadic, exactly.  Floats only
    propose the node (`_propose`); exact signs at its two ends, clipped to
    the bracket, certify it, and a zero there is the root.  None when floats
    overflow or the signs do not certify, and the caller bisects instead."""
    try:
        a = floor(ldexp(_propose(f, ln / den, hn / den, level), level))
    except (OverflowError, ValueError):
        return None
    common = lcm(den, 1 << level)
    unit, lo, hi = common >> level, ln * (common // den), hn * (common // den)
    a = min(max(a, lo // unit), (hi - 1) // unit)  # a node that meets the bracket
    cl, ch = max(lo, a * unit), min(hi, (a + 1) * unit)
    sl, sh = _sign(f, cl, common), _sign(f, ch, common)
    if sl * sh < 0:
        return a, a + 1
    if sl == 0:  # f(lo) != 0, so cl is the node's lower end
        return a, a
    if sh == 0:
        return a + 1, a + 1
    return None


def _walk(f, ln, hn, den, level):
    """`_certified_node` by one exact sign per level, walking down from
    [0, 2] with the bracket as the guide."""
    sl, a = _sign(f, ln, den), 0
    for j in range(level + 1):
        m = 2 * a + 1  # the midpoint of the node, over 2**j
        below, above = m * den - (ln << j), m * den - (hn << j)
        inside = above < 0 < below  # the midpoint splits the bracket
        s = _sign(f, m, 1 << j) if inside else None
        if s == 0:
            return m << (level - j), m << (level - j)
        a = m if (s == sl if inside else below <= 0) else 2 * a
    return a, a + 1


def _locate(f, ln, hn, den, level):
    """The one node search: `_certified_node`, or `_walk` where that declines."""
    return _certified_node(f, ln, hn, den, level) or _walk(f, ln, hn, den, level)


def _node(root, level):
    """The root on the dyadic node of this level that holds it; a root at a
    dyadic of this level or above comes back exact (`_locate`).  An exact
    root at a node end is divided out."""
    ln, hn, den, mult, f = root
    if ln == hn:  # exact: its linear factor
        f = _terms(_primitive([-ln, den]))
        a, rem = divmod(ln << level, den)
        a, b = (a, a) if rem == 0 else (a, a + 1)
    else:
        a, b = _locate(f, ln, hn, den, level)
    lo, hi = Fraction(a, 1 << level), Fraction(b, 1 << level)
    if a == b:
        return IsolatedRoot(lo, lo, mult, (-lo.numerator, lo.denominator))
    factor = _dense(f)
    # f's one root in [ln, hn] / den is not a node end (a != b), so only an end outside is checked
    for end in (lo, hi):
        while not ln <= end * den <= hn and sign_at(factor, end) == 0:
            factor = _deflate(factor, end)
    return IsolatedRoot(lo, hi, mult, tuple(factor))


def roots_in_unit_interval(coeffs):
    """All real roots in (0, 1] with multiplicities, intervals disjoint.

    Roots at 0 are excluded by convention (strip x factors); a root at 1 is
    returned with the exact interval [1, 1].  Each other root sits on the
    level-20 dyadic node that holds it, or on its level-30, 40, ... node while
    two roots share a node; a dyadic root met on the way is returned exact.
    """
    p = _terms(coeffs)
    if not p:
        raise ValueError("zero polynomial")
    p = [(e - p[0][0], c) for e, c in p]
    tower = [p]
    while sum(a * b < 0 for (_, a), (_, b) in zip(tower[-1], tower[-1][1:])) > 1:
        q = tower[-1]
        content = gcd(*(c * e for e, c in q[1:]))
        tower.append([(e - q[1][0], c * e // content) for e, c in q[1:]])
    # at most one sign variation: no positive root, or one simple root
    q = tower.pop()
    s1 = _sign(q, 1, 1)
    found = [(1, 1, 1, 1, q)] if s1 == 0 else [(0, 1, 1, 1, q)] if s1 * q[0][1] < 0 else []
    while tower:
        found = _rolle(tower.pop(), found)
    # a node narrower than the least distance of two roots holds one root, and
    # Rump (1979) bounds that by 2*sqrt(2) / (n**(n/2 + 2) * (|p|_1 + 1)**n)
    n = p[-1][0]
    limit = 20 + n * (n.bit_length() + (sum(abs(c) for _, c in p) + 1).bit_length())
    level = 20
    while True:
        roots = sorted((_node(r, level) for r in found), key=lambda r: (r.lo, r.hi))
        if all(a.hi <= b.lo for a, b in zip(roots, roots[1:])):
            return roots
        level += 10
        if level > limit:
            raise ArithmeticError(f"roots still share a node at level {level}")


def refine(root, wide, most):
    """The first of `halvings(root.factor, root.lo, root.hi)` on which
    wide(ln, hn) fails, or the dyadic root they meet, within most halvings
    (at least 0), as (lo, hi); else ArithmeticError.  root.lo > 0, and on
    nodes [n, n + 1] `wide` fails from some n on: k halvings down, ln is at
    least lo's numerator << k, so the first k where `wide` fails there
    bounds their depth, and they are the ancestors of the node there."""
    if root.exact:
        return root.lo, root.hi
    den = max(root.lo.denominator, root.hi.denominator)
    ln, most = root.lo.numerator * (den // root.lo.denominator), max(most, 0)
    top = next((k for k in range(most) if not wide(ln << k, (ln << k) + 1)), most)
    level = den.bit_length() - 1 + top
    a, b = _locate(_terms(root.factor), ln, ln + 1, den, level) if top else (ln, ln + 1)
    for k in range(top, -1, -1):  # the ancestor k levels up, top - k halvings down
        n, d = a >> k, den << (top - k)
        if a == b and n << k == a:  # the halving that meets a dyadic root
            return Fraction(n, d), Fraction(n, d)
        if not wide(n, n + 1):
            return Fraction(n, d), Fraction(n + 1, d)
    raise ArithmeticError(f"root not refined in {most} halvings")
