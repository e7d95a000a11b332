"""Shared graphs and the test-only independent oracles.

The oracles deliberately avoid the code paths they check: word rewriting
for normal forms (``commutation_class``), BFS over right multiplication for
enumeration (``bfs_traces_up_to``), factorization search for divisibility
(``divides_by_word_search``), a subset scan for cliques
(``cliques_by_subset_scan``), a scan of every ordered pair of cliques for
the cliques that may follow each one (``successors_by_pair_scan``),
rational Horner evaluation for polynomial signs (``fraction_horner``),
bisection on Fraction endpoints for root refinement
(``fraction_halvings``), Sturm sequences of the squarefree part for root
counts and multiplicities (``fraction_sturm_count``,
``fraction_multiplicity``), the closed-form weight counts of path:3 for its
growth-series tail (``path3_relative_tail``), the dense convolution and
per-coefficient powers for the Gibbs tail bound (``reference_tail_mass``),
Fraction-keyed clique sums
and series recurrences for L2 (``reference_clique_terms``,
``reference_inverse_terms``), and letter-by-letter Foata block kernels with
their product, quotient and join built on them (``reference_insert``,
``reference_remove_front``, ...).  The oracles that ``qlo verify`` also
runs live in ``qlo.oracles``: the minimal-upper-bound search for joins
(``join_by_search``, ``join_mismatch``), the join translation identity
(``translation_identity_holds``) and the Wick round trip
(``wick_round_trip_holds``).
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from qlo import ComputationError, Trace, build_graph, growth_table, multiply
from qlo.thermo import _exp_bracket


# -- named graphs -------------------------------------------------------------


def make_free2():
    return build_graph("ab", 1, [])


def make_free3():
    return build_graph("abc", 1, [])


def make_abelian2():
    return build_graph("ab", 1, [("a", "b")])


def make_abelian3():
    return build_graph("abc", 1, [("a", "b"), ("b", "c"), ("a", "c")])


def make_path3():
    return build_graph("abc", 1, [("a", "b"), ("b", "c")])


def make_path4():
    return build_graph("abcd", 1, [("a", "b"), ("b", "c"), ("c", "d")])


def make_cycle5():
    names = "abcde"
    return build_graph(
        names, 1, [(names[i], names[(i + 1) % 5]) for i in range(5)]
    )


def make_weighted_abelian2():
    return build_graph("ab", {"a": 1, "b": Fraction(3, 2)}, [("a", "b")])


NAMED_GRAPHS = {
    "free2": make_free2,
    "free3": make_free3,
    "abelian2": make_abelian2,
    "abelian3": make_abelian3,
    "path3": make_path3,
    "path4": make_path4,
    "cycle5": make_cycle5,
    "weighted_abelian2": make_weighted_abelian2,
}


def random_graph(n, seed, edge_probability=0.5, weights=1):
    rng = random.Random(seed)
    names = "abcdefgh"[:n]
    edges = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if rng.random() < edge_probability
    ]
    return build_graph(names, weights, edges)


def many_term_graph(seed):
    """8-11 letters, weights n/scale with scale in {5, 7, 12}, edge chance 0.4:
    clique polynomials whose number of terms nears their degree."""
    rng = random.Random(100 + seed)
    n = rng.randint(8, 11)
    scale = rng.choice([5, 7, 12])
    names = "abcdefghijk"[:n]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    weights = {s: Fraction(rng.randint(1, 2 * scale), scale) for s in names}
    return build_graph(names, weights, edges)


@st.composite
def weighted_graphs(draw, min_letters=3, max_letters=5, denominators=(1, 2, 3, 4, 6)):
    """Random commutation graphs with weights n/d in [1/2, 2], d in `denominators`."""
    names = "abcdefghijkl"[: draw(st.integers(min_letters, max_letters))]
    edges = [e for e in itertools.combinations(names, 2) if draw(st.booleans())]
    weights = {}
    for s in names:
        d = draw(st.sampled_from(denominators))
        weights[s] = Fraction(draw(st.integers((d + 1) // 2, 2 * d)), d)
    return build_graph(names, weights, edges)


def largest_cutoff(graph, cutoff, most):
    """The cutoff lowered in steps of 1/2 until the basis up to it has at most `most` traces."""
    while cutoff > 0 and growth_table(graph, cutoff).total() > most:
        cutoff -= Fraction(1, 2)
    return cutoff


@st.composite
def one_blocker_words(draw):
    """(graph, u, v, w) where one letter of v*w is held up by a single letter.

    v = a.b.s with a, b commuting and s commuting with neither, so s sits
    right above a block that holds a and b; u = a.s.(at most one letter)
    takes a off the front and asks whether s may fall, which it may not:
    b alone still blocks it.
    """
    graph = draw(weighted_graphs())
    a, b, s = draw(st.permutations(graph.generators))[:3]
    edges = graph.edges - {frozenset((a, s)), frozenset((b, s))} | {frozenset((a, b))}
    graph = build_graph(graph.generators, graph.weights, edges)
    letters = st.sampled_from(graph.generators)
    u = [a, s, *draw(st.lists(letters, max_size=1))]
    return graph, u, [a, b, s], draw(st.lists(letters, max_size=2))


@pytest.fixture
def path3():
    return make_path3()


@pytest.fixture
def free2():
    return make_free2()


@pytest.fixture
def abelian2():
    return make_abelian2()


# -- oracles ------------------------------------------------------------------


def commutation_class(graph, word):
    """All words reachable from `word` by swapping adjacent commuting letters."""
    word = tuple(word)
    seen = {word}
    frontier = [word]
    while frontier:
        current = frontier.pop()
        for i in range(len(current) - 1):
            a, b = current[i], current[i + 1]
            if a != b and graph.commutes(a, b):
                swapped = current[:i] + (b, a) + current[i + 2 :]
                if swapped not in seen:
                    seen.add(swapped)
                    frontier.append(swapped)
    return seen


def bfs_traces_up_to(graph, cutoff):
    """All traces of weight <= cutoff by BFS over right multiplication."""
    cutoff = Fraction(cutoff)
    seen = {graph.identity().key: graph.identity()}
    frontier = [graph.identity()]
    gens = [graph.gen(s) for s in graph.generators]
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                u = multiply(t, g)
                if u.weight <= cutoff and u.key not in seen:
                    seen[u.key] = u
                    nxt.append(u)
        frontier = nxt
    return sorted(seen.values(), key=Trace.sort_key)


def divides_by_word_search(graph, p, x):
    """p <= x iff some word u over the generators satisfies p*u = x."""
    gap = x.length - p.length
    if gap < 0:
        return False
    return any(
        multiply(p, graph.trace(u)) == x
        for u in itertools.product(graph.generators, repeat=gap)
    )


def cliques_by_subset_scan(graph):
    """Every subset of generators that is pairwise adjacent (incl. empty)."""
    out = []
    for r in range(len(graph.generators) + 1):
        for subset in itertools.combinations(graph.generators, r):
            if all(
                graph.commutes(a, b)
                for a, b in itertools.combinations(subset, 2)
            ):
                out.append(frozenset(subset))
    return out


def letters_after(graph, clique):
    """The letters that may follow a clique in a Foata normal form: those equal
    to, or not commuting with, one of its letters."""
    return frozenset(
        r for r in graph.generators if any(r == s or not graph.commutes(r, s) for s in clique)
    )


def successors_by_pair_scan(graph, cliques):
    """succ[i] = indices of the cliques (letter sets) that may follow cliques[i]
    in a Foata normal form, testing every ordered pair."""
    after = [letters_after(graph, b) for b in cliques]
    return [[j for j, c in enumerate(cliques) if c <= reach] for reach in after]


def reference_clique_terms(graph):
    """Clique polynomial as {exponent: nonzero coefficient}, by subset scan."""
    terms = {}
    for clique in cliques_by_subset_scan(graph):
        e = sum((graph.weights[s] for s in clique), Fraction(0))
        terms[e] = terms.get(e, 0) + (-1) ** len(clique)
    return {e: c for e, c in terms.items() if c}


def reference_inverse_terms(terms, cutoff):
    """1/Q up to the cutoff by the triangular recurrence on Fraction exponents."""
    step = Fraction(1, math.lcm(*(e.denominator for e in terms)))
    inverse, e = {}, Fraction(0)
    while e <= cutoff:
        inverse[e] = int(e == 0) - sum(
            c * inverse[e - k] for k, c in terms.items() if 0 < k <= e
        )
        e += step
    return {e: c for e, c in inverse.items() if c}


def fraction_horner(coeffs, x):
    """p(x) in exact rational arithmetic; coeffs[k] multiplies x**k."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fraction_halvings(coeffs, lo, hi):
    """Exact-sign bisection on Fraction endpoints, signs by fraction_horner.

    Yields the isolating interval (lo, hi), then its successive halves; a
    root hit at a dyadic point ends it with lo == hi.
    """

    def sign(x):
        value = fraction_horner(coeffs, x)
        return (value > 0) - (value < 0)

    if lo != hi:
        slo, shi = sign(lo), sign(hi)
        if slo == 0:
            hi = lo
        elif shi == 0:
            lo = hi
        elif slo == shi:
            raise ValueError("interval does not bracket a sign change")
    yield lo, hi
    while lo != hi:
        mid = (lo + hi) / 2
        smid = sign(mid)
        if smid == 0:
            lo = hi = mid
        elif smid == slo:
            lo = mid
        else:
            hi = mid
        yield lo, hi


def _fraction_trim(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _fraction_divmod(a, b):
    """Quotient and remainder of rational polynomials, b nonzero."""
    rem = _fraction_trim(a)
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rem[k + len(b) - 1] / b[-1]
        if quot[k]:
            for i, c in enumerate(b):
                rem[k + i] -= quot[k] * c
    return quot, _fraction_trim(rem)


def _positive_multiple(coeffs):
    """The primitive integer multiple c*p with c > 0; signs stay as they were."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    return [Fraction(c, math.gcd(*ints)) for c in ints]


def _fraction_gcd(a, b):
    a, b = _fraction_trim(a), _fraction_trim(b)
    while b:
        rem = _fraction_divmod(a, b)[1]
        a, b = b, _positive_multiple(rem) if rem else []
    return [c / a[-1] for c in a]


def _fraction_derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def fraction_sturm_count(coeffs, lo, hi):
    """Distinct real roots of p in the open interval (lo, hi), lo < hi.

    Sturm's theorem on the squarefree part s = p / gcd(p, p'): the sign
    variations of the chain s, s', -rem(s, s'), ... fall by one at each root
    of s, so V(lo) - V(hi) counts the roots in (lo, hi].
    """
    p = _fraction_trim(coeffs)
    s = _fraction_divmod(p, _fraction_gcd(p, _fraction_derivative(p)))[0]
    chain = [s, _fraction_derivative(s)]
    while len(chain[-1]) > 1:
        rem = _fraction_divmod(chain[-2], chain[-1])[1]
        chain.append([-c for c in _positive_multiple(rem)] if rem else [])

    def variations(x):
        signs = [v > 0 for v in (fraction_horner(q, x) for q in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi) - (fraction_horner(s, hi) == 0)


def fraction_multiplicity(coeffs, lo, hi):
    """Multiplicity of the one distinct root of p in (lo, hi), or of the root
    at lo when lo == hi: how many of p, p', p'', ... vanish there, asked of
    gcd(p, p^(k)) by Sturm counts."""
    p = _fraction_trim(coeffs)
    q, m = _fraction_derivative(p), 1
    while True:
        if lo == hi:
            vanishes = fraction_horner(q, lo) == 0
        else:
            vanishes = fraction_sturm_count(_fraction_gcd(p, q), lo, hi) == 1
        if not vanishes:
            return m
        q, m = _fraction_derivative(q), m + 1


def path3_relative_tail(beta, cutoff):
    """Z(beta)/Z_W(beta) - 1 for path:3, from its closed form alone.

    The path a-b-c has clique polynomial (1 - t)(1 - 2t), so there are
    2^(n+1) - 1 traces of weight n and Z = 1/((1 - t)(1 - 2t)) at
    t = exp(-beta); Z_W sums those counts up to weight W.
    """
    t = math.exp(-beta)
    z_closed = 1.0 / ((1.0 - t) * (1.0 - 2.0 * t))
    z_truncated = sum((2 ** (n + 1) - 1) * t**n for n in range(int(cutoff) + 1))
    return z_closed / z_truncated - 1.0



def _dense_upper(coeffs, lo, hi):
    """Upper bound (num, den) of a dense integer polynomial on [lo, hi], lo >= 0:
    each term at the end where it is largest, over one common denominator."""
    (lo_n, lo_d), (hi_n, hi_d) = lo, hi
    deg = len(coeffs) - 1
    num = 0
    for j, c in enumerate(coeffs):
        if c > 0:
            num += c * hi_n**j * hi_d ** (deg - j) * lo_d**deg
        elif c < 0:
            num += c * lo_n**j * lo_d ** (deg - j) * hi_d**deg
    return num, lo_d**deg * hi_d**deg


def reference_tail_mass(ctx, beta, cutoff, up_to=None):
    """``thermo.tail_mass`` on dense coefficient lists: R = 1 - Q*P_V by the
    full convolution, and each bound term by its own powers of the ends of
    the bracket of x = exp(-beta/scale).  Same rational bound, same rounding."""
    if not beta > ctx.beta_c:
        raise ComputationError(f"tail bound needs beta > beta_c = {ctx.beta_c:.12g}")
    bound = Fraction(cutoff) if up_to is None else Fraction(up_to)
    d, q, a = ctx.clique_poly._common(ctx.growth(max(Fraction(cutoff), bound))._series)
    deg = len(q) - 1
    top = max(math.floor(bound * d), -1)
    a = a[: top + 1] + [0] * (top + 1 - len(a))
    s = [
        int(m == 0) - sum(q[k] * a[m - k] for k in range(m - top, min(deg, m) + 1))
        for m in range(top + 1, top + deg + 1)
    ]
    lo, hi = _exp_bracket(-beta / d)
    s_num, s_den = _dense_upper(s, lo, hi)
    q_num, q_den = _dense_upper([-c for c in q], lo, hi)
    if q_num >= 0:
        raise ComputationError("clique polynomial not certified positive here")
    num = hi[0] ** (top + 1) * s_num * q_den
    den = hi[1] ** (top + 1) * s_den * -q_num
    value = num / den
    value_num, value_den = value.as_integer_ratio()
    if value_num * den < num * value_den:
        value = math.nextafter(value, math.inf)
    return value


# -- letter-by-letter Foata kernels ---------------------------------------------
# The kernels qlo.monoid replaced with block-at-a-time table lookups; each
# letter is placed on its own, reading only the per-letter masks graph._dep.


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def reference_insert(dep, blocks, mask):
    """Drop a mask's letters, lowest bit first, onto block masks, in place."""
    for bit in _bits(mask):
        d = dep[bit.bit_length() - 1]
        k = len(blocks)
        while k and not blocks[k - 1] & d:
            k -= 1
        if k == len(blocks):
            blocks.append(bit)
        else:
            blocks[k] |= bit


def reference_remove_front(dep, blocks, head):
    """Block masks with the minimal letters `head` taken off the front; a later
    letter falls one block when no letter staying in the block below is one
    it depends on."""
    stay = blocks[0] & ~head
    out = [stay]
    for b in blocks[1:]:
        fall = b
        for low in _bits(b):
            if dep[low.bit_length() - 1] & stay:
                fall ^= low
        out[-1] |= fall
        stay = b & ~fall
        out.append(stay)
    if not out[-1]:
        out.pop()
    return out


def reference_product(dep, pm, qm):
    """Block masks of p*q, every letter of q inserted on its own."""
    blocks = list(pm)
    for b in qm:
        reference_insert(dep, blocks, b)
    return tuple(blocks)


def reference_quotient(dep, pm, xm):
    """Block masks of p\\x, or None when p does not divide x on the left."""
    rest = list(xm)
    for b in pm:
        if not rest or b & ~rest[0]:
            return None
        rest = reference_remove_front(dep, rest, b)
    return tuple(rest)


def reference_join_rest(dep, pm, qm):
    """Block masks of q' with join(p, q) = p*q', or None: each letter of p not
    minimal in the rest of q must commute with every letter of that rest."""
    rest = list(qm)
    for b in pm:
        head = b & rest[0] if rest else 0
        if head:
            rest = reference_remove_front(dep, rest, head)
        for low in _bits(b & ~head):
            if any(c & dep[low.bit_length() - 1] for c in rest):
                return None
    return tuple(rest)
