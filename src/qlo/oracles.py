"""Brute-force cross-checks shared by ``qlo verify`` and the test suite.

Independence rule: an oracle never calls the code path it checks.  The join
search finds least upper bounds among right multiples with ``multiply`` and
``divides`` alone, never with ``join``, ``wick`` or their helpers.  The
translation and Wick oracles hold ``join`` and ``wick`` to identities stated
through ``multiply``.  Neither ``qlo`` nor ``qlo.cli`` imports this module.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

from . import fock, thermo
from .growth import ComputationError, growth_table, is_lattice_ordered, verify_inversion
from .monoid import INFINITY, divides, join, multiply, wick

__all__ = ["join_by_search", "join_mismatch", "translation_identity_holds",
           "wick_round_trip_holds", "verification_suite"]

# most 25 * dimension + (longest basis trace in blocks)^2 // 50 one suite runs on,
# about 3 s on a 2-core x86_64: the join search multiplies up to 400 traces by
# every basis trace (about 25 units a row), and a join of two powers of the
# lightest letter slices off whole blocks, up to longest^2 copied block masks
MAX_VERIFY_WORK = 120_000


def _least_bound(q, products):
    """Least of the `products` that q divides, or None if it divides none."""
    bounds = [u for u in products if divides(q, u)]
    if not bounds:
        return None
    min_weight = min(u.weight for u in bounds)
    least = {u for u in bounds if u.weight == min_weight}
    if len(least) != 1:
        raise AssertionError("minimal common upper bound is not unique")
    (least,) = least
    if not all(divides(least, u) for u in bounds):
        raise AssertionError(f"{least.serialize()} does not divide every upper bound")
    return least


def join_by_search(p, q, candidates):
    """Least common upper bound of p and q among the p*v, v of weight <= w(q).

    `candidates` must hold every trace of weight <= w(q).  Returns None when
    there is no common upper bound; raises AssertionError when the least
    bound found is not unique or does not divide every other.
    """
    products = [multiply(p, v) for v in candidates if v.weight <= q.weight]
    return _least_bound(q, products)


def join_mismatch(pairs, candidates):
    """First (p, q) of `pairs` whose ``join`` differs from ``join_by_search``,
    or None.  `candidates` must also be sorted by weight: the products p*v
    are formed once per distinct p and cut at w(q) by bisection."""
    weights = [v.weight for v in candidates]
    products = {}
    for p, q in pairs:
        if p not in products:
            products[p] = [multiply(p, v) for v in candidates]
        least = _least_bound(q, products[p][: bisect_right(weights, q.weight)])
        if join(p, q) != (INFINITY if least is None else least):
            return p, q
    return None


def translation_identity_holds(z, p, q):
    """z(p v q) = zp v zq, with both sides infinite together."""
    plain = join(p, q)
    translated = join(multiply(z, p), multiply(z, q))
    if plain is INFINITY:
        return translated is INFINITY
    return translated is not INFINITY and translated == multiply(z, plain)


def wick_round_trip_holds(p, q):
    """wick(p, q) is (a, b) with p*a = join(p, q) = q*b, or None exactly
    when the join is infinite."""
    pieces, bound = wick(p, q), join(p, q)
    if pieces is None or bound is INFINITY:
        return pieces is None and bound is INFINITY
    a, b = pieces
    return multiply(p, a) == bound == multiply(q, b)


def verification_suite(graph, cutoff):
    """(name, check) pairs of deterministic cross-checks of every layer,
    sized by the cutoff; the basis, representation and thermodynamic
    context are built on first use and shared.  A representation whose
    checks would cost more than MAX_VERIFY_WORK raises ComputationError
    as soon as it is built, before any check reads it."""
    small = min(cutoff, Fraction(4))
    rng = random.Random(97)

    @functools.cache
    def rep():
        built = fock.build_rep(graph, small)
        longest = math.floor(small / graph.min_weight)  # the lightest letter's power
        work = 25 * built.dim + longest**2 // 50
        if work > MAX_VERIFY_WORK:
            raise ComputationError(
                f"verify at basis dimension {built.dim} with traces of up to {longest} blocks "
                f"costs {work} (25 * dimension + blocks^2 // 50), past the limit {MAX_VERIFY_WORK}"
            )
        return built

    @functools.cache
    def ctx():
        return thermo.ThermoContext(graph)

    def enumeration_matches_dp():
        counts = Counter(t.weight for t in rep().basis)
        return counts == growth_table(graph, small).counts()

    def join_brute_force():
        pairs = list(itertools.product([t for t in rep().basis if t.length <= 3], repeat=2))
        if len(pairs) > 400:
            pairs = rng.sample(pairs, 400)
        return join_mismatch(pairs, rep().basis) is None

    def translation_identity():
        pool = rep().basis
        triples = ((rng.choice(pool) for _ in range(3)) for _ in range(200))
        return all(translation_identity_holds(*t) for t in triples)

    def wick_round_trip():
        pool = rep().basis
        pairs = ((rng.choice(pool), rng.choice(pool)) for _ in range(200))
        return all(wick_round_trip_holds(p, q) for p, q in pairs)

    def smallest_root_certified():
        if ctx().beta_c == 0.0:
            return True
        bound = float(ctx().certified_root_free_bound())
        return math.exp(-ctx().beta_c) >= bound * (1 - 1e-9)

    def nica_exhaustive():
        pairs = itertools.product([t for t in rep().basis if t.length <= 2], repeat=2)
        return all(fock.nica_check(rep(), p, q) for p, q in pairs)

    def vacuum_identity():
        try:
            fock.vacuum_projection(rep())
        except fock.OperatorIdentityError:
            return False
        return True

    def kms_symbolic():
        short = [t for t in rep().basis if t.length <= 2]
        n = len(short)
        # rows of the product short^4 by index: the sample of the full list, never built
        rows = range(n**4) if n**4 <= 20000 else rng.sample(range(n**4), 20000)
        quads = ((short[i // n**3], short[i // n**2 % n], short[i // n % n], short[i % n]) for i in rows)
        return all(thermo.kms_identity_check(*quad).holds for quad in quads)

    def gibbs_off_diagonal_zero():
        pool = [t for t in rep().basis if t.length <= 2]
        beta = max(1.0, 1.5 * ctx().beta_c)
        for _ in range(50):
            p, q = rng.choice(pool), rng.choice(pool)
            if p == q:
                continue
            op = fock.left_op(rep(), p) @ fock.left_op(rep(), q).adjoint()
            if fock.gibbs_numeric(rep(), op, beta) != 0.0:
                return False
        return True

    return [
        ("enumeration-matches-transfer-dp", enumeration_matches_dp),
        ("clique-inversion-exact", lambda: verify_inversion(graph, cutoff).match),
        ("join-equals-brute-force", join_brute_force),
        ("join-translation-identity", translation_identity),
        ("wick-round-trip", wick_round_trip),
        ("beta-c-generator-bound", lambda: ctx().beta_c <= ctx().lemma_bound + 1e-10),
        ("smallest-root-certified", smallest_root_certified),
        ("lattice-order-beta-c-zero",
         lambda: (ctx().beta_c == 0.0) == is_lattice_ordered(graph)),
        ("nica-covariance-exhaustive", nica_exhaustive),
        ("vacuum-projection-identity", vacuum_identity),
        ("kms-identity-symbolic", kms_symbolic),
        ("gibbs-off-diagonal-zero", gibbs_off_diagonal_zero),
    ]
