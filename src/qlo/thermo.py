"""Partition function, critical inverse temperature and equilibrium values.

The growth series of the monoid, evaluated at t = exp(-beta), is the
partition function; its abscissa of convergence beta_c is -log of the
smallest root of the clique polynomial in (0, 1].  Roots are isolated with
exact integer signs on the rescaled exponent lattice (`rootiso`) and refined
to the bracket an integer bisection stops at, both by rootiso's one node
search (a float proposal that exact signs certify), so beta_c = 0 is
returned exactly (never as a small float) and the smallest-root claim is
certified by the isolation itself.  Z and the Gibbs tail are each evaluated
exactly at one point: the tail, a series of nonnegative counts, grows up to
that root, so its value above exp(-beta) and below the root's bracket bounds it.
Equilibrium values on starred monomials are evaluated symbolically in the
exponent, which makes the twisted-trace identity an exact, beta-independent
check.  Its sides are decided in ``monoid`` on block masks and scaled integer
weights, with an exact weight test as the early exit before any mask work.
The same kernel gives `kms-check` the truncated twisted trace in closed form
from growth counts, with ``fock.kms_numeric_check`` on the representation as
its oracle: for (a, b) = wick(q1, p2), Tr(L_p1 L_q1^* L_p2 L_q2^* e^(-beta*H))_W
= e^(-beta*w(p1*a)) * Z_(W - max(w(p1), w(q1)) - w(a)) if p1*a == q2*b, else 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate

from . import rootiso
from .growth import ComputationError, _levels, _times_exp, _top_level, clique_polynomial, growth_table
from .monoid import _check_same_graph, _twisted_weight

__all__ = [
    "ComputationError",
    "InsufficientDataError",
    "StateValue",
    "ThermoContext",
    "RootEstimate",
    "RootsReport",
    "KmsIdentityReport",
    "partition_function",
    "tail_mass",
    "beta_critical",
    "beta_critical_limsup_estimate",
    "clique_roots_in_unit_interval",
    "gibbs_value",
    "kms_identity_check",
    "fock_state_value",
]


class InsufficientDataError(ComputationError):
    """Not enough tabulated weight levels for the requested estimate."""


@dataclass(frozen=True)
class StateValue:
    """Symbolic state value: exp(-beta * exponent), or exact zero."""

    kind: str  # "exact" | "zero"
    exponent: Fraction | None = None

    @classmethod
    def exact(cls, exponent):
        return cls("exact", exponent=Fraction(exponent))

    @classmethod
    def zero(cls):
        return _ZERO

    def is_zero(self):
        return self.kind == "zero"

    def value_at(self, beta):
        if self.kind == "zero":
            return 0.0
        return math.exp(-beta * float(self.exponent))


_ZERO = StateValue("zero")  # frozen, so one instance serves every zero value


class ThermoContext:
    """Clique polynomial, certified smallest root and cached growth data."""

    def __init__(self, graph, tol=1e-12):
        if not tol > 0:
            raise ValueError("tol must be positive")
        self.graph = graph
        self.clique_poly = clique_polynomial(graph)
        self.eta = graph.min_weight
        self._coeffs = self.clique_poly.integer_coefficients()
        self._neg_q = [(k, -c) for k, c in enumerate(self._coeffs) if c]  # for the Gibbs tails
        self._roots = rootiso.roots_in_unit_interval(self._coeffs)
        self.tol = tol
        self._refined = {}  # (isolated root, tol) -> refined (lo, hi)
        self._tails = {}  # level M = floor(V*scale) -> the tail's (S's nonzero terms, {beta: bound})
        self.beta_c = beta_critical(self, tol)
        # (n, d): the low end of the bracket beta_c is read from; Q > 0 on [0, n/d)
        self._below = _refine_root(self, self._roots[0], tol)[0].as_integer_ratio()

    def growth(self, cutoff):
        """The growth table to the cutoff, counted once per graph."""
        return growth_table(self.graph, cutoff)

    def smallest_root(self):
        """Isolated smallest root of the clique polynomial in (0, 1], in the
        rescaled coordinate x = t**(1/scale); None means no root at all."""
        return self._roots[0] if self._roots else None

    def certified_root_free_bound(self):
        """Exact t below which the clique polynomial is certified root-free."""
        root = self.smallest_root()
        if root is None:
            return Fraction(1)
        return root.lo ** self.clique_poly.scale

    @property
    def lemma_bound(self):
        """log|S| / min weight, an a-priori cap on beta_c."""
        return math.log(len(self.graph.generators)) / float(self.eta)

    def __repr__(self):
        return f"ThermoContext({self.graph!r}, beta_c={self.beta_c:.6g})"


def _refine_root(ctx, root, tol):
    """Shrink an isolated root until its beta window is below tol, once per tol.

    The bracket is the one a bisection stops at: it halves until its
    numerators have d * ((hn - ln) / ln) <= tol / 2, or meet at a dyadic
    root, within `limit` halvings.  `rootiso.refine` reads that stop off the
    ancestors of one node, from the same node search as the isolation, so
    the bracket takes no exact sign per halving.
    """
    if (root, tol) not in ctx._refined:
        d = ctx.clique_poly.scale
        # the window starts at most tol/2 * ratio and halves; 2 steps cover rounding
        ratio = 2 * d * (root.hi - root.lo) / (root.lo * Fraction(tol))
        limit = ratio.numerator.bit_length() - ratio.denominator.bit_length() + 2
        ctx._refined[root, tol] = rootiso.refine(root, lambda ln, hn: d * ((hn - ln) / ln) > tol / 2, limit)
    return ctx._refined[root, tol]


def beta_critical(ctx, tol):
    """-log of the smallest clique-polynomial root, within tol.

    Returns exactly 0.0 when the smallest root is 1 (detected by integer
    evaluation), which happens precisely for complete graphs.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    root = ctx.smallest_root()
    if root is None:
        # cannot happen for a nonempty generating set; fail loudly if it does
        raise ComputationError("clique polynomial has no root in (0, 1]")
    if root.lo == 1:
        return 0.0
    d = ctx.clique_poly.scale
    lo, hi = _refine_root(ctx, root, tol)
    mid = (lo + hi) / 2
    return -d * math.log(float(mid))


def beta_critical_limsup_estimate(ctx, cutoff):
    """Finite-cutoff growth-rate estimate log(#elements)/max weight."""
    table = ctx.growth(cutoff)
    if len(table) < 2:
        raise InsufficientDataError("need at least two weight levels below the cutoff")
    return math.log(table.total()) / float(table.max_weight)


@dataclass(frozen=True)
class RootEstimate:
    value: float
    multiplicity: int
    is_exact: bool
    t_lo: Fraction
    t_hi: Fraction
    merged: bool = False


@dataclass(frozen=True)
class RootsReport:
    roots: tuple
    subcritical: tuple  # strictly between the smallest root and 1


def clique_roots_in_unit_interval(ctx, tol):
    """All real clique-polynomial roots in (0, 1], each within tol.

    Multiple roots are reported once with their multiplicity; estimates
    closer than 2*tol are merged and flagged.  The subcritical list holds
    the roots strictly between the smallest root and 1, the only inverse
    temperatures below the critical one admissible for equilibrium states.
    A subcritical root is a necessary condition for a KMS state below
    beta_c, not a sufficient one: a root listed here need not carry a state.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    d = ctx.clique_poly.scale
    merged = []
    for root in ctx._roots:
        lo, hi = _refine_root(ctx, root, tol)
        t_lo, t_hi = lo**d, hi**d
        (n1, d1), (n2, d2) = t_lo.as_integer_ratio(), t_hi.as_integer_ratio()
        value = (n1 * d2 + n2 * d1) / (2 * d1 * d2)  # float((t_lo + t_hi) / 2) without a gcd
        est = RootEstimate(value, root.multiplicity, lo == hi, t_lo, t_hi)
        if merged and est.value - merged[-1].value < 2 * tol:
            prev = merged[-1]
            merged[-1] = replace(
                prev, multiplicity=prev.multiplicity + est.multiplicity,
                is_exact=prev.is_exact and est.is_exact, t_hi=est.t_hi, merged=True,
            )
        else:
            merged.append(est)
    roots = tuple(merged)
    subcritical = tuple(r for r in roots[1:] if r.value < 1 and r.t_hi < 1)
    return RootsReport(roots=roots, subcritical=subcritical)


def partition_function(ctx, beta, method="closed", cutoff=None):
    """Sum of exp(-beta*weight) over the monoid.

    "closed" is the reciprocal of the clique polynomial, evaluated exactly at
    the float exp(-beta/scale), and requires beta above beta_c; "truncated"
    sums the growth table up to the cutoff and works for any finite beta > 0.
    """
    if method == "closed":
        if not beta > ctx.beta_c:
            raise ComputationError(f"closed form needs beta > beta_c = {ctx.beta_c:.12g}")
        n, d = math.exp(-beta / ctx.graph.scale).as_integer_ratio()
        value = -rootiso._value(ctx._neg_q, n, d)  # d**deg * Q(n/d), exact, so nothing cancels
        if value <= 0:
            raise ComputationError(
                "clique polynomial not positive here; beta is inside the "
                "uncertainty window of beta_c"
            )
        return d ** ctx._neg_q[-1][0] / value
    if method == "truncated":
        if cutoff is None:
            raise ValueError("truncated method requires a cutoff")
        if not 0 < beta < math.inf:
            raise ComputationError("truncated sum needs a finite beta > 0")
        return _level_sums(ctx, beta, cutoff)[-1]
    raise ValueError(f"unknown method {method!r}")


def tail_mass(ctx, beta, cutoff, up_to=None):
    """Rigorous upper bound on the growth-series mass above a weight level.

    tail(beta, V) = Z(beta) - sum_{w <= V} a_w exp(-beta w), the weight mass
    strictly above V; requires beta > beta_c.  In x = exp(-beta/scale), with
    Q the clique polynomial and P_V the growth series cut at V, the tail is
    R(x)/Q(x) where R = 1 - Q*P_V has integer coefficients, all in degrees
    M+1 .. M+deg Q for M = floor(V*scale), so nothing cancels against Z.  As
    sum_{m > M} a_m x**m with counts a_m >= 0, it grows with x up to Q's
    smallest root.  So its exact value at a rational hi above x, certified
    below the low end of the root bracket beta_c is read from, bounds it, and
    is rounded up.  R and Q are kept as nonzero terms, R's convolved from
    Q's, and evaluated by `rootiso`'s sparse Horner.  V defaults to the
    cutoff, and counts run to the larger.  The bound depends on M alone
    (M < 0 is the whole Z), so the context keeps R's beta-free terms per M,
    and with them the bound at each beta.
    """
    if not beta > ctx.beta_c:
        raise ComputationError(f"tail bound needs beta > beta_c = {ctx.beta_c:.12g}")
    cutoff = Fraction(cutoff)
    bound = cutoff if up_to is None else Fraction(up_to)
    _levels(ctx.graph, _top_level(max(cutoff, bound), ctx.graph.scale))  # counting there applies its limits
    return _tail(ctx, beta, math.floor(bound * ctx.graph.scale))


def _tail(ctx, beta, level):
    """`tail_mass` above the scaled weight level M = max(level, -1), for beta > beta_c."""
    top = max(level, -1)
    if top not in ctx._tails:
        # Q is on the counts' lattice (1/scale)*Z: for each prime power exactly dividing the scale, no
        # clique of 2+ letters weighs as a lightest letter whose denominator holds it, so Q's term is not 0.
        # R(x) = x**(top+1) * S(x): R's coefficient r at degree t is S's term (t - top - 1, r)
        a, neg_q, s = _levels(ctx.graph, top), ctx._neg_q, []
        for t in range(top + 1, top + 1 + neg_q[-1][0]):
            r = int(t == 0) + sum([c * a[t - k] for k, c in neg_q if t - top <= k <= t])
            if r:
                s.append((t - top - 1, r))
        ctx._tails[top] = s, {}
    s, bounds = ctx._tails[top]
    if beta in bounds:
        return bounds[beta]
    hi_n, hi_d = _exp_bracket(-beta / ctx.graph.scale)
    below_n, below_d = ctx._below
    if hi_n * below_d >= below_n * hi_d:
        raise ComputationError("clique polynomial not certified positive here; beta is too close to beta_c")
    # hi**(top+1) * S(hi) / Q(hi), each _value times hi_d to its polynomial's degree
    num = hi_n ** (top + 1) * rootiso._value(s, hi_n, hi_d) * hi_d ** ctx._neg_q[-1][0]
    den = hi_d ** (top + 1 + s[-1][0]) * -rootiso._value(ctx._neg_q, hi_n, hi_d)
    value = num / den
    value_num, value_den = value.as_integer_ratio()
    if value_num * den < num * value_den:
        value = math.nextafter(value, math.inf)
    bounds[beta] = value
    return value


def _level_sums(ctx, beta, cutoff):
    """Z_V at each scaled level V up to W, as running sums of the growth terms
    n * exp(-beta*w), so the last is Z_W (Z_V = 0 below level 0).  The one Z_W
    loop: the truncated partition function is its last sum, bit for bit."""
    counts, d = _levels(ctx.graph, _top_level(cutoff, ctx.graph.scale)), ctx.graph.scale
    return list(accumulate(n and _times_exp(n, -beta * (k / d)) for k, n in enumerate(counts)))


def _exp_bracket(y):
    """An integer ratio (n, d) above exp(y), for a float y <= 0.

    It lies within a slack of math.exp(y) that covers the rounding of y
    itself (relative 2**-53, so about |y| * 2**-53 in exp(y)) and of
    math.exp (under one unit in the last place) eight times over.
    """
    x = math.exp(y)
    if x < 2.0**-1000:  # exp may have underflowed; 0 <= exp(y) < 2**-1000
        return 1, 2**1000
    slack = 2 + math.ceil(-y)  # in units of 2**-50
    n, d = x.as_integer_ratio()
    return n * (2**50 + slack), d * 2**50


def gibbs_value(p, q):
    """Equilibrium value of a starred monomial: exp(-beta*w(p)) iff p == q."""
    _check_same_graph(p, q)
    if p == q:
        return StateValue.exact(p.weight)
    return StateValue.zero()


@dataclass(frozen=True)
class KmsIdentityReport:
    """Verdict and both sides of one twisted-trace identity."""

    holds: bool
    lhs: StateValue
    rhs: StateValue

    @property
    def lhs_exponent(self):
        return self.lhs.exponent

    @property
    def rhs_exponent(self):
        return self.rhs.exponent


KMS_SLACK = 1e-12  # added to every twisted-trace bound for the rounding of its float sums


@dataclass(frozen=True)
class KmsNumericReport:
    residual: float
    bound: float
    psi_ab: complex
    psi_ba: complex
    twist: float
    beta: float
    cutoff: Fraction

    @property
    def ok(self):
        return self.residual <= self.bound


def _kms_report(ctx, pair1, pair2, beta, cutoff, top, mass_ab, mass_ba, z_trunc):
    """Residual |psi(AB) - twist * psi(BA)| of A = L_p1 L_q1^*, B = L_p2 L_q2^*,
    psi being the masses Tr(.. rho)_W over Z_W, and its bound (tail(W - dB) +
    twist * tail(W - dA)) / Z_W + KMS_SLACK (room for the rounding of the float
    sums), dA and dB the weight gains of A and B, at the levels top - gain of
    scaled ints (top = floor(W*scale)): rigorous for the caller's beta above the
    critical value.  A twist past float range raises ComputationError."""
    (p1, q1), (p2, q2) = pair1, pair2
    try:
        twist = math.exp(-beta * ((p1._w - q1._w) / p1.graph._scale))
    except OverflowError:
        raise ComputationError(f"the twist overflows float range at beta = {beta:.15g}") from None
    psi_ab, psi_ba = mass_ab / z_trunc, mass_ba / z_trunc
    gain_b, gain_a = max(p2._w - q2._w, 0), max(p1._w - q1._w, 0)
    tail_b = _tail(ctx, beta, top - gain_b)
    tail_a = tail_b if gain_a == gain_b else _tail(ctx, beta, top - gain_a)
    bound = (tail_b + twist * tail_a) / z_trunc + KMS_SLACK
    return KmsNumericReport(abs(psi_ab - twist * psi_ba), bound, psi_ab, psi_ba, twist, beta, cutoff)


def _kms_reports(ctx, beta, cutoff, quads):
    """`_kms_report` of each ((p1, q1), (p2, q2)) in quads, in closed form: the masses
    Tr(AB rho)_W and Tr(BA rho)_W of A = L_p1 L_q1^*, B = L_p2 L_q2^* read off the Z_V
    of `_level_sums`, as AB fixes x = p1*a*u = q2*b*u when x, q1*a*u weigh <= W."""
    sums = _level_sums(ctx, beta, cutoff)
    top = len(sums) - 1
    for pair1, pair2 in quads:
        masses = []
        for (p1, q1), (p2, q2) in ((pair1, pair2), (pair2, pair1)):
            a = _twisted_weight(p1, q1, p2, q2)
            level = -1 if a is None else top - max(p1._w, q1._w) - a
            masses.append(math.exp(-beta * ((p1._w + a) / p1.graph._scale)) * sums[level] if level >= 0 else 0.0)
        yield _kms_report(ctx, pair1, pair2, beta, cutoff, top, *masses, sums[-1])


def kms_identity_check(p1, q1, p2, q2):
    """Exact, beta-independent form of the twisted-trace condition.

    Both sides of
        N(p1)^beta phi(v_p1 v_q1^* v_p2 v_q2^*)
            = N(q1)^beta phi(v_q1 v_p1^* v_q2 v_p2^*)
    reduce to exp(-beta*r) with a rational r (or to zero); the identity
    holds for every beta iff the two exponents agree exactly.  Each side's
    r*scale (None for zero) is decided on block masks by
    ``monoid._twisted_weight``, after an exact weight test as early exit.
    """
    graph = p1.graph
    if q1.graph is not graph or p2.graph is not graph or q2.graph is not graph:
        _check_same_graph(p1, q1)
        _check_same_graph(p1, p2)
        _check_same_graph(p1, q2)
    w_lhs, w_rhs = _twisted_weight(p1, q1, p2, q2), _twisted_weight(q1, p1, q2, p2)
    lhs = _ZERO if w_lhs is None else StateValue("exact", Fraction(w_lhs, graph._scale))
    rhs = _ZERO if w_rhs is None else StateValue("exact", Fraction(w_rhs, graph._scale))
    return KmsIdentityReport(w_lhs == w_rhs, lhs, rhs)


def fock_state_value(p, q):
    """Vacuum vector state: 1 at the identity monomial, 0 elsewhere.

    This is the beta -> infinity limit of gibbs_value.
    """
    _check_same_graph(p, q)
    if p.is_identity() and q.is_identity():
        return StateValue.exact(0)
    return StateValue.zero()
