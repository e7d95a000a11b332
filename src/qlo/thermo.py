"""Partition function, critical inverse temperature and equilibrium values.

The growth series of the monoid, evaluated at t = exp(-beta), is the
partition function; its abscissa of convergence beta_c is -log of the
smallest root of the clique polynomial in (0, 1].  Roots are isolated with
exact integer signs on the rescaled exponent lattice (`rootiso`) and refined
to the bracket an integer bisection stops at, both by rootiso's one node
search (a float proposal that exact signs certify), so beta_c = 0 is
returned exactly (never as a small float) and the smallest-root claim is
certified by the isolation itself.
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
from dataclasses import FrozenInstanceError, dataclass, replace
from fractions import Fraction
from itertools import accumulate

from . import rootiso
from .growth import ComputationError, _times_exp, _top_level, clique_polynomial, growth_table
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
        self._roots = rootiso.roots_in_unit_interval(self._coeffs)
        self.tol = tol
        self._refined = {}  # (isolated root, tol) -> refined (lo, hi)
        self._tails = {}  # (cutoff, up_to) -> tail_mass's ((d, top, -Q terms, S terms), {beta: bound})
        self.beta_c = beta_critical(self, tol)

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

    "closed" evaluates the reciprocal of the clique polynomial at
    t = exp(-beta) and requires beta above the critical value; "truncated"
    sums the growth table up to the cutoff and works for any finite beta > 0.
    """
    if method == "closed":
        if not beta > ctx.beta_c:
            raise ComputationError(f"closed form needs beta > beta_c = {ctx.beta_c:.12g}")
        value = ctx.clique_poly.evaluate(math.exp(-beta))
        if value <= 0:
            raise ComputationError(
                "clique polynomial not positive here; beta is inside the "
                "uncertainty window of beta_c"
            )
        return 1.0 / value
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
    M+1 .. M+deg Q for M = floor(V*scale).  So nothing cancels against Z:
    x is bracketed by rationals, R and Q are bounded on the bracket exactly,
    and the result is rounded up, never below the exact tail.  R and Q are
    kept as nonzero terms, R's convolved from Q's, and bounded by `rootiso`'s
    sparse Horner.  The table is computed at `cutoff`; V defaults to it.
    None of d, M and the nonzero terms of Q and R depends on beta, so the
    context keeps them per (cutoff, V), and a later call at any beta only
    bounds them there; the bound it returns at a beta is kept with them.
    """
    if not beta > ctx.beta_c:
        raise ComputationError(f"tail bound needs beta > beta_c = {ctx.beta_c:.12g}")
    cutoff = Fraction(cutoff)
    bound = cutoff if up_to is None else Fraction(up_to)
    key = cutoff, bound
    if key not in ctx._tails:
        ctx._tails[key] = _tail_terms(ctx, cutoff, bound), {}
    (d, top, neg_q, s), bounds = ctx._tails[key]
    if beta in bounds:
        return bounds[beta]
    lo, hi = _exp_bracket(-beta / d)
    s_num, s_den = _upper(s, lo, hi)
    q_num, q_den = _upper(neg_q, lo, hi)  # -(a lower bound of Q)
    if q_num >= 0:
        raise ComputationError(
            "clique polynomial not certified positive here; beta is too "
            "close to beta_c"
        )
    num = hi[0] ** (top + 1) * s_num * q_den
    den = hi[1] ** (top + 1) * s_den * -q_num
    value = num / den
    value_num, value_den = value.as_integer_ratio()
    if value_num * den < num * value_den:
        value = math.nextafter(value, math.inf)
    bounds[beta] = value
    return value


def _tail_terms(ctx, cutoff, bound):
    """(d, M, -Q's nonzero terms, S's nonzero terms) of `tail_mass` at V = bound."""
    # Q and the growth counts as integer lists on one lattice (1/d)*Z
    d, q, a = ctx.clique_poly._common(ctx.growth(max(cutoff, bound))._series)
    top = max(math.floor(bound * d), -1)
    a = a[: top + 1] + [0] * (top + 1 - len(a))
    q = [(k, c) for k, c in enumerate(q) if c]
    # R(x) = x**(top+1) * S(x); S's terms (m, r) hold R's coefficients from degree top+1
    s = []
    for m in range(q[-1][0]):
        r = int(top + 1 + m == 0) - sum([c * a[top + 1 + m - k] for k, c in q if m < k <= m + top + 1])
        if r:
            s.append((m, r))
    return d, top, [(k, -c) for k, c in q], s


def _level_sums(ctx, beta, cutoff):
    """Z_V at each scaled level V up to W, as running sums of the growth terms
    n * exp(-beta*w), so the last is Z_W (Z_V = 0 below level 0).  The one Z_W
    loop: the truncated partition function is its last sum, bit for bit."""
    s, d = ctx.growth(cutoff)._series, ctx.graph.scale
    sums = list(accumulate(n and _times_exp(n, -beta * (k / s.scale)) for k, n in enumerate(s._coeffs)))
    return [sums[min(k * s.scale // d, len(sums) - 1)] for k in range(_top_level(cutoff, d) + 1)]


def _twisted_masses(sums, pair1, pair2, beta):
    """Tr(AB rho)_W and Tr(BA rho)_W of A = L_p1 L_q1^*, B = L_p2 L_q2^* on the
    Z_V of `_level_sums`: AB fixes x = p1*a*u = q2*b*u when x, q1*a*u weigh <= W."""
    for (p1, q1), (p2, q2) in ((pair1, pair2), (pair2, pair1)):
        a = _twisted_weight(p1, q1, p2, q2)
        level = -1 if a is None else len(sums) - 1 - max(p1._w, q1._w) - a
        yield math.exp(-beta * ((p1._w + a) / p1.graph._scale)) * sums[level] if level >= 0 else 0.0


def _exp_bracket(y):
    """Integer ratios (n, d) below and above exp(y), for a float y <= 0.

    They lie within a slack of math.exp(y) that covers the rounding of y
    itself (relative 2**-53, so about |y| * 2**-53 in exp(y)) and of
    math.exp (under one unit in the last place) eight times over.
    """
    x = math.exp(y)
    if x < 2.0**-1000:  # exp may have underflowed; 0 <= exp(y) < 2**-1000
        return (0, 1), (1, 2**1000)
    slack = 2 + math.ceil(-y)  # in units of 2**-50
    n, d = x.as_integer_ratio()
    return (n * (2**50 - slack), d * 2**50), (n * (2**50 + slack), d * 2**50)


def _upper(terms, lo, hi):
    """Upper bound (num, den) on [lo, hi], lo >= 0, of the integer polynomial
    with nonzero terms (e, c): positive terms are largest at hi and negative
    ones at lo, each part exact over its own power of that end's denominator."""
    (lo_n, lo_d), (hi_n, hi_d) = lo, hi
    up = [t for t in terms if t[1] > 0]
    down = [t for t in terms if t[1] < 0]
    up_den = hi_d ** up[-1][0] if up else 1
    down_den = lo_d ** down[-1][0] if down else 1
    num = rootiso._value(up, hi_n, hi_d) * down_den + rootiso._value(down, lo_n, lo_d) * up_den
    return num, up_den * down_den


def gibbs_value(p, q):
    """Equilibrium value of a starred monomial: exp(-beta*w(p)) iff p == q."""
    _check_same_graph(p, q)
    if p == q:
        return StateValue.exact(p.weight)
    return StateValue.zero()


class KmsIdentityReport:
    """Verdict and both sides of one twisted-trace identity; frozen.

    Built from the verdict, each side's scaled weight r*scale (None for a
    zero side) and the scale.  `lhs` and `rhs` are the sides' StateValues,
    built on first read; equality, hash and repr are those of the triple
    (holds, lhs, rhs), and no attribute can be assigned or deleted.
    """

    __slots__ = ("_sides", "_values")

    def __init__(self, holds, lhs_weight, rhs_weight, scale):
        object.__setattr__(self, "_sides", (holds, lhs_weight, rhs_weight, scale))

    @property
    def holds(self):
        return self._sides[0]

    def _fields(self):
        """(holds, lhs, rhs); the sides' StateValues are built on the first call."""
        try:
            return self._values
        except AttributeError:
            holds, lhs, rhs, scale = self._sides
            sides = (_ZERO if w is None else StateValue("exact", Fraction(w, scale)) for w in (lhs, rhs))
            object.__setattr__(self, "_values", (holds, *sides))
            return self._values

    @property
    def lhs(self):
        return self._fields()[1]

    @property
    def rhs(self):
        return self._fields()[2]

    @property
    def lhs_exponent(self):
        return self.lhs.exponent

    @property
    def rhs_exponent(self):
        return self.rhs.exponent

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        holds, lhs, rhs = self._fields()
        return f"KmsIdentityReport(holds={holds!r}, lhs={lhs!r}, rhs={rhs!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return KmsIdentityReport, self._sides


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


def _kms_report(ctx, pair1, pair2, beta, cutoff, mass_ab, mass_ba, z_trunc):
    """Residual |psi(AB) - twist * psi(BA)| of A = L_p1 L_q1^*, B = L_p2 L_q2^*,
    psi being the masses Tr(.. rho)_W over Z_W, and its bound (tail(W - dB) +
    twist * tail(W - dA)) / Z_W + KMS_SLACK (room for the rounding of the float
    sums), dA and dB the weight gains of A and B: rigorous for beta above the
    critical value.  A twist past float range raises ComputationError."""
    (p1, q1), (p2, q2) = pair1, pair2
    try:
        twist = math.exp(-beta * float(p1.weight - q1.weight))
    except OverflowError:
        raise ComputationError(f"the twist overflows float range at beta = {beta:.15g}") from None
    psi_ab, psi_ba = mass_ab / z_trunc, mass_ba / z_trunc
    gain_b = max(p2.weight - q2.weight, Fraction(0))
    gain_a = max(p1.weight - q1.weight, Fraction(0))
    tail_b = tail_mass(ctx, beta, cutoff, up_to=cutoff - gain_b)
    tail_a = tail_b if gain_a == gain_b else tail_mass(ctx, beta, cutoff, up_to=cutoff - gain_a)
    bound = (tail_b + twist * tail_a) / z_trunc + KMS_SLACK
    return KmsNumericReport(abs(psi_ab - twist * psi_ba), bound, psi_ab, psi_ba, twist, beta, cutoff)


def kms_identity_check(p1, q1, p2, q2):
    """Exact, beta-independent form of the twisted-trace condition.

    Both sides of
        N(p1)^beta phi(v_p1 v_q1^* v_p2 v_q2^*)
            = N(q1)^beta phi(v_q1 v_p1^* v_q2 v_p2^*)
    reduce to exp(-beta*r) with a rational r (or to zero); the identity
    holds for every beta iff the two exponents agree exactly.  Each side's
    r*scale (None for zero) is decided on block masks by
    ``monoid._twisted_weight``, after an exact weight test as early exit.
    The report keeps the two scaled weights; the exponents r are built as
    Fractions only when its `lhs` or `rhs` is read.
    """
    graph = p1.graph
    if q1.graph is not graph or p2.graph is not graph or q2.graph is not graph:
        _check_same_graph(p1, q1)
        _check_same_graph(p1, p2)
        _check_same_graph(p1, q2)
    lhs = _twisted_weight(p1, q1, p2, q2)
    rhs = _twisted_weight(q1, p1, q2, p2)
    return KmsIdentityReport(lhs == rhs, lhs, rhs, graph._scale)


def fock_state_value(p, q):
    """Vacuum vector state: 1 at the identity monomial, 0 elsewhere.

    This is the beta -> infinity limit of gibbs_value.
    """
    _check_same_graph(p, q)
    if p.is_identity() and q.is_identity():
        return StateValue.exact(0)
    return StateValue.zero()
