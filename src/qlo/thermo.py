"""Partition function, critical inverse temperature and equilibrium values.

The growth series of the monoid, evaluated at t = exp(-beta), is the
partition function; its abscissa of convergence beta_c is -log of the
smallest root of the clique polynomial in (0, 1].  Roots are located by
exact integer sign evaluation and bisection on the rescaled exponent
lattice, so beta_c = 0 is returned exactly (never as a small float) and the
smallest-root claim is certified by the isolation itself.  Equilibrium
values on starred monomials are evaluated symbolically in the exponent,
which makes the twisted-trace identity an exact, beta-independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import rootiso
from .growth import clique_polynomial, growth_table
from .monoid import multiply, wick, _check_same_graph

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


class ComputationError(RuntimeError):
    """A numeric request outside its domain (e.g. beta at or below beta_c)."""


class InsufficientDataError(ComputationError):
    """Not enough tabulated weight levels for the requested estimate."""


@dataclass(frozen=True)
class StateValue:
    """Symbolic state value: exp(-beta * exponent), exact zero, or a float."""

    kind: str  # "exact" | "zero" | "numeric"
    exponent: Fraction | None = None
    number: float | None = None

    @classmethod
    def exact(cls, exponent):
        return cls("exact", exponent=Fraction(exponent))

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def numeric(cls, number):
        return cls("numeric", number=float(number))

    def is_zero(self):
        return self.kind == "zero"

    def value_at(self, beta):
        if self.kind == "zero":
            return 0.0
        if self.kind == "exact":
            return math.exp(-beta * float(self.exponent))
        return self.number

    def __mul__(self, other):
        if not isinstance(other, StateValue):
            return NotImplemented
        if self.kind == "zero" or other.kind == "zero":
            return StateValue.zero()
        if self.kind == "exact" and other.kind == "exact":
            return StateValue.exact(self.exponent + other.exponent)
        raise ValueError("mixed symbolic/numeric product is not defined")


class ThermoContext:
    """Clique polynomial, certified smallest root and cached growth data."""

    def __init__(self, graph, tol=1e-12):
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.graph = graph
        self.clique_poly = clique_polynomial(graph)
        self.eta = graph.min_weight
        self._coeffs = self.clique_poly.integer_coefficients()
        self._roots = rootiso.roots_in_unit_interval(self._coeffs)
        self.tol = tol
        self._tables = {}
        self.beta_c = beta_critical(self, tol)

    def growth(self, cutoff):
        cutoff = Fraction(cutoff)
        table = self._tables.get(cutoff)
        if table is None:
            table = growth_table(self.graph, cutoff)
            self._tables[cutoff] = table
        return table

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
    """Shrink an isolated root until the implied beta window is below tol."""
    d = ctx.clique_poly.scale
    lo, hi = root.lo, root.hi
    coeffs = list(root.factor)
    while lo != hi and d * float((hi - lo) / lo) > tol / 2:
        lo, hi = rootiso.refine(coeffs, lo, hi, (hi - lo) / 2)
    return lo, hi


def beta_critical(ctx, tol):
    """-log of the smallest clique-polynomial root, within tol.

    Returns exactly 0.0 when the smallest root is 1 (detected by integer
    evaluation), which happens precisely for complete graphs.
    """
    if tol <= 0:
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
        raise InsufficientDataError(
            "need at least two weight levels below the cutoff"
        )
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
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = ctx.clique_poly.scale
    estimates = []
    for root in ctx._roots:
        lo, hi = _refine_root(ctx, root, tol)
        t_lo, t_hi = lo**d, hi**d
        estimates.append(
            RootEstimate(
                value=float((t_lo + t_hi) / 2),
                multiplicity=root.multiplicity,
                is_exact=lo == hi,
                t_lo=t_lo,
                t_hi=t_hi,
            )
        )
    merged = []
    for est in estimates:
        if merged and est.value - merged[-1].value < 2 * tol:
            prev = merged[-1]
            merged[-1] = RootEstimate(
                value=prev.value,
                multiplicity=prev.multiplicity + est.multiplicity,
                is_exact=prev.is_exact and est.is_exact,
                t_lo=prev.t_lo,
                t_hi=est.t_hi,
                merged=True,
            )
        else:
            merged.append(est)
    roots = tuple(merged)
    subcritical = tuple(
        r for r in roots[1:] if r.value < 1 and r.t_hi < 1
    )
    return RootsReport(roots=roots, subcritical=subcritical)


def partition_function(ctx, beta, method="closed", cutoff=None):
    """Sum of exp(-beta*weight) over the monoid.

    "closed" evaluates the reciprocal of the clique polynomial at
    t = exp(-beta) and requires beta above the critical value; "truncated"
    sums the growth table up to the cutoff and works for any beta > 0.
    """
    if method == "closed":
        if beta <= ctx.beta_c:
            raise ComputationError(
                f"closed form needs beta > beta_c = {ctx.beta_c:.12g}"
            )
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
        if beta <= 0:
            raise ComputationError("truncated sum needs beta > 0")
        return ctx.growth(cutoff).truncated_sum(beta)
    raise ValueError(f"unknown method {method!r}")


def tail_mass(ctx, beta, cutoff, up_to=None):
    """Rigorous upper bound on the growth-series mass above a weight level.

    tail(beta, V) = Z(beta) - sum_{w <= V} a_w exp(-beta w), the weight mass
    strictly above V; requires beta > beta_c.  In x = exp(-beta/scale), with
    Q the clique polynomial and P_V the growth series cut at V, the tail is
    R(x)/Q(x) where R = 1 - Q*P_V has integer coefficients, all in degrees
    M+1 .. M+deg Q for M = floor(V*scale).  So nothing cancels against Z:
    x is bracketed by rationals, R and Q are bounded on the bracket exactly,
    and the result is rounded up, never below the exact tail.  The table is
    computed at `cutoff`; V defaults to it.
    """
    if beta <= ctx.beta_c:
        raise ComputationError(
            f"tail bound needs beta > beta_c = {ctx.beta_c:.12g}"
        )
    bound = Fraction(cutoff) if up_to is None else Fraction(up_to)
    q = ctx._coeffs
    d = ctx.clique_poly.scale
    deg = len(q) - 1
    top = max(math.floor(bound * d), -1)
    a = dict.fromkeys(range(max(top - deg + 1, 0), top + 1), 0)
    for w, n in ctx.growth(max(Fraction(cutoff), bound)).rows:
        i = w.numerator * (d // w.denominator)
        if i in a:
            a[i] = n
    # R(x) = x**(top+1) * S(x); S holds the coefficients of R from degree top+1
    s = [
        int(m == 0) - sum(q[k] * a[m - k] for k in range(m - top, min(deg, m) + 1))
        for m in range(top + 1, top + deg + 1)
    ]
    lo, hi = _exp_bracket(-beta / d)
    s_num, s_den = _poly_upper(s, lo, hi)
    q_num, q_den = _poly_upper([-c for c in q], lo, hi)  # -(a lower bound of Q)
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
    return value


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


def _poly_upper(coeffs, lo, hi):
    """Upper bound (num, den) of an integer polynomial on [lo, hi], lo >= 0.

    Terms with positive coefficients are largest at hi and negative ones at
    lo; both ends are integer ratios, so the bound is exact over their
    common denominator.
    """
    (lo_n, lo_d), (hi_n, hi_d) = lo, hi
    deg = len(coeffs) - 1
    num = 0
    for j, c in enumerate(coeffs):
        if c > 0:
            num += c * hi_n**j * hi_d ** (deg - j) * lo_d**deg
        elif c < 0:
            num += c * lo_n**j * lo_d ** (deg - j) * hi_d**deg
    return num, lo_d**deg * hi_d**deg


def gibbs_value(p, q):
    """Equilibrium value of a starred monomial: exp(-beta*w(p)) iff p == q."""
    _check_same_graph(p, q)
    if p == q:
        return StateValue.exact(p.weight)
    return StateValue.zero()


@dataclass(frozen=True)
class KmsIdentityReport:
    holds: bool
    lhs: StateValue
    rhs: StateValue

    @property
    def lhs_exponent(self):
        return self.lhs.exponent

    @property
    def rhs_exponent(self):
        return self.rhs.exponent


def _twisted_side(front, star1, mid, star2):
    """exp(beta*w(front)) * value(front star1^* mid star2^*), symbolically."""
    pieces = wick(star1, mid)
    if pieces is None:
        return StateValue.zero()
    a, b = pieces
    left = multiply(front, a)
    right = multiply(star2, b)
    if left == right:
        return StateValue.exact(left.weight - front.weight)
    return StateValue.zero()


def kms_identity_check(p1, q1, p2, q2):
    """Exact, beta-independent form of the twisted-trace condition.

    Both sides of
        N(p1)^beta phi(v_p1 v_q1^* v_p2 v_q2^*)
            = N(q1)^beta phi(v_q1 v_p1^* v_q2 v_p2^*)
    reduce to exp(-beta*r) with a rational r (or to zero); the identity
    holds for every beta iff the two exponents agree exactly.
    """
    _check_same_graph(p1, q1)
    _check_same_graph(p1, p2)
    _check_same_graph(p1, q2)
    lhs = _twisted_side(p1, q1, p2, q2)
    rhs = _twisted_side(q1, p1, q2, p2)
    if lhs.is_zero() or rhs.is_zero():
        holds = lhs.is_zero() and rhs.is_zero()
    else:
        holds = lhs.exponent == rhs.exponent
    return KmsIdentityReport(holds=holds, lhs=lhs, rhs=rhs)


def fock_state_value(p, q):
    """Vacuum vector state: 1 at the identity monomial, 0 elsewhere.

    This is the beta -> infinity limit of gibbs_value.
    """
    _check_same_graph(p, q)
    if p.is_identity() and q.is_identity():
        return StateValue.exact(0)
    return StateValue.zero()
