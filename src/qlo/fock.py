"""Truncated left regular representation and operator-identity checks.

The basis is every monoid element of weight at most a cutoff W; operators are
sparse (dict-of-entries) and never materialized densely.  Left translations
are truncated by sending out-of-range targets to zero, and adjoints are the
combinatorial backward maps, so all the diagonal projection identities
(range projections, their meets, the vacuum projection) hold exactly at every
finite W with integer arithmetic.  Floating point enters only through the
density exp(-beta*H) and the Gibbs/twisted-trace numerics, whose truncation
error is controlled by an exact tail bound.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .growth import _cliques, enumerate_up_to
# multiply is no longer called here; bench/tests checks that tracing it
# through qlo.fock leaves it restored, so the name stays importable
from .monoid import INFINITY, MismatchedGraphError, divides, join, multiply  # noqa: F401
from .monoid import _check_same_graph, _letters, _product
from .thermo import ComputationError, ThermoContext, tail_mass

__all__ = [
    "OperatorIdentityError",
    "SparseOperator",
    "TruncatedRep",
    "KmsNumericReport",
    "build_rep",
    "left_op",
    "range_projection",
    "nica_check",
    "vacuum_projection",
    "density",
    "evolution_unitary",
    "gibbs_numeric",
    "dynamics_factor",
    "kms_numeric_check",
]


class OperatorIdentityError(RuntimeError):
    """An identity that must hold exactly failed; indicates a bug."""


class SparseOperator:
    """Immutable sparse matrix with one entry per (row, column)."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim, entries):
        cleaned = {}
        for (r, c), v in entries.items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry ({r}, {c}) outside dimension {dim}")
            if v != 0:
                cleaned[(r, c)] = v
        self.dim = dim
        self.entries = cleaned

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def identity(cls, dim):
        return cls(dim, {(i, i): 1 for i in range(dim)})

    @classmethod
    def diagonal(cls, values):
        values = list(values)
        return cls(len(values), {(i, i): v for i, v in enumerate(values)})

    def adjoint(self):
        return SparseOperator(
            self.dim,
            {(c, r): v.conjugate() for (r, c), v in self.entries.items()},
        )

    def __matmul__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        rows_of_other = {}
        for (r, c), v in other.entries.items():
            rows_of_other.setdefault(r, []).append((c, v))
        out = {}
        for (r, k), va in self.entries.items():
            for c, vb in rows_of_other.get(k, ()):
                key = (r, c)
                out[key] = out.get(key, 0) + va * vb
        return SparseOperator(self.dim, out)

    def __add__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.entries)
        for key, v in other.entries.items():
            out[key] = out.get(key, 0) + v
        return SparseOperator(self.dim, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        return SparseOperator(
            self.dim, {key: scalar * v for key, v in self.entries.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def is_zero(self):
        return not self.entries

    def trace(self):
        return sum(v for (r, c), v in self.entries.items() if r == c)

    def diagonal_entries(self):
        for (r, c), v in self.entries.items():
            if r == c:
                yield r, v

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={len(self.entries)})"


class TruncatedRep:
    """Ordered weight-<=W basis of the monoid with an index lookup."""

    def __init__(self, graph, cutoff, basis):
        self.graph = graph
        self.cutoff = Fraction(cutoff)
        self.basis = basis
        self.dim = len(basis)
        self._row = {x._masks: i for i, x in enumerate(basis)}
        # scaled weights, ascending because the basis is sorted by weight
        self._weights = [x._w for x in basis]
        self._top = math.floor(self.cutoff * graph.scale)
        self._range_cache = {}
        self._left_cache = {}
        self._density_cache = {}
        self._thermo = None

    @cached_property
    def index(self):
        """Basis position of each trace, keyed by ``Trace.key``."""
        return {x.key: i for i, x in enumerate(self.basis)}

    def index_of(self, trace):
        return self._row.get(trace._masks)

    def thermo(self, tol=1e-12):
        if self._thermo is None:
            self._thermo = ThermoContext(self.graph, tol=tol)
        return self._thermo

    def __repr__(self):
        return f"TruncatedRep(cutoff={self.cutoff}, dim={self.dim})"


def build_rep(graph, cutoff):
    """Basis of all traces of weight <= cutoff, deterministically ordered."""
    basis = enumerate_up_to(graph, cutoff)
    return TruncatedRep(graph, Fraction(cutoff), basis)


def left_op(rep, p):
    """Truncated left translation by p: basis vector at x goes to p*x.

    The basis holds every trace of weight <= W, sorted by weight, so p*x is
    a basis vector exactly when w(x) <= W - w(p) and is dropped otherwise.
    Only that prefix of the basis, found by bisection on the scaled
    weights, is multiplied, on block masks and without building traces.
    """
    _check_rep_graph(rep, p)
    cached = rep._left_cache.get(p._masks)
    if cached is None:
        end = bisect_right(rep._weights, rep._top - p._w)
        dep, pm, row = rep.graph._dep, p._masks, rep._row
        cached = SparseOperator(
            rep.dim,
            {
                (row[_product(dep, pm, x._masks)], col): 1
                for col, x in enumerate(rep.basis[:end])
            },
        )
        rep._left_cache[p._masks] = cached
    return cached


def range_projection(rep, p):
    """Diagonal 0/1 projection onto the left multiples of p (exact at any W).

    Only basis elements at least as heavy as p, a suffix of the basis, are
    tested for divisibility.
    """
    _check_rep_graph(rep, p)
    cached = rep._range_cache.get(p._masks)
    if cached is None:
        start = bisect_left(rep._weights, p._w)
        cached = SparseOperator(
            rep.dim,
            {
                (i, i): 1
                for i, x in enumerate(rep.basis[start:], start)
                if divides(p, x)
            },
        )
        rep._range_cache[p._masks] = cached
    return cached


def nica_check(rep, p, q):
    """Meet of range projections equals the join's range projection, exactly."""
    _check_rep_graph(rep, p)
    _check_rep_graph(rep, q)
    lhs = range_projection(rep, p) @ range_projection(rep, q)
    bound = join(p, q)
    if bound is INFINITY:
        rhs = SparseOperator.zero(rep.dim)
    else:
        rhs = range_projection(rep, bound)
    return lhs == rhs


def vacuum_projection(rep):
    """Rank-one projection onto the identity basis vector.

    Built both as the product of the generator complements and as the
    alternating clique sum; the two must agree entrywise in integers.
    """
    graph = rep.graph
    ident = SparseOperator.identity(rep.dim)
    product = ident
    for s in graph.generators:
        ell = left_op(rep, graph.gen(s))
        product = product @ (ident - ell @ ell.adjoint())

    alternating = SparseOperator.zero(rep.dim)
    for block in _cliques(graph, include_empty=True):
        ell = left_op(rep, graph.trace(_letters(graph, block)))
        alternating = alternating + (-1) ** block.bit_count() * (ell @ ell.adjoint())

    if product != alternating:
        raise OperatorIdentityError(
            "vacuum projection: product form and clique sum disagree"
        )
    expected = SparseOperator(rep.dim, {(0, 0): 1})
    if product != expected:
        raise OperatorIdentityError(
            "vacuum projection is not the rank-one projection at the identity"
        )
    return product


def density(rep, beta):
    """Diagonal operator with entries exp(-beta * weight(x))."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return SparseOperator.diagonal(_density_values(rep, beta))


def evolution_unitary(rep, t):
    """Diagonal phase operator exp(i*t*weight(x)); conjugation scales
    left translations by the phase of their weight."""
    d = rep.graph.scale
    return SparseOperator.diagonal(cmath.exp(1j * t * (w / d)) for w in rep._weights)


def _density_values(rep, beta):
    cached = rep._density_cache.get(beta)
    if cached is None:
        d = rep.graph.scale
        cached = [math.exp(-beta * (w / d)) for w in rep._weights]
        rep._density_cache[beta] = cached
    return cached


def gibbs_numeric(rep, op, beta):
    """Normalized trace of op against the truncated density at beta."""
    if beta <= 0:
        raise ComputationError("gibbs evaluation needs beta > 0")
    if op.dim != rep.dim:
        raise ValueError("operator dimension does not match the basis")
    weights = _density_values(rep, beta)
    denominator = sum(weights)
    numerator = sum(v * weights[i] for i, v in op.diagonal_entries())
    return numerator / denominator


def dynamics_factor(p, q, z):
    """exp(i*z*(w(p) - w(q))): the analytic twist of a starred monomial."""
    _check_same_graph(p, q)
    return cmath.exp(1j * z * float(p.weight - q.weight))


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


def kms_numeric_check(rep, pair1, pair2, beta, tol=1e-12):
    """Twisted-trace residual of two truncated monomials, with a tail bound.

    For A = L_p1 L_q1^* and B = L_p2 L_q2^*, computes
    |psi(AB) - twist * psi(BA)| with psi the truncated Gibbs state; the
    reported bound is (tail(W - dB) + twist * tail(W - dA)) / Z_W where
    dA, dB are the weight gains of A and B, and is rigorous for beta above
    the critical value.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    p1, q1 = pair1
    p2, q2 = pair2
    for x in (p1, q1, p2, q2):
        _check_rep_graph(rep, x)
    ctx = rep.thermo()
    if beta <= ctx.beta_c:
        raise ComputationError(
            f"tail bound needs beta > beta_c = {ctx.beta_c:.12g}"
        )
    a_op = left_op(rep, p1) @ left_op(rep, q1).adjoint()
    b_op = left_op(rep, p2) @ left_op(rep, q2).adjoint()
    psi_ab = gibbs_numeric(rep, a_op @ b_op, beta)
    psi_ba = gibbs_numeric(rep, b_op @ a_op, beta)
    twist = math.exp(-beta * float(p1.weight - q1.weight))
    residual = abs(psi_ab - twist * psi_ba)

    weights = _density_values(rep, beta)
    z_trunc = sum(weights)
    gain_b = max(p2.weight - q2.weight, Fraction(0))
    gain_a = max(p1.weight - q1.weight, Fraction(0))
    bound = (
        tail_mass(ctx, beta, rep.cutoff, up_to=rep.cutoff - gain_b)
        + twist * tail_mass(ctx, beta, rep.cutoff, up_to=rep.cutoff - gain_a)
    ) / z_trunc
    return KmsNumericReport(
        residual=residual,
        bound=bound + tol,
        psi_ab=psi_ab,
        psi_ba=psi_ba,
        twist=twist,
        beta=beta,
        cutoff=rep.cutoff,
    )


def _check_rep_graph(rep, p):
    if p.graph is not rep.graph and p.graph != rep.graph:
        raise MismatchedGraphError("trace does not live over the basis graph")
