"""Truncated left regular representation and operator-identity checks.

The basis is every monoid element of weight at most a cutoff W: the integer
rows of the graph's enumeration, a trie in which a row is its parent row
(itself without its last Foata block) extended by that block; block masks
and lengths are built only for the traces asked for.  A left translation L_p
is a cached column -> row partial map (the row of p*x for each column x
whose product stays in the basis), built without multiplying words: the map
of a Foata block is one pass over the trie, carrying the letters it pushes
up a block, and p composes the maps of its blocks, as v_p v_q = v_pq.
Composition is indexing, L L^* is the diagonal of preimage counts and a range
projection is an image set, so the projection identities hold exactly in
integers at every finite W (the vacuum's given injective generator maps).
``SparseOperator``, never dense, is the public type: a 0/1 partial map for a
translation or range projection (entries built on first read), entries for
the rest; through its matmul, the independent oracle for those maps.  Floats
enter only through the density exp(-beta*H) and the Gibbs/twisted-trace
numerics, whose truncation error is controlled by an exact tail bound.
``kms_numeric_check``, which sums over the rows these maps fix, is the oracle
of the closed form on growth counts that ``thermo`` gives `kms-check`.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property

from .growth import _basis, _cliques, _top_level, _traces
# multiply is unused; bench/tests checks that tracing restores qlo.fock.multiply
from .monoid import INFINITY, join, multiply  # noqa: F401
from .monoid import _check_same_graph, _letters
from .thermo import ComputationError, KmsNumericReport, ThermoContext, _kms_report

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
    """Immutable sparse matrix: a 0/1 partial map, 1 at each (rows[i], cols[i]),
    for translations and range projections, or a dict of nonzero entries for
    the rest.  A map builds its `entries` dict on first read and keeps it."""

    __slots__ = ("dim", "_entries", "_map")

    def __init__(self, dim, entries):
        cleaned = {}
        for (r, c), v in entries.items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry ({r}, {c}) outside dimension {dim}")
            if v != 0:
                cleaned[(r, c)] = v
        self.dim, self._entries, self._map = dim, cleaned, None

    @classmethod
    def _partial_map(cls, dim, rows, cols):
        """0/1 operator on distinct (row, col) pairs that the caller has bounded by dim."""
        op = cls.__new__(cls)
        op.dim, op._entries, op._map = dim, None, (rows, cols)
        return op

    @property
    def entries(self):
        if self._entries is None:
            self._entries = dict.fromkeys(zip(*self._map), 1)
        return self._entries

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
    """Ordered weight-<=W basis with an index lookup: the first `dim` rows of
    the graph's enumeration trie (top, weights, parents, lasts, child), read in
    place and maybe past W.  Traces are built only when `basis` is read;
    rep.thermo() makes the graph's ThermoContext on first call."""

    def __init__(self, graph, cutoff):
        self.graph = graph
        self.cutoff = Fraction(cutoff)
        self._top = _top_level(self.cutoff, graph.scale)
        self._rows, self.dim = _basis(graph, self.cutoff)
        self._left_cache = {(): list(range(self.dim))}  # p's masks -> L_p's map
        self._density_cache = {}
        self._thermo = None

    @cached_property
    def basis(self):
        """The basis traces in row order, built on first access."""
        return _traces(self.graph, self._rows, self.dim)

    def index_of(self, trace):
        """Row of the trace, or None when it lies outside the basis."""
        if trace.graph is not self.graph:
            _check_same_graph(self, trace)
        child, n, row = self._rows.child, len(self.graph.generators), 0
        for m in trace._masks:
            row = child.get((row << n) | m)
            if row is None:
                return None
        return row if row < self.dim else None

    def thermo(self):
        if self._thermo is None:
            self._thermo = ThermoContext(self.graph)
        return self._thermo

    def __repr__(self):
        return f"TruncatedRep(cutoff={self.cutoff}, dim={self.dim})"


def build_rep(graph, cutoff):
    """The TruncatedRep of weight <= cutoff (ComputationError past MAX_BASIS_DIM)."""
    return TruncatedRep(graph, cutoff)


def _left_map(rep, p):
    """Column -> row partial map of L_p: the row of p*x for each column x
    of the basis prefix w(x) <= W - w(p), found by bisection; L_p drops
    every later column.  No word is multiplied: p is the product of its
    Foata blocks, so L_p composes their block maps, innermost first."""
    _check_same_graph(rep, p)
    cached = rep._left_cache.get(p._masks)
    if cached is None:
        # scaled weights ascend because the basis is sorted by weight
        end = bisect_right(rep._rows.weights, rep._top - p._w, hi=rep.dim)
        cached = []  # when p is heavier than W
        if end:
            cached = _block_map(rep, p._masks[-1])[:end]
            for b in reversed(p._masks[:-1]):
                outer = _block_map(rep, b)
                cached = [outer[r] for r in cached]
        rep._left_cache[p._masks] = cached
    return cached


def _block_map(rep, s):
    """Cached map of a block mask s (a clique), in basis order, in one pass
    over the trie.  s pushes letters up at most one block, so s*x is a row
    pre(x) and then the carry block k(x) if nonempty.  From pre(e) = 0 and
    k(e) = s, for x = x'|b the letters of b that depend on k(x') go up into
    k(x), and the rest join k(x') in the block that ends pre(x) =
    child(pre(x'), block)."""
    cached = rep._left_cache.get((s,))
    if cached is None:
        graph, (_, weights, parent, last, child) = rep.graph, rep._rows
        n, reach = len(graph.generators), graph._dependents
        end = bisect_right(weights, rep._top - graph._block_weight[s], hi=rep.dim)
        cached = rep._left_cache[(s,)] = [child[s]] if end else []
        pre, carry = [0] * end, [s] * end
        for c in range(1, end):
            x, b = parent[c], last[c]
            k = carry[x]
            carry[c] = up = b & reach[k] if k else 0
            pre[c] = row = child[(pre[x] << n) | k | (b & ~up)]
            cached.append(child[(row << n) | up] if up else row)
    return cached


def left_op(rep, p):
    """Truncated left translation by p: basis vector at x goes to p*x."""
    ell = _left_map(rep, p)
    return SparseOperator._partial_map(rep.dim, ell, range(len(ell)))


def range_projection(rep, p):
    """Diagonal 0/1 projection onto the left multiples of p: the image of L_p."""
    image = _left_map(rep, p)
    return SparseOperator._partial_map(rep.dim, image, image)


def nica_check(rep, p, q):
    """Meet of range projections equals the join's range projection, exactly."""
    meet = set(_left_map(rep, p)).intersection(_left_map(rep, q))
    bound = join(p, q)
    return meet == (set() if bound is INFINITY else set(_left_map(rep, bound)))


def vacuum_projection(rep):
    """Rank-one projection onto the identity basis vector.

    Checked as the product of the generator complements and as the
    alternating clique sum, each L L^* being its map's preimage counts.  A
    generator map that repeats a row raises, so the product is the indicator
    of the rows outside the generators' images; the clique sum is delta_0
    when the even cliques' image rows, sorted as a multiset, equal the odd
    ones' and row 0.  Only cliques of weight <= W are listed, as a heavier
    one's map is empty.  Each clique's map is its own pass over the trie,
    apart from the generator maps; test_range_projection_matches_word_search_oracle
    and test_left_map_matches_multiply_oracle check both against L1.
    """
    graph, covered = rep.graph, set()
    for s in graph.generators:
        ell = _left_map(rep, graph.gen(s))
        if len(set(ell)) != len(ell):
            raise OperatorIdentityError(f"vacuum projection: the map of {s} is not injective")
        covered.update(ell)
    plus, minus = [], [0]  # even and odd cliques' image rows; delta_0 on the odd side
    for block in _cliques(graph, rep._top):
        (minus if block.bit_count() & 1 else plus).extend(
            _left_map(rep, graph.trace(_letters(graph, block)))
        )
    if 0 in covered or len(covered) != rep.dim - 1 or sorted(plus) != sorted(minus):
        plus, minus = Counter(plus), Counter(minus)
        agree = all(plus[r] - minus[r] + (r == 0) == (r not in covered) for r in range(rep.dim))
        raise OperatorIdentityError(
            "vacuum projection is not the rank-one projection at the identity" if agree
            else "vacuum projection: product form and clique sum disagree"
        )
    return SparseOperator(rep.dim, {(0, 0): 1})


def density(rep, beta):
    """Diagonal operator with entries exp(-beta * weight(x))."""
    if not 0 <= beta < math.inf:
        raise ValueError("beta must be finite and nonnegative")
    return SparseOperator.diagonal(_density_values(rep, beta)[0])


def evolution_unitary(rep, t):
    """Diagonal phase operator exp(i*t*weight(x)); conjugation scales
    left translations by the phase of their weight."""
    d = rep.graph.scale
    weights = rep._rows.weights[: rep.dim]
    return SparseOperator.diagonal(cmath.exp(1j * t * (w / d)) for w in weights)


def _density_values(rep, beta):
    """exp(-beta * w(x)) for each row and their sum Z_W, kept per beta."""
    cached = rep._density_cache.get(beta)
    if cached is None:
        d, weights = rep.graph.scale, rep._rows.weights[: rep.dim]
        level = {w: math.exp(-beta * (w / d)) for w in dict.fromkeys(weights)}
        values = list(map(level.__getitem__, weights))
        cached = rep._density_cache[beta] = values, sum(values)
    return cached


def gibbs_numeric(rep, op, beta):
    """Normalized trace of op against the truncated density at beta."""
    if not 0 < beta < math.inf:
        raise ComputationError("gibbs evaluation needs a finite beta > 0")
    if op.dim != rep.dim:
        raise ValueError("operator dimension does not match the basis")
    weights, z = _density_values(rep, beta)
    if op._map is not None and op._map[0] is op._map[1]:  # a range projection: the image is
        return sum(map(weights.__getitem__, op._map[0])) / z  # its diagonal, in entries order
    return sum([v * weights[r] for (r, c), v in op.entries.items() if r == c]) / z


def dynamics_factor(p, q, z):
    """exp(i*z*(w(p) - w(q))): the analytic twist of a starred monomial."""
    _check_same_graph(p, q)
    return cmath.exp(1j * z * float(p.weight - q.weight))


def kms_numeric_check(rep, pair1, pair2, beta):
    """Twisted-trace residual of two truncated monomials, with a tail bound.

    For A = L_p1 L_q1^* and B = L_p2 L_q2^*, the masses of psi sum the density
    over the rows that the composed maps fix, and Z_W sums it over every row;
    `thermo._kms_report` gives the residual and its bound.
    """
    for x in (*pair1, *pair2):
        _check_same_graph(rep, x)
    ctx = rep.thermo()
    if not ctx.beta_c < beta < math.inf:
        raise ComputationError(f"tail bound needs a finite beta > beta_c = {ctx.beta_c:.12g}")
    a_map, b_map = _monomial_map(rep, *pair1), _monomial_map(rep, *pair2)
    weights, z = _density_values(rep, beta)
    masses = _fixed_point_mass(a_map, b_map, weights), _fixed_point_mass(b_map, a_map, weights)
    return _kms_report(ctx, pair1, pair2, beta, rep.cutoff, rep._top, *masses, z)


def _monomial_map(rep, p, q):
    """L_p L_q^* as a partial map {q*y: p*y}; left translations are injective
    (the monoid is left cancellative), so L_q^* inverts L_q."""
    return dict(zip(_left_map(rep, q), _left_map(rep, p)))


def _fixed_point_mass(outer, inner, weights):
    """Tr(outer o inner o rho) for 0/1 partial maps: the sum of weights[x]
    over the x with outer[inner[x]] == x, in ascending x."""
    fixed = sorted(x for x, r in inner.items() if outer.get(r) == x)
    return sum(map(weights.__getitem__, fixed))
