"""Weight-graded enumeration, growth tables and clique-polynomial inversion.

The number of monoid elements at each weight level is computed two ways that
must agree: a transfer-style dynamic program over successor blocks, and the
reciprocal power series of the clique polynomial.  All arithmetic is exact
and on integers: growth counts and polynomial coefficients are dense integer
lists on the exponent lattice (1/scale)*Z, and their Fraction-keyed forms
(`rows`, `counts()`, `terms`) are views built at the API.  The enumeration
is a trie of integer rows, from which traces are built only on request.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, zip_longest
from operator import itemgetter

from .monoid import Trace, _letters

__all__ = [
    "WeightedPolynomial",
    "GrowthTable",
    "InversionReport",
    "enumerate_up_to",
    "growth_table",
    "clique_polynomial",
    "invert_series",
    "verify_inversion",
    "is_lattice_ordered",
]

MAX_LEVELS = 10_000  # most scaled weight levels a count or an enumeration runs over
MAX_BASIS_DIM = 1_000_000  # most traces an enumeration holds
MAX_CLIQUES = 1_000_000  # most cliques the walks of one clique listing make
MAX_COUNT_STEPS = 50_000_000  # most levels * (cliques + successor entries) one count sums, about 2 s
MAX_DEGREE = 20_000  # highest scaled degree of a clique polynomial


class ComputationError(RuntimeError):
    """A numeric request outside its domain (e.g. beta at or below beta_c,
    or a cutoff past MAX_LEVELS, an enumeration past MAX_BASIS_DIM, a clique
    listing past MAX_CLIQUES, a count past MAX_COUNT_STEPS or a clique
    polynomial past MAX_DEGREE)."""


class WeightedPolynomial:
    """Polynomial with integer coefficients and nonnegative rational exponents.

    `_coeffs[k]` multiplies t**(k/scale) and the list ends at a nonzero entry;
    scale is the lcm of the denominators of the nonzero terms."""

    __slots__ = ("_coeffs", "scale", "_terms")

    def __init__(self, terms):
        clean = {}
        for exponent, coeff in terms.items():
            exponent = Fraction(exponent)
            if exponent < 0:
                raise ValueError(f"negative exponent {exponent}")
            coeff = _integer(coeff, "coefficient")
            if coeff:
                clean[exponent] = coeff
        self.scale = math.lcm(*(e.denominator for e in clean))
        self._coeffs = [0] * (int(max(clean) * self.scale) + 1) if clean else []
        for e, c in clean.items():
            self._coeffs[int(e * self.scale)] = c
        self._terms = None

    @classmethod
    def one(cls):
        return cls({Fraction(0): 1})

    @property
    def terms(self):
        """Derived Fraction view: exponent -> nonzero coefficient, ascending."""
        if self._terms is None:
            self._terms = {Fraction(k, self.scale): c for k, c in enumerate(self._coeffs) if c}
        return self._terms

    @property
    def constant_term(self):
        return self._coeffs[0] if self._coeffs else 0

    @property
    def degree(self):
        return Fraction(max(len(self._coeffs) - 1, 0), self.scale)

    def truncate(self, cutoff):
        top = math.floor(Fraction(cutoff) * self.scale)
        return _poly(self._coeffs[: max(top + 1, 0)], self.scale)

    def integer_coefficients(self):
        """Dense coefficient list after substituting t = x**(1/scale)."""
        return list(self._coeffs) or [0]

    def evaluate(self, t):
        return sum(c * t ** (k / self.scale) for k, c in enumerate(self._coeffs) if c)

    def _common(self, other):
        """(d, own coefficients, other's coefficients), both on the lattice (1/d)*Z."""
        d = math.lcm(self.scale, other.scale)
        return d, _spread(self._coeffs, d // self.scale), _spread(other._coeffs, d // other.scale)

    def __add__(self, other):
        if not isinstance(other, WeightedPolynomial):
            return NotImplemented
        d, a, b = self._common(other)
        return _poly([x + y for x, y in zip_longest(a, b, fillvalue=0)], d)

    def __mul__(self, other):
        if isinstance(other, int):
            return _poly([c * other for c in self._coeffs], self.scale)
        if not isinstance(other, WeightedPolynomial):
            return NotImplemented
        d, a, b = self._common(other)
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _poly(out, d)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, WeightedPolynomial):
            return NotImplemented
        return self.scale == other.scale and self._coeffs == other._coeffs

    def __str__(self):
        parts = []
        for e, c in self.terms.items():
            if e == 0:
                body = str(abs(c))
            else:
                exp = str(e) if e.denominator == 1 else f"({e})"
                body = f"{abs(c)}*t^{exp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts) or "0"

    def __repr__(self):
        return f"WeightedPolynomial({self})"


def _integer(value, what):
    """value as an int; one with a fractional part raises ValueError."""
    if int(value) != value:
        raise ValueError(f"{what} {value} is not an integer")
    return int(value)


def _spread(coeffs, step):
    """A coefficient list moved onto a lattice `step` times finer."""
    out = [0] * ((len(coeffs) - 1) * step + 1)
    out[::step] = coeffs
    return out


def _poly(coeffs, scale):
    """The polynomial with coeffs[k] at t**(k/scale), on its coarsest lattice."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    step = scale
    for k, c in enumerate(coeffs):
        if step == 1:  # the lattice is already the finest
            break
        if c:
            step = math.gcd(step, k)
    poly = WeightedPolynomial.__new__(WeightedPolynomial)
    poly._coeffs, poly.scale, poly._terms = coeffs[::step], scale // step, None
    return poly


class GrowthTable:
    """Element counts per weight level up to a cutoff.

    The counts are the truncated growth series, a WeightedPolynomial, so an
    integer list on its scale lattice; ``rows`` (sorted (weight, count) pairs),
    ``counts()`` and ``max_weight`` are derived Fraction views."""

    __slots__ = ("_series", "cutoff")

    def __init__(self, rows, cutoff):
        rows = [(Fraction(w), _integer(n, "count")) for w, n in rows]
        if not rows or rows[0] != (Fraction(0), 1):
            raise ValueError("a growth table starts with the identity row (0, 1)")
        if any(w2 <= w1 for (w1, _), (w2, _) in zip(rows, rows[1:])):
            raise ValueError("weight levels must be strictly increasing")
        if any(n < 1 for _, n in rows):
            raise ValueError("counts must be positive")
        cutoff = Fraction(cutoff)
        if rows[-1][0] > cutoff:
            raise ValueError("row above the cutoff")
        self._series = WeightedPolynomial(dict(rows))
        self.cutoff = cutoff

    @property
    def rows(self):
        return list(self._series.terms.items())

    def counts(self):
        return dict(self._series.terms)

    def total(self):
        return sum(self._series._coeffs)

    @property
    def max_weight(self):
        return self._series.degree

    def __len__(self):
        return len(self._series._coeffs) - self._series._coeffs.count(0)

    def __repr__(self):
        return f"GrowthTable({len(self)} levels up to {self.cutoff})"


_LOG_MAX = math.log(sys.float_info.max)


def _times_exp(n, y):
    """n * exp(y); a count n past float range goes through log(n) instead."""
    try:
        return n * math.exp(y)
    except OverflowError:
        y += math.log(n)
        return math.exp(y) if y < _LOG_MAX else math.inf


def _top_level(cutoff, scale):
    """floor(cutoff * scale), the highest scaled weight level, from 0 to MAX_LEVELS."""
    top = math.floor(Fraction(cutoff) * scale)
    if top < 0:
        raise ValueError("cutoff must be nonnegative")
    if top > MAX_LEVELS:
        raise ComputationError(f"{top} scaled weight levels exceed the limit {MAX_LEVELS}")
    return top


@dataclass(frozen=True)
class InversionReport:
    match: bool
    cutoff: Fraction
    first_mismatch: tuple | None  # (weight, table count, series coefficient)


# -- clique structure --------------------------------------------------------


def _walk(graph, mask, top, tally):
    """Yield (block mask, scaled weight) of each nonempty clique inside `mask`
    of scaled weight <= top, depth first, each before its extensions by higher
    letters; weights are positive, so a clique past top ends its branch.  The
    walks of one listing share a `tally` (itertools.count(1)) of the cliques
    they yield, and raise ComputationError once it passes MAX_CLIQUES."""
    dep, w, stack = graph._dep, graph._w, [(0, 0, mask)]  # a letter's dep holds itself
    while stack:
        members, weight, candidates = stack.pop()
        if candidates:
            low = candidates & -candidates
            k = low.bit_length() - 1
            stack.append((members, weight, candidates ^ low))
            if weight + w[k] <= top:
                if next(tally) > MAX_CLIQUES:
                    raise ComputationError(f"more cliques than the limit {MAX_CLIQUES}")
                yield members | low, weight + w[k]
                stack.append((members | low, weight + w[k], candidates & ~dep[k]))


def _clique_weights(graph):
    """Block mask -> scaled weight of each nonempty clique, in walk order, kept on the graph."""
    if graph._cliques is None:
        graph._cliques = dict(_walk(graph, (1 << len(graph._dep)) - 1, sum(graph._w), count(1)))
    return graph._cliques


def _cliques(graph, top):
    """The empty clique, then each clique of scaled weight <= top, as block masks."""
    return (0, *(b for b, _ in _walk(graph, (1 << len(graph._dep)) - 1, top, count(1))))


def _lists(graph, top):
    """(masks, scaled weights, successor lists) of the cliques of scaled weight
    <= top.  succ[i] indexes the cliques that may follow clique i in a Foata
    normal form, those inside its dependents mask: one walk per distinct mask."""
    tally = count(1)
    weights = dict(_walk(graph, (1 << len(graph._dep)) - 1, top, tally))  # mask: weight
    index = {b: i for i, b in enumerate(weights)}
    reaches = [graph._dependents[b] for b in weights]
    inside = {r: [index[c] for c, _ in _walk(graph, r, top, tally)] for r in set(reaches)}
    return list(weights), list(weights.values()), [inside[r] for r in reaches]


# A graph's enumeration up to scaled weight `top`, a trie: by row, scaled weight,
# parent row (itself without its last Foata block; the identity's is 0) and last
# block; child[(parent << n) | block] is the row of parent|block.  Nothing more.
_Basis = namedtuple("_Basis", "top weights parents lasts child")


def _basis(graph, cutoff):
    """(the graph's enumeration, number of its rows of weight <= cutoff),
    enumerating again only for a cutoff above the longest one it holds.  An
    enumeration counted (by growth table) past MAX_BASIS_DIM raises
    ComputationError instead of being made."""
    top = _top_level(cutoff, graph.scale)
    if graph._basis is None or graph._basis.top < top:
        dim = growth_table(graph, cutoff).total()
        if dim > MAX_BASIS_DIM:
            # no int-to-str limit is below 640 digits, so a longer count is shown by its bits
            shown = dim if dim < 10**600 else f"at least 2^{dim.bit_length() - 1}"
            raise ComputationError(f"basis dimension {shown} exceeds the limit {MAX_BASIS_DIM}")
        graph._basis = _enumerate(graph, top)
    return graph._basis, bisect_right(graph._basis.weights, top)


def enumerate_up_to(graph, cutoff):
    """All traces of weight <= cutoff, sorted by (weight, normal form), in a
    fresh list served from the longest enumeration the graph holds, of which
    it is a prefix; only a larger cutoff enumerates again.  The graph keeps a
    trie of ints (top, weights, parents, lasts, child), not traces, which would
    tie it into a reference cycle that outlives its users.  More traces than
    MAX_BASIS_DIM raise ComputationError."""
    return _traces(graph, *_basis(graph, cutoff))


def _traces(graph, basis, end):
    """Traces of the first `end` rows of the graph's enumeration, in row order,
    each built from its parent's (an earlier row) masks and length."""
    weights, parents, lasts = basis.weights, basis.parents, basis.lasts
    out = [graph.identity()]
    for row in range(1, end):
        up, block = out[parents[row]], lasts[row]
        out.append(Trace(graph, up._masks + (block,), weights[row], up.length + block.bit_count()))
    return out


def _enumerate(graph, top):
    """The _Basis of the traces of scaled weight <= top.  Block sequences
    grow level by level in integer weight, so only the rows of one weight
    level are sorted, by their serialized form."""
    cliques, weights, succ = _lists(graph, top)
    n = len(graph.generators)
    names = [".".join(_letters(graph, b)) for b in cliques]
    # after[i]: (weight, "|" + name, index) of each clique that may follow clique i
    after = [[(weights[j], "|" + names[j], j) for j in js] for js in succ]
    # levels[w]: (serialized form, parent row, last clique) at scaled weight w
    levels = [[] for _ in range(top + 1)]
    for i, w in enumerate(weights):
        levels[w].append((names[i], 0, i))
    out = _Basis(top, [0], [0], [0], {})
    ws, parents, lasts, child = out[1:]
    for w in range(1, top + 1):
        level = levels[w]
        levels[w] = None
        level.sort(key=itemgetter(0))
        ws.extend([w] * len(level))
        room = top - w
        for row, (name, parent, last) in enumerate(level, len(parents)):
            block = cliques[last]
            parents.append(parent)
            lasts.append(block)
            child[(parent << n) | block] = row
            for wj, tail, j in after[last]:
                if wj <= room:
                    levels[w + wj].append((name + tail, row, j))
    return out


def growth_table(graph, cutoff):
    """Element counts per weight level via the successor-block transfer DP.

    The graph keeps the longest count list made so far: a cutoff at or below
    it is served by truncating that list, and only a larger one counts again."""
    cutoff = Fraction(cutoff)
    top = _top_level(cutoff, graph.scale)
    if graph._counts is None or len(graph._counts) <= top:
        graph._counts = _count(graph, top)
    table = GrowthTable.__new__(GrowthTable)
    table._series, table.cutoff = _poly(graph._counts[: top + 1], graph.scale), cutoff
    return table


def _count(graph, top):
    """Element counts at the scaled levels 0..top, a list of top + 1 ints.

    ends[w][j] counts the block sequences of scaled weight w ending in clique
    j, and slot `start` the empty one; it sums ends[w - w(j)] over the slots j
    may follow.  j may follow itself, so each itemgetter returns a tuple.
    Each level sums one slot per clique and per successor entry."""
    _, weights, succ = _lists(graph, top)
    steps = top * (len(weights) + sum(map(len, succ)))
    if steps > MAX_COUNT_STEPS:
        raise ComputationError(
            f"counting {top} scaled weight levels takes {steps} steps, past the limit {MAX_COUNT_STEPS}"
        )
    start = len(weights)
    pred = [[start] for _ in weights]
    for i, after in enumerate(succ):
        for j in after:
            pred[j].append(i)
    pad = max(weights, default=0)  # ends[pad + w] is level w; the levels below 0 are empty
    ends = [[0] * (start + 1)] * pad + [[0] * start + [1]]
    pulls = [(itemgetter(*p), pad - w) for p, w in zip(pred, weights)]
    for w in range(1, top + 1):
        ends.append([sum(get(ends[w + shift])) for get, shift in pulls] + [0])
    return [sum(level) for level in ends[pad:]]


def clique_polynomial(graph):
    """Alternating clique sum: coefficient (-1)^|F| at exponent w(F)."""
    weights = _clique_weights(graph)
    degree = max(weights.values())
    if degree > MAX_DEGREE:
        raise ComputationError(f"clique polynomial degree {degree} exceeds the limit {MAX_DEGREE}")
    coeffs = [1] + [0] * degree
    for block, w in weights.items():
        coeffs[w] += -1 if block.bit_count() & 1 else 1
    return _poly(coeffs, graph.scale)


def invert_series(poly, cutoff):
    """Reciprocal power series of poly modulo exponents above the cutoff.

    Requires constant term 1; runs the triangular recurrence in integers on
    poly's exponent lattice, over its nonzero coefficients only."""
    if poly.constant_term != 1:
        raise ValueError("series inversion requires constant term 1")
    top = _top_level(cutoff, poly.scale)
    deg = len(poly._coeffs) - 1
    terms = [(k, c) for k, c in enumerate(poly._coeffs) if k and c]
    inv = [0] * deg + [1]  # inv[deg + m] is the coefficient at m/scale; below 0 it is 0
    for m in range(deg + 1, deg + top + 1):
        inv.append(-sum([c * inv[m - k] for k, c in terms]))
    return _poly(inv[deg:], poly.scale)


def verify_inversion(graph, cutoff):
    """Compare the clique-polynomial reciprocal with the transfer-DP counts,
    as integer lists spread onto their common exponent lattice."""
    cutoff = Fraction(cutoff)
    table = growth_table(graph, cutoff)
    series = invert_series(clique_polynomial(graph), cutoff)
    d, expected, got = table._series._common(series)
    pairs = enumerate(zip_longest(expected, got, fillvalue=0))
    mismatch = next(((Fraction(k, d), n, c) for k, (n, c) in pairs if n != c), None)
    return InversionReport(match=mismatch is None, cutoff=cutoff, first_mismatch=mismatch)


def is_lattice_ordered(graph):
    """Every pair of elements has a join iff the graph is complete."""
    return graph.is_complete()
