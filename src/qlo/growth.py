"""Weight-graded enumeration, growth tables and clique-polynomial inversion.

The number of monoid elements at each weight level is computed two ways that
must agree: a transfer-style dynamic program over successor blocks, and the
reciprocal power series of the clique polynomial.  All arithmetic is exact;
rational weights are handled by rescaling exponents to an integer lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .monoid import Trace, _block_weight, _dependents, _letters

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


class WeightedPolynomial:
    """Polynomial with integer coefficients and nonnegative rational exponents."""

    __slots__ = ("terms", "scale")

    def __init__(self, terms):
        clean = {}
        for exponent, coeff in terms.items():
            exponent = Fraction(exponent)
            if exponent < 0:
                raise ValueError(f"negative exponent {exponent}")
            coeff = int(coeff)
            if coeff:
                clean[exponent] = coeff
        self.terms = clean
        self.scale = math.lcm(*(e.denominator for e in clean)) if clean else 1

    @classmethod
    def one(cls):
        return cls({Fraction(0): 1})

    @property
    def constant_term(self):
        return self.terms.get(Fraction(0), 0)

    @property
    def degree(self):
        return max(self.terms) if self.terms else Fraction(0)

    def truncate(self, cutoff):
        cutoff = Fraction(cutoff)
        return WeightedPolynomial(
            {e: c for e, c in self.terms.items() if e <= cutoff}
        )

    def integer_coefficients(self):
        """Dense coefficient list after substituting t = x**(1/scale)."""
        if not self.terms:
            return [0]
        top = int(self.degree * self.scale)
        out = [0] * (top + 1)
        for e, c in self.terms.items():
            out[int(e * self.scale)] = c
        return out

    def evaluate(self, t):
        return sum(c * t ** float(e) for e, c in self.terms.items())

    def __add__(self, other):
        if not isinstance(other, WeightedPolynomial):
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return WeightedPolynomial(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WeightedPolynomial({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return WeightedPolynomial({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, WeightedPolynomial):
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        return WeightedPolynomial(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, WeightedPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                exp = str(e) if e.denominator == 1 else f"({e})"
                body = f"{abs(c)}*t^{exp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"WeightedPolynomial({self})"


class GrowthTable:
    """Sorted (weight level, element count) rows up to a cutoff."""

    __slots__ = ("rows", "cutoff")

    def __init__(self, rows, cutoff):
        rows = [(Fraction(w), int(n)) for w, n in rows]
        if not rows or rows[0] != (Fraction(0), 1):
            raise ValueError("a growth table starts with the identity row (0, 1)")
        for (w1, n1), (w2, n2) in zip(rows, rows[1:]):
            if w2 <= w1:
                raise ValueError("weight levels must be strictly increasing")
        if any(n < 1 for _, n in rows):
            raise ValueError("counts must be positive")
        cutoff = Fraction(cutoff)
        if rows[-1][0] > cutoff:
            raise ValueError("row above the cutoff")
        self.rows = rows
        self.cutoff = cutoff

    def counts(self):
        return dict(self.rows)

    def total(self):
        return sum(n for _, n in self.rows)

    @property
    def max_weight(self):
        return self.rows[-1][0]

    def truncated_sum(self, beta):
        """Sum of n * exp(-beta*w) over all rows."""
        return sum(n * math.exp(-beta * float(w)) for w, n in self.rows)

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return f"GrowthTable({len(self.rows)} levels up to {self.cutoff})"


@dataclass(frozen=True)
class InversionReport:
    match: bool
    cutoff: Fraction
    first_mismatch: tuple | None  # (weight, table count, series coefficient)


# -- clique structure --------------------------------------------------------


def _cliques(graph, include_empty=False):
    """All cliques of the commutation graph, as block masks."""
    dep = graph._dep
    out = [0] if include_empty else []

    def grow(members, candidates):
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            block = members | low
            out.append(block)
            grow(block, candidates & ~dep[low.bit_length() - 1])

    grow(0, (1 << len(dep)) - 1)
    return out


def _successors(graph, cliques):
    """succ[i] = indices of cliques allowed directly after clique i."""
    succ = []
    for b in cliques:
        # every letter of the next block must depend on some letter of b
        reach = _dependents(graph._dep, b)
        succ.append([j for j, c in enumerate(cliques) if not c & ~reach])
    return succ


def enumerate_up_to(graph, cutoff):
    """All traces of weight <= cutoff, sorted by (weight, normal form).

    Block sequences grow level by level in integer weight, so only the
    traces of one weight level are sorted, by their serialized form.
    """
    cutoff = Fraction(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    top = math.floor(cutoff * graph.scale)
    cliques = _cliques(graph)
    weights = [_block_weight(graph, b) for b in cliques]
    sizes = [b.bit_count() for b in cliques]
    names = [".".join(_letters(graph, b)) for b in cliques]
    succ = _successors(graph, cliques)
    # levels[w]: (serialized form, masks, last clique, length) at scaled weight w
    levels = [[] for _ in range(top + 1)]
    for i, w in enumerate(weights):
        if w <= top:
            levels[w].append((names[i], (cliques[i],), i, sizes[i]))
    out = [graph.identity()]
    for w in range(1, top + 1):
        level = levels[w]
        levels[w] = None
        level.sort(key=itemgetter(0))
        for name, masks, last, length in level:
            out.append(Trace(graph, masks, w, length))
            for j in succ[last]:
                w2 = w + weights[j]
                if w2 <= top:
                    levels[w2].append(
                        (f"{name}|{names[j]}", masks + (cliques[j],), j, length + sizes[j])
                    )
    return out


def growth_table(graph, cutoff):
    """Element counts per weight level via the successor-block transfer DP."""
    cutoff = Fraction(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    d = graph.scale
    top = int(cutoff * d)  # floor
    cliques = _cliques(graph)
    weights = [_block_weight(graph, b) for b in cliques]
    succ = _successors(graph, cliques)
    counts = [0] * (top + 1)
    counts[0] = 1
    # level[w][i] = number of block sequences of scaled weight w ending in clique i
    level = [dict() for _ in range(top + 1)]
    for i, w in enumerate(weights):
        if w <= top:
            level[w][i] = level[w].get(i, 0) + 1
    for w in range(1, top + 1):
        for i, n in level[w].items():
            counts[w] += n
            for j in succ[i]:
                w2 = w + weights[j]
                if w2 <= top:
                    level[w2][j] = level[w2].get(j, 0) + n
    rows = [(Fraction(w, d), counts[w]) for w in range(top + 1) if counts[w]]
    return GrowthTable(rows, cutoff)


def clique_polynomial(graph):
    """Alternating clique sum: coefficient (-1)^|F| at exponent w(F)."""
    terms = {}
    for block in _cliques(graph, include_empty=True):
        e = Fraction(_block_weight(graph, block), graph.scale)
        terms[e] = terms.get(e, 0) + (-1) ** block.bit_count()
    return WeightedPolynomial(terms)


def invert_series(poly, cutoff):
    """Reciprocal power series of poly modulo exponents above the cutoff.

    Requires constant term 1; runs the triangular recurrence on the
    integer-scaled exponent lattice, all arithmetic exact.
    """
    if poly.constant_term != 1:
        raise ValueError("series inversion requires constant term 1")
    cutoff = Fraction(cutoff)
    d = poly.scale
    coeffs = poly.integer_coefficients()
    deg = len(coeffs) - 1
    top = int(cutoff * d)
    inv = [0] * (top + 1)
    inv[0] = 1
    for m in range(1, top + 1):
        acc = 0
        for k in range(1, min(m, deg) + 1):
            if coeffs[k]:
                acc += coeffs[k] * inv[m - k]
        inv[m] = -acc
    return WeightedPolynomial(
        {Fraction(m, d): inv[m] for m in range(top + 1) if inv[m]}
    )


def verify_inversion(graph, cutoff):
    """Compare the clique-polynomial reciprocal with the transfer-DP counts."""
    cutoff = Fraction(cutoff)
    table = growth_table(graph, cutoff)
    series = invert_series(clique_polynomial(graph), cutoff)
    expected = table.counts()
    got = {e: c for e, c in series.terms.items() if e <= cutoff}
    for w in sorted(set(expected) | set(got)):
        if expected.get(w, 0) != got.get(w, 0):
            return InversionReport(
                match=False,
                cutoff=cutoff,
                first_mismatch=(w, expected.get(w, 0), got.get(w, 0)),
            )
    return InversionReport(match=True, cutoff=cutoff, first_mismatch=None)


def is_lattice_ordered(graph):
    """Every pair of elements has a join iff the graph is complete."""
    return graph.is_complete()
