"""Weighted trace monoids presented by finite commutation graphs.

A finite simple graph on a set of generators, plus a strictly positive
rational weight per generator, presents a monoid in which two generators
commute exactly when they are joined by an edge (the free and free-abelian
monoids are the edgeless and complete special cases).  Elements are kept in
Foata normal form: a sequence of blocks, each block a clique of the graph,
where every letter of a block depends on some letter of the preceding block.

This module alone decides how that form is stored.  Generator i is bit
``1 << i`` and a block is the int mask of its letters; each generator has
the mask of the letters it depends on, itself included.  The letters of a
block commute pairwise, so every block mask is a clique, and the graph keeps
two tables keyed by such masks, filled on first lookup: ``_dependents`` (the
letters that depend on some letter of the block) and ``_block_weight``.  A
whole block then drops onto a stack at once, each letter landing just above
the highest block whose dependents mask holds it.  Two cases skip most of
the block walk: a product whose right factor starts inside the dependents of
the left factor's top block is the concatenation of their blocks, and taking
letters off the front stops at the first block that keeps all its letters or
falls whole, past which every block stays or falls by one.  Weights are ints
on the lattice (1/scale)*Z, with scale the lcm of the weight denominators.  The
letter forms of a trace (``key``, ``blocks``) and its ``Fraction`` weight
are derived on first use.  Equality, left divisibility, least common upper
bounds and Wick reordering are all decided exactly; weights are never floats.
``_twisted_weight`` decides a side of the twisted-trace identity for
``qlo.thermo`` the same way, on masks and scaled weights, making no Trace.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add, or_

__all__ = [
    "GraphError",
    "MismatchedGraphError",
    "NotADivisorError",
    "INFINITY",
    "IndependenceGraph",
    "Trace",
    "build_graph",
    "normalize",
    "multiply",
    "divides",
    "left_quotient",
    "min_letters",
    "join",
    "wick",
]


class GraphError(ValueError):
    """Invalid commutation-graph data (bad generator, edge or weight)."""


class MismatchedGraphError(ValueError):
    """Traces over different commutation graphs were combined."""


class NotADivisorError(ValueError):
    """Raised by left_quotient(p, x) when p is not a left divisor of x."""


class _Infinity:
    """Tag for 'no common upper bound'.  Use the INFINITY singleton."""

    __slots__ = ()

    def __repr__(self):
        return "Infinity"


#: Result of ``join`` when the arguments have no common upper bound.
INFINITY = _Infinity()


def _as_weight(value, generator):
    if isinstance(value, float):
        raise GraphError(
            f"weight of {generator!r} must be an exact rational, not a float"
        )
    try:
        weight = Fraction(value)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"invalid weight {value!r} for {generator!r}") from exc
    if weight <= 0:
        raise GraphError(f"weight of {generator!r} must be positive, got {weight}")
    return weight


class IndependenceGraph:
    """Commutation graph: vertices generate, edges mean 'these commute'.

    Immutable, so what derives from it is kept once made: the hash, the
    per-clique tables ``_dependents`` and ``_block_weight`` (a Foata block's
    letters commute, so a block mask is always a clique) and, for
    ``qlo.growth``, the scaled weight of each clique by mask (``_cliques``),
    and the longest growth count (``_counts``) and enumeration (``_basis``) so
    far, which serve every cutoff up to theirs."""

    __slots__ = (
        "generators",
        "weights",
        "edges",
        "_index",
        "_dep",
        "_w",
        "_scale",
        "_hash",
        "_dependents",
        "_block_weight",
        "_cliques",
        "_counts",
        "_basis",
    )

    def __init__(self, generators, weights, edges=()):
        gens = tuple(generators)
        if not gens:
            raise GraphError("at least one generator is required")
        index = {}
        for s in gens:
            if s in index:
                raise GraphError(f"duplicate generator {s!r}")
            index[s] = len(index)

        if hasattr(weights, "keys"):
            table = {}
            for s in gens:
                if s not in weights:
                    raise GraphError(f"missing weight for generator {s!r}")
                table[s] = _as_weight(weights[s], s)
            for s in weights:
                if s not in index:
                    raise GraphError(f"weight given for unknown generator {s!r}")
        else:
            table = {s: _as_weight(weights, s) for s in gens}

        dep = [(1 << len(gens)) - 1] * len(gens)
        edge_set = set()
        for pair in edges:
            a, b = tuple(pair)
            for end in (a, b):
                if end not in index:
                    raise GraphError(f"edge endpoint {end!r} is not a generator")
            if a == b:
                raise GraphError(f"self-loop at {a!r}")
            edge_set.add(frozenset((a, b)))
            dep[index[a]] &= ~(1 << index[b])
            dep[index[b]] &= ~(1 << index[a])

        scale = math.lcm(*(w.denominator for w in table.values()))
        self.generators = gens
        self.weights = table
        self.edges = frozenset(edge_set)
        self._index = index
        self._dep = tuple(dep)
        self._w = tuple(int(table[s] * scale) for s in gens)
        self._scale = scale
        self._hash = None
        self._dependents = _MaskTable(self._dep, or_)
        self._block_weight = _MaskTable(self._w, add)
        self._cliques = self._counts = self._basis = None

    # -- basic queries -------------------------------------------------

    def commutes(self, s, r):
        return not self._dep[self._index[s]] >> self._index[r] & 1

    def is_complete(self):
        n = len(self.generators)
        return len(self.edges) == n * (n - 1) // 2

    @property
    def scale(self):
        """lcm of the weight denominators; weights live on (1/scale)*Z."""
        return self._scale

    @property
    def min_weight(self):
        return min(self.weights.values())

    # -- element constructors -------------------------------------------

    def identity(self):
        return Trace(self, (), 0, 0)

    def trace(self, word):
        return normalize(self, word)

    def gen(self, s):
        return normalize(self, [s])

    # -- equality --------------------------------------------------------

    def _signature(self):
        return (
            self.generators,
            tuple(self.weights[s] for s in self.generators),
            self.edges,
        )

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, IndependenceGraph):
            return NotImplemented
        return self._signature() == other._signature()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._signature())
        return self._hash

    def __repr__(self):
        return (
            f"IndependenceGraph({len(self.generators)} generators, "
            f"{len(self.edges)} edges)"
        )


class Trace:
    """Monoid element in Foata normal form; immutable.

    ``_masks`` holds the Foata blocks as int masks and ``_w`` the weight in
    units of 1/scale; ``key``, ``blocks`` and ``weight`` derive from them.
    """

    __slots__ = ("graph", "_masks", "length", "_w", "_weight", "_key")

    def __init__(self, graph, masks, w, length):
        self.graph = graph
        self._masks = masks
        self.length = length
        self._w = w
        self._weight = None
        self._key = None

    @property
    def key(self):
        """Foata blocks as tuples of letters, each in generator order."""
        if self._key is None:
            self._key = tuple(_letters(self.graph, m) for m in self._masks)
        return self._key

    @property
    def blocks(self):
        """Foata blocks as frozensets of letters."""
        return tuple(frozenset(part) for part in self.key)

    @property
    def weight(self):
        """Exact weight, a Fraction."""
        if self._weight is None:
            self._weight = Fraction(self._w, self.graph._scale)
        return self._weight

    def is_identity(self):
        return not self._masks

    def serialize(self):
        if not self._masks:
            return "e"
        return "|".join(".".join(part) for part in self.key)

    def sort_key(self):
        return (self.weight, self.serialize())

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Trace):
            return NotImplemented
        if self._masks != other._masks:
            return False
        return self.graph is other.graph or self.graph == other.graph

    def __hash__(self):
        return hash(self._masks)

    def __repr__(self):
        return f"Trace({self.serialize()!r})"


def build_graph(generators, weights, edges=()):
    """Validate and build an IndependenceGraph."""
    return IndependenceGraph(generators, weights, edges)


# -- block masks ------------------------------------------------------------


def _letters(graph, mask):
    """Generators in a block mask, in generator order."""
    gens = graph.generators
    out = []
    while mask:
        low = mask & -mask
        out.append(gens[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


class _MaskTable(dict):
    """Per-letter values folded by `_fold` (or, add) over the letters of a
    block mask, computed on the first lookup of each mask."""

    __slots__ = ("_per_letter", "_fold")

    def __init__(self, per_letter, fold):
        self._per_letter, self._fold = per_letter, fold

    def __missing__(self, mask):
        letters = (v for i, v in enumerate(self._per_letter) if mask >> i & 1)
        self[mask] = out = reduce(self._fold, letters, 0)
        return out


def _weigh(graph, masks):
    """(scaled weight, length) of a sequence of block masks."""
    weight, w, n = graph._block_weight, 0, 0
    for m in masks:
        w, n = w + weight[m], n + m.bit_count()
    return w, n


# -- Foata normal form machinery ------------------------------------------


def _drop(reach, blocks, b):
    """Drop the letters of block mask b onto block masks, in place.

    They commute pairwise, so each lands just above the highest block whose
    dependents mask (`reach`) holds it, wherever the others land."""
    k = len(blocks)
    while b:
        k -= 1
        hit = b & reach[blocks[k]] if k >= 0 else b
        if hit:
            b ^= hit
            if k + 1 < len(blocks):
                blocks[k + 1] |= hit
            else:
                blocks.append(hit)


def _product(reach, pm, qm):
    """Block masks of p*q: q's blocks drop onto p's blocks one at a time.

    Once a block of q lands inside the top block, every later block of q
    depends on the block before it and stacks on top unchanged.  When q's
    first block lies inside the dependents of p's top block it lands above
    it, so p*q is the concatenation of the two block sequences and nothing
    drops at all.
    """
    if not pm or not qm or not qm[0] & ~reach[pm[-1]]:
        return (*pm, *qm)
    blocks = list(pm)
    for j, b in enumerate(qm):
        _drop(reach, blocks, b)
        if not b & ~blocks[-1]:
            return (*blocks, *qm[j + 1 :])
    return tuple(blocks)


def _remove_front(reach, blocks, head):
    """Block masks with the minimal letters `head` taken off the front.

    `head` lies in the first block.  Its letters commute with each other, so
    no dependency chain holds two of them and every other letter falls by at
    most one block: it falls exactly when nothing that stays in the block
    below depends on it.  So the walk stops early.  Once a block keeps all
    its letters, every later block depends on the one below and keeps them
    too.  Once a block falls whole, nothing stays below the next one, which
    falls whole in turn: every later block falls by exactly one.  When
    `head` is the whole first block the second case holds at once, and the
    rest is ``blocks[1:]``, a tuple when `blocks` is one.
    """
    stay = blocks[0] & ~head
    if not stay:
        return blocks[1:]
    out = [stay]
    for i in range(1, len(blocks)):
        b = blocks[i]
        fall = b & ~reach[stay]
        if not fall:
            return (*out, *blocks[i:])
        out[-1] |= fall
        stay = b ^ fall
        if not stay:
            return (*out, *blocks[i + 1 :])
        out.append(stay)
    return out


def _quotient(reach, pm, xm):
    """Block masks of p\\x, or None when p does not divide x on the left."""
    rest = xm
    for b in pm:
        if not rest or b & ~rest[0]:
            return None
        rest = _remove_front(reach, rest, b)
    return rest


def _join_rest(reach, pm, qm):
    """Block masks of q' with join(p, q) = p*q', or None if there is no join.

    The blocks of p are consumed front to back.  Letters minimal in what is
    left of q come off its front; every other letter must commute with all
    of what is left of q, or no common upper bound exists.
    """
    rest = qm
    for b in pm:
        head = b & rest[0] if rest else 0
        if head:
            rest = _remove_front(reach, rest, head)
        if b != head:
            far = reach[b & ~head]
            for c in rest:
                if c & far:
                    return None
    return rest


def _check_same_graph(p, q):
    if p.graph is not q.graph and p.graph != q.graph:
        raise MismatchedGraphError("operands live over different graphs")


# -- operations -------------------------------------------------------------


def normalize(graph, word):
    """Foata normal form of a word; constant on commutation classes."""
    index = graph._index
    reach = graph._dependents
    weights = graph._w
    blocks = []
    total = length = 0
    for s in word:
        i = index.get(s)
        if i is None:
            raise GraphError(f"unknown generator {s!r}")
        _drop(reach, blocks, 1 << i)
        total += weights[i]
        length += 1
    return Trace(graph, tuple(blocks), total, length)


def multiply(p, q):
    """Normal form of the concatenation pq; weight and length add."""
    if p.graph is not q.graph:
        _check_same_graph(p, q)
    if not p._masks:
        return q
    if not q._masks:
        return p
    return Trace(
        p.graph,
        _product(p.graph._dependents, p._masks, q._masks),
        p._w + q._w,
        p.length + q.length,
    )


def min_letters(p):
    """Generators dividing p on the left; this is the first Foata block."""
    return set(_letters(p.graph, p._masks[0])) if p._masks else set()


def divides(p, x):
    """True iff x = p*p' for some p' (left divisibility)."""
    if p.graph is not x.graph:
        _check_same_graph(p, x)
    if p._w > x._w or p.length > x.length:
        return False
    return _quotient(p.graph._dependents, p._masks, x._masks) is not None


def left_quotient(p, x):
    """The unique p' with p*p' = x; raises NotADivisorError otherwise."""
    if p.graph is not x.graph:
        _check_same_graph(p, x)
    rest = _quotient(p.graph._dependents, p._masks, x._masks)
    if rest is None:
        raise NotADivisorError(f"{p.serialize()} does not divide {x.serialize()}")
    return Trace(p.graph, tuple(rest), x._w - p._w, x.length - p.length)


def join(p, q):
    """Least common upper bound of p and q, or INFINITY if none exists.

    join(p, q) = p*q' where q' is what is left of q once the letters of p
    are consumed from its front; a letter of p that is not minimal in the
    rest of q must commute with all of it, otherwise no upper bound exists.
    """
    if p.graph is not q.graph:
        _check_same_graph(p, q)
    graph = p.graph
    rest = _join_rest(graph._dependents, p._masks, q._masks)
    if rest is None:
        return INFINITY
    if not rest:
        return p
    w, n = _weigh(graph, rest)
    return Trace(graph, _product(graph._dependents, p._masks, rest), p._w + w, p.length + n)


def wick(p, q):
    """Reorder a starred product: returns (a, b) with p*a = q*b = join(p, q).

    Returns None when join(p, q) = INFINITY (the product collapses to zero).
    """
    if p.graph is not q.graph:
        _check_same_graph(p, q)
    reach = p.graph._dependents
    a = _join_rest(reach, p._masks, q._masks)
    if a is None:
        return None
    a = Trace(p.graph, tuple(a), *_weigh(p.graph, a))  # b's weight and length follow from p*a = q*b
    b = _join_rest(reach, q._masks, p._masks)
    return a, Trace(q.graph, tuple(b), p._w + a._w - q._w, p.length + a.length - q.length)


def _twisted_weight(front, star1, mid, star2):
    """Scaled weight of a, where star1*a = mid*b = join(star1, mid), when
    front*a == star2*b; None when the join is infinite or the products differ.
    The products weigh the same only if w(front) + w(a) == w(star2) + w(b),
    with w(b) = w(star1) + w(a) - w(mid); w(a) cancels, so this exact test
    runs first, and the block masks are joined and compared only if it holds."""
    if front._w - star2._w != star1._w - mid._w:
        return None
    reach = front.graph._dependents
    a = _join_rest(reach, star1._masks, mid._masks)
    if a is None:
        return None
    b = _join_rest(reach, mid._masks, star1._masks)
    if _product(reach, front._masks, a) != _product(reach, star2._masks, b):
        return None
    return _weigh(front.graph, a)[0]
