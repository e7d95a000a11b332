"""Weighted trace monoids presented by finite commutation graphs.

A finite simple graph on a set of generators, plus a strictly positive
rational weight per generator, presents a monoid in which two generators
commute exactly when they are joined by an edge (the free and free-abelian
monoids are the edgeless and complete special cases).  Elements are kept in
Foata normal form: a sequence of blocks, each block a clique of the graph,
where every letter of a block depends on some letter of the preceding block.

This module alone decides how that form is stored.  Generator i is bit
``1 << i`` and a block is the int mask of its letters; each generator has
the mask of the letters it depends on, itself included, so a letter falls
onto a stack of blocks until the first block that meets its mask.  Weights
are ints on the lattice (1/scale)*Z, with scale the lcm of the weight
denominators.  The letter forms of a trace (``key``, ``blocks``) and its
``Fraction`` weight are derived on first use.  Equality, left divisibility,
least common upper bounds and Wick reordering are all decided exactly;
weights are never floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
    """Commutation graph: vertices generate, edges mean 'these commute'."""

    __slots__ = (
        "generators",
        "weights",
        "edges",
        "_index",
        "_dep",
        "_w",
        "_scale",
        "_identity",
        "_hash",
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
        self._identity = None
        self._hash = None

    # -- basic queries -------------------------------------------------

    def weight(self, s):
        return self.weights[s]

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
        if self._identity is None:
            self._identity = Trace(self, (), 0, 0)
        return self._identity

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

    # sugar; the module-level functions are the primary API
    def __mul__(self, other):
        return multiply(self, other)

    def divides(self, other):
        return divides(self, other)

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


def _block_weight(graph, mask):
    """Weight of a block mask in units of 1/scale."""
    weights = graph._w
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _dependents(dep, mask):
    """Mask of the letters that depend on some letter of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= dep[low.bit_length() - 1]
        mask ^= low
    return out


def _trace(graph, masks):
    """Trace with the given Foata block masks."""
    return Trace(
        graph,
        tuple(masks),
        sum(_block_weight(graph, m) for m in masks),
        sum(m.bit_count() for m in masks),
    )


# -- Foata normal form machinery ------------------------------------------


def _insert(dep, blocks, bit):
    """Drop one letter onto a list of block masks, in place."""
    d = dep[bit.bit_length() - 1]
    k = len(blocks)
    while k and not blocks[k - 1] & d:
        k -= 1
    if k == len(blocks):
        blocks.append(bit)
    else:
        blocks[k] |= bit


def _product(dep, pm, qm):
    """Block masks of p*q: q's letters fall onto p's blocks, block by block.

    Once a block of q lands inside the top block, every later block of q
    depends on the block before it and stacks on top unchanged.
    """
    if not pm:
        return qm
    blocks = list(pm)
    for j, b in enumerate(qm):
        m = b
        while m:
            low = m & -m
            _insert(dep, blocks, low)
            m ^= low
        if not b & ~blocks[-1]:
            return (*blocks, *qm[j + 1 :])
    return tuple(blocks)


def _remove_front(dep, blocks, head):
    """Block masks with the minimal letters `head` taken off the front.

    `head` lies in the first block.  Its letters commute with each other, so
    no dependency chain holds two of them and every other letter falls by at
    most one block: it falls exactly when nothing that stays in the block
    below depends on it.
    """
    stay = blocks[0] & ~head
    out = [stay]
    for b in blocks[1:]:
        fall = b
        if stay:
            m = b
            while m:
                low = m & -m
                if dep[low.bit_length() - 1] & stay:
                    fall ^= low
                m ^= low
        out[-1] |= fall
        stay = b & ~fall
        out.append(stay)
    if not out[-1]:
        out.pop()
    return out


def _quotient(dep, pm, xm):
    """Block masks of p\\x, or None when p does not divide x on the left."""
    rest = xm
    for b in pm:
        if not rest or b & ~rest[0]:
            return None
        rest = _remove_front(dep, rest, b)
    return rest


def _join_rest(dep, pm, qm):
    """Block masks of q' with join(p, q) = p*q', or None if there is no join.

    The blocks of p are consumed front to back.  Letters minimal in what is
    left of q come off its front; every other letter must commute with all
    of what is left of q, or no common upper bound exists.
    """
    rest = qm
    for b in pm:
        head = b & rest[0] if rest else 0
        if head:
            rest = _remove_front(dep, rest, head)
        if b != head:
            reach = _dependents(dep, b & ~head)
            for c in rest:
                if c & reach:
                    return None
    return rest


def _check_same_graph(p, q):
    if p.graph is not q.graph and p.graph != q.graph:
        raise MismatchedGraphError("traces come from different graphs")


# -- operations -------------------------------------------------------------


def normalize(graph, word):
    """Foata normal form of a word; constant on commutation classes."""
    index = graph._index
    dep = graph._dep
    weights = graph._w
    blocks = []
    total = length = 0
    for s in word:
        i = index.get(s)
        if i is None:
            raise GraphError(f"unknown generator {s!r}")
        _insert(dep, blocks, 1 << i)
        total += weights[i]
        length += 1
    return Trace(graph, tuple(blocks), total, length)


def multiply(p, q):
    """Normal form of the concatenation pq; weight and length add."""
    _check_same_graph(p, q)
    if not p._masks:
        return q
    if not q._masks:
        return p
    return Trace(
        p.graph,
        _product(p.graph._dep, p._masks, q._masks),
        p._w + q._w,
        p.length + q.length,
    )


def min_letters(p):
    """Generators dividing p on the left; this is the first Foata block."""
    return set(_letters(p.graph, p._masks[0])) if p._masks else set()


def divides(p, x):
    """True iff x = p*p' for some p' (left divisibility)."""
    _check_same_graph(p, x)
    if p._w > x._w or p.length > x.length:
        return False
    return _quotient(p.graph._dep, p._masks, x._masks) is not None


def left_quotient(p, x):
    """The unique p' with p*p' = x; raises NotADivisorError otherwise."""
    _check_same_graph(p, x)
    rest = _quotient(p.graph._dep, p._masks, x._masks)
    if rest is None:
        raise NotADivisorError(f"{p.serialize()} does not divide {x.serialize()}")
    return Trace(p.graph, tuple(rest), x._w - p._w, x.length - p.length)


def join(p, q):
    """Least common upper bound of p and q, or INFINITY if none exists.

    join(p, q) = p*q' where q' is what is left of q once the letters of p
    are consumed from its front; a letter of p that is not minimal in the
    rest of q must commute with all of it, otherwise no upper bound exists.
    """
    _check_same_graph(p, q)
    rest = _join_rest(p.graph._dep, p._masks, q._masks)
    if rest is None:
        return INFINITY
    return multiply(p, _trace(p.graph, rest))


def wick(p, q):
    """Reorder a starred product: returns (a, b) with p*a = q*b = join(p, q).

    Returns None when join(p, q) = INFINITY (the product collapses to zero).
    """
    _check_same_graph(p, q)
    dep = p.graph._dep
    a = _join_rest(dep, p._masks, q._masks)
    if a is None:
        return None
    b = _join_rest(dep, q._masks, p._masks)
    return _trace(p.graph, a), _trace(q.graph, b)
