"""Core monoid operations against word-level oracles and algebraic laws."""

import ast
import importlib
import itertools
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qlo import (
    GraphError,
    INFINITY,
    MismatchedGraphError,
    NotADivisorError,
    build_graph,
    divides,
    enumerate_up_to,
    join,
    left_quotient,
    min_letters,
    multiply,
    normalize,
    preset_graph,
    wick,
)
import qlo
from qlo import monoid, oracles
from qlo.growth import _clique_weights
from qlo.monoid import _remove_front
from qlo.oracles import (
    join_by_search,
    join_mismatch,
    translation_identity_holds,
    wick_round_trip_holds,
)
from conftest import (
    NAMED_GRAPHS,
    bfs_traces_up_to,
    commutation_class,
    divides_by_word_search,
    make_free2,
    make_path3,
    one_blocker_words,
    random_graph,
    reference_insert,
    reference_join_rest,
    reference_product,
    reference_quotient,
    reference_remove_front,
    weighted_graphs,
)


# -- package surface ------------------------------------------------------------


def test_package_names_are_exported_by_their_submodules():
    """Every name qlo/__init__.py imports from a submodule is in that
    submodule's __all__: the package re-exports only declared public names."""
    tree = ast.parse(Path(qlo.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == {"monoid", "growth", "thermo", "fock", "presets"}
    missing = [
        (node.module, alias.name)
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"qlo.{node.module}").__all__
    ]
    assert missing == []


# -- graph construction -------------------------------------------------------


def test_build_graph_free_and_complete():
    free2 = build_graph("ab", 1, [])
    assert free2.generators == ("a", "b") and not free2.edges
    n2 = build_graph("ab", 1, [("a", "b")])
    assert n2.is_complete()


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        build_graph("aa", 1, [])
    with pytest.raises(GraphError):
        build_graph("ab", 1, [("a", "z")])
    with pytest.raises(GraphError):
        build_graph("ab", 1, [("a", "a")])
    with pytest.raises(GraphError):
        build_graph("ab", {"a": 1, "b": 0}, [])
    with pytest.raises(GraphError):
        build_graph("ab", {"a": 1, "b": -2}, [])
    with pytest.raises(GraphError):
        build_graph([], 1, [])
    with pytest.raises(GraphError):
        build_graph("ab", {"a": 1, "b": 0.5}, [])  # floats are not exact
    with pytest.raises(GraphError, match="invalid weight 'x' for 'a'"):
        build_graph("ab", {"a": "x", "b": 1}, [])
    with pytest.raises(GraphError, match="missing weight for generator 'b'"):
        build_graph("ab", {"a": 1}, [])
    with pytest.raises(GraphError, match="weight given for unknown generator 'z'"):
        build_graph("ab", {"a": 1, "b": 1, "z": 1}, [])


def test_duplicate_edges_collapse():
    g = build_graph("ab", 1, [("a", "b"), ("b", "a")])
    assert len(g.edges) == 1


# -- normal form --------------------------------------------------------------


def test_normalize_spec_examples(path3):
    assert normalize(path3, "ba").key == (("a", "b"),)
    assert normalize(path3, "ca").key == (("c",), ("a",))
    assert normalize(path3, "").is_identity()
    # the graph keeps no identity trace, which would make a graph<->trace cycle
    assert path3.identity() == normalize(path3, "") and path3.identity() is not path3.identity()


def test_normalize_rejects_unknown_letter(path3):
    with pytest.raises(GraphError):
        normalize(path3, "ax")


def test_normalize_constant_on_commutation_classes(path3):
    for word in ["abc", "cab", "bca", "aabbcc", "cbabca"]:
        expected = normalize(path3, word)
        for other in commutation_class(path3, word):
            assert normalize(path3, other) == expected


def test_foata_blocks_are_cliques_and_anchored():
    g = random_graph(5, seed=11)
    rng = random.Random(5)
    for _ in range(200):
        word = [rng.choice(g.generators) for _ in range(rng.randrange(9))]
        t = normalize(g, word)
        for block in t.blocks:
            for a, b in itertools.combinations(block, 2):
                assert g.commutes(a, b)
        for earlier, later in zip(t.blocks, t.blocks[1:]):
            for s in later:
                assert any(r == s or not g.commutes(r, s) for r in earlier)
        assert t.weight == sum((g.weights[s] for s in word), Fraction(0))
        assert t.length == len(word)


GRAPH_POOL = [
    make_path3(),
    make_free2(),
    build_graph("ab", 1, [("a", "b")]),
    random_graph(4, seed=3),
    random_graph(5, seed=8, edge_probability=0.6),
]


@st.composite
def graph_and_word(draw, max_len=8):
    graph = draw(st.sampled_from(GRAPH_POOL))
    word = draw(
        st.lists(st.sampled_from(graph.generators), max_size=max_len)
    )
    return graph, word


@settings(deadline=None)
@given(graph_and_word())
def test_normalize_idempotent_and_swap_invariant(case):
    graph, word = case
    t = normalize(graph, word)
    flat = [s for part in t.key for s in part]
    assert normalize(graph, flat) == t
    # one random legal adjacent swap leaves the normal form unchanged
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a != b and graph.commutes(a, b):
            swapped = word[:i] + [b, a] + word[i + 2 :]
            assert normalize(graph, swapped) == t
            break


@st.composite
def graph_and_words(draw, count, max_len=5):
    graph = draw(st.sampled_from(GRAPH_POOL))
    words = [
        draw(st.lists(st.sampled_from(graph.generators), max_size=max_len))
        for _ in range(count)
    ]
    return (graph, *words)


@settings(deadline=None)
@given(graph_and_words(3))
def test_multiply_associative_and_additive(case):
    graph, u, v, w = case
    p, q, r = (normalize(graph, x) for x in (u, v, w))
    left = multiply(multiply(p, q), r)
    right = multiply(p, multiply(q, r))
    assert left == right
    assert left.weight == p.weight + q.weight + r.weight
    assert left.length == p.length + q.length + r.length


@st.composite
def weighted_graph_and_words(draw, lengths):
    graph = draw(weighted_graphs())
    words = [
        draw(st.lists(st.sampled_from(graph.generators), max_size=n)) for n in lengths
    ]
    return (graph, *words)


@settings(deadline=None, max_examples=40)
@given(weighted_graph_and_words([6]))
def test_normalize_separates_commutation_classes(case):
    # of all rearrangements of a word, exactly its commutation class
    # normalizes to its normal form, whose letters spell a word of the class
    graph, word = case
    t = normalize(graph, word)
    cls = commutation_class(graph, word)
    assert tuple(s for part in t.key for s in part) in cls
    assert t.weight == sum((graph.weights[s] for s in word), Fraction(0))
    for other in set(itertools.permutations(word)):
        assert (normalize(graph, other) == t) == (other in cls)


@settings(deadline=None, max_examples=150)
@given(weighted_graph_and_words([6, 6]))
def test_multiply_spells_the_concatenation(case):
    graph, u, v = case
    product = multiply(normalize(graph, u), normalize(graph, v))
    assert product == normalize(graph, u + v)
    assert product.weight == sum((graph.weights[s] for s in u + v), Fraction(0))
    if len(u + v) <= 6:  # the class of a longer word can be too large to list
        flat = tuple(s for part in product.key for s in part)
        assert flat in commutation_class(graph, u + v)


@settings(deadline=None, max_examples=120)
@given(st.one_of(weighted_graph_and_words([3, 3, 2]), one_blocker_words()), st.booleans())
def test_divides_matches_word_search_weighted(case, extend):
    # x is p times a word half of the time, so that both answers occur; the
    # second strategy builds x around a letter that one letter below blocks
    graph, u, v, w = case
    p = normalize(graph, u)
    x = normalize(graph, u + v if extend else v + w)
    assert divides(p, x) == divides_by_word_search(graph, p, x)


def test_multiply_spec_examples(free2, abelian2, path3):
    e = path3.identity()
    p = normalize(path3, "abc")
    assert multiply(e, p) == p and multiply(p, e) == p
    assert multiply(free2.gen("a"), free2.gen("b")).key == (("a",), ("b",))
    assert multiply(abelian2.gen("a"), abelian2.gen("b")).key == (("a", "b"),)


def test_mismatched_graphs_raise(free2, path3):
    with pytest.raises(MismatchedGraphError):
        multiply(free2.gen("a"), path3.gen("a"))
    with pytest.raises(MismatchedGraphError):
        divides(free2.gen("a"), path3.gen("a"))
    with pytest.raises(MismatchedGraphError):
        join(free2.gen("a"), path3.gen("a"))
    with pytest.raises(MismatchedGraphError):
        left_quotient(free2.gen("a"), path3.gen("a"))
    with pytest.raises(MismatchedGraphError):
        wick(free2.gen("a"), path3.gen("a"))


# -- divisibility and quotients ------------------------------------------------


def test_divides_spec_examples(path3):
    ab = normalize(path3, "ab")
    assert divides(path3.gen("a"), ab)
    assert not divides(path3.gen("c"), ab)
    assert divides(path3.identity(), normalize(path3, "cabcab"))


def test_divides_matches_word_search():
    for make in (make_path3, make_free2, lambda: random_graph(4, seed=13)):
        g = make()
        pool = bfs_traces_up_to(g, 3)
        for p, x in itertools.product(pool, repeat=2):
            assert divides(p, x) == divides_by_word_search(g, p, x), (p, x)


def test_left_quotient_round_trip():
    g = random_graph(5, seed=21)
    rng = random.Random(1)
    pool = bfs_traces_up_to(g, 3)
    for _ in range(300):
        p, q = rng.choice(pool), rng.choice(pool)
        x = multiply(p, q)
        assert left_quotient(p, x) == q


def test_left_quotient_spec_examples(abelian2, free2):
    p = normalize(free2, "ab")
    assert left_quotient(p, p).is_identity()
    assert left_quotient(free2.gen("a"), normalize(free2, "ab")) == free2.gen("b")
    assert left_quotient(abelian2.gen("b"), normalize(abelian2, "ab")) == abelian2.gen("a")
    with pytest.raises(NotADivisorError):
        left_quotient(free2.gen("a"), free2.gen("b"))


def test_min_letters(path3):
    assert min_letters(path3.identity()) == set()
    assert min_letters(normalize(path3, "ab")) == {"a", "b"}
    assert min_letters(normalize(path3, "ca")) == {"c"}
    # agrees with the divides-based definition on random graphs
    g = random_graph(5, seed=2)
    for t in bfs_traces_up_to(g, 3):
        expected = {s for s in g.generators if divides(g.gen(s), t)}
        assert min_letters(t) == expected


# -- joins and Wick ordering ----------------------------------------------------


def test_join_spec_examples(path3):
    a, b, c = (path3.gen(s) for s in "abc")
    assert join(a, b) == normalize(path3, "ab")
    assert join(a, c) is INFINITY
    assert join(a, a) == a
    q = normalize(path3, "cba")
    assert join(path3.identity(), q) == q


@st.composite
def random_graph_and_traces(draw, count=8, max_len=6):
    names = "abcd"[: draw(st.integers(3, 4))]
    edges = [e for e in itertools.combinations(names, 2) if draw(st.booleans())]
    graph = build_graph(names, 1, edges)
    words = st.lists(st.sampled_from(names), max_size=max_len)
    return [normalize(graph, draw(words)) for _ in range(count)]


@settings(deadline=None, max_examples=30)
@given(random_graph_and_traces())
def test_join_matches_brute_force_small_graphs(traces):
    # words up to length 6 put letters that block a join in later Foata
    # blocks of q, which traces of length <= 3 never do; the search is the
    # dear oracle, so it sees the first three traces and wick all eight
    searched = traces[:3]
    candidates = bfs_traces_up_to(traces[0].graph, max(t.weight for t in searched))
    assert join_mismatch(itertools.product(searched, repeat=2), candidates) is None
    for p, q in itertools.product(traces, repeat=2):
        assert wick_round_trip_holds(p, q)


@settings(deadline=None, max_examples=40)
@given(weighted_graphs(min_letters=1, max_letters=5), st.data())
def test_join_equals_p_times_its_left_quotient(graph, data):
    """join(p, q) has the masks, scaled weight and length of p*(p\\join(p, q)),
    and is p itself when q divides p."""
    words = st.lists(st.sampled_from(graph.generators), max_size=6)
    for _ in range(12):
        p, q = (normalize(graph, data.draw(words)) for _ in range(2))
        bound = join(p, q)
        if bound is INFINITY:
            assert wick(p, q) is None
            continue
        want = multiply(p, left_quotient(p, bound))
        assert (bound._masks, bound._w, bound.length) == (want._masks, want._w, want.length)
        assert (bound.weight, bound.key) == (want.weight, want.key)
        if divides(q, p):
            assert bound is p
        assert join(p, multiply(p, q)) == multiply(p, q)


def test_join_by_search_examples(path3):
    a, b, c = (path3.gen(s) for s in "abc")
    candidates = bfs_traces_up_to(path3, 2)
    assert join_by_search(a, b, candidates) == normalize(path3, "ab")
    assert join_by_search(a, c, candidates) is None
    assert join_by_search(normalize(path3, "ca"), b, candidates) == normalize(path3, "cab")


@pytest.mark.parametrize(
    "fake_divides, message",
    [
        (lambda x, u: u != x.graph.gen("a"), "not unique"),
        (lambda x, u: x == x.graph.gen("b"), "does not divide"),
    ],
)
def test_join_by_search_rejects_a_non_lattice_order(path3, monkeypatch, fake_divides, message):
    monkeypatch.setattr(oracles, "divides", fake_divides)
    with pytest.raises(AssertionError, match=message):
        join_by_search(path3.gen("a"), path3.gen("b"), bfs_traces_up_to(path3, 1))


def test_join_translation_identity():
    g = random_graph(5, seed=17, edge_probability=0.5)
    rng = random.Random(23)
    pool = bfs_traces_up_to(g, 3)
    for _ in range(500):
        triple = tuple(rng.choice(pool) for _ in range(3))
        assert translation_identity_holds(*triple), triple


def test_divides_iff_join_is_the_larger():
    g = random_graph(4, seed=29)
    pool = bfs_traces_up_to(g, 3)
    for p, x in itertools.product(pool, repeat=2):
        assert divides(p, x) == (join(p, x) == x)


def test_wick_spec_examples(path3, abelian2):
    assert wick(abelian2.gen("a"), abelian2.gen("b")) == (
        abelian2.gen("b"),
        abelian2.gen("a"),
    )
    assert wick(path3.gen("a"), path3.gen("c")) is None
    p = normalize(path3, "abc")
    assert wick(p, p) == (path3.identity(), path3.identity())


def test_wick_round_trip():
    g = random_graph(5, seed=31, edge_probability=0.6)
    rng = random.Random(7)
    pool = bfs_traces_up_to(g, 3)
    for _ in range(400):
        p, q = rng.choice(pool), rng.choice(pool)
        assert wick_round_trip_holds(p, q), (p, q)


def test_wick_round_trip_rejects_wrong_pieces(abelian2, monkeypatch):
    a, b = abelian2.gen("a"), abelian2.gen("b")
    assert wick_round_trip_holds(a, b)
    monkeypatch.setattr(oracles, "wick", lambda p, q: wick(p, q)[::-1])
    assert not wick_round_trip_holds(a, b)
    monkeypatch.setattr(oracles, "wick", lambda p, q: None)
    assert not wick_round_trip_holds(a, b)


def test_trace_serialization_is_stable(path3):
    # b commutes past c, a is blocked by c: cba = bca with blocks {b,c} then {a}
    assert normalize(path3, "cba").serialize() == "b.c|a"
    assert normalize(path3, "cab").serialize() == "b.c|a"
    assert path3.identity().serialize() == ""  # the empty word
    cycle5 = preset_graph("cycle:5")  # a generator named e
    assert cycle5.identity().serialize() != cycle5.gen("e").serialize() == "e"


def test_weight_and_length_caches_consistent():
    g = NAMED_GRAPHS["weighted_abelian2"]()
    t = normalize(g, "abab")
    assert t.weight == Fraction(5)
    assert t.length == 4


def test_generators_out_of_alphabetical_order():
    # block letters, serialization and enumeration follow the graph's
    # generator order, not the alphabet
    g = build_graph("cba", 1, [("a", "b")])
    ab = normalize(g, "ab")
    assert ab.key == (("b", "a"),)
    assert ab.serialize() == "b.a"
    assert [t.serialize() for t in enumerate_up_to(g, 2)] == [
        "", *"a b c a|a a|c b.a b|b b|c c|a c|b c|c".split()
    ]
    twin = normalize(build_graph("cba", 1, [("a", "b")]), "ba")
    assert twin == ab and hash(twin) == hash(ab)
    assert multiply(ab, twin).serialize() == "b.a|b.a"


def test_trace_hashes_spread_over_letters_61_bits_apart():
    # an int hashes to itself mod 2**61 - 1, so bare masks give the 90,000
    # two-letter traces of free:300 only 61**2 = 3,721 hashes
    g = preset_graph("free:300")
    letters = [g.gen(s) for s in g.generators]
    assert len({hash(multiply(s, t)) for s in letters for t in letters}) >= 89_000


# -- block kernels against letter-by-letter references --------------------------


@st.composite
def wide_graph_and_words(draw):
    """Up to 12 generators; p = u.v and q = u.w share the prefix u half of
    the time, so that divisors and joins occur."""
    graph = draw(weighted_graphs(min_letters=1, max_letters=12))
    letters = st.lists(st.sampled_from(graph.generators), max_size=7)
    u, v, w = draw(letters), draw(letters), draw(letters)
    return (graph, u + v, u + w) if draw(st.booleans()) else (graph, v, w)


def _letters_of(graph, masks):
    return [s for m in masks for i, s in enumerate(graph.generators) if m >> i & 1]


def _weight_and_length(t):
    letters = _letters_of(t.graph, t._masks)
    return sum((t.graph.weights[s] for s in letters), Fraction(0)), len(letters)


# blocks {a, b} {c} {d}, c depending on b alone: taking a off the front,
# {c} keeps its letters and the walk stops there; taking b, {c} falls whole
# and {d} falls by one after it
_BOTH_EXITS = (build_graph("abcd", 1, [("a", "b"), ("a", "c")]), list("abcd"), list("abcd"))


@settings(deadline=None, max_examples=300)
@given(wide_graph_and_words())
@example(_BOTH_EXITS)
def test_block_kernels_match_letter_by_letter_references(case):
    graph, u, v = case
    dep = graph._dep
    p, q = normalize(graph, u), normalize(graph, v)
    for word, t in ((u, p), (v, q)):
        blocks = []
        for s in word:
            reference_insert(dep, blocks, 1 << graph.generators.index(s))
        assert t._masks == tuple(blocks)
    pq = multiply(p, q)
    assert pq._masks == reference_product(dep, p._masks, q._masks)
    reach = graph._dependents
    for t in (p, q, pq):
        if t._masks:
            first = t._masks[0]
            low = first & -first
            for head in {first, low, first ^ low} - {0}:  # the whole block and parts of it
                want = reference_remove_front(dep, t._masks, head)
                assert tuple(_remove_front(reach, t._masks, head)) == tuple(want)
    if p._masks:
        # q's letters that depend on p's top block: their trace starts inside
        # its dependents, so p times it is the concatenation, with nothing dropped
        top = reach[p._masks[-1]]
        stacked = normalize(graph, [s for s in v if top >> graph._index[s] & 1])
        want = (*p._masks, *stacked._masks)
        assert reference_product(dep, p._masks, stacked._masks) == want
        with mock.patch.object(monoid, "_drop", side_effect=AssertionError("a block dropped")):
            assert multiply(p, stacked)._masks == want
    made = [pq]
    for x, y in ((p, pq), (p, q), (q, p)):
        rest = reference_quotient(dep, x._masks, y._masks)
        assert divides(x, y) == (rest is not None)
        if rest is None:
            with pytest.raises(NotADivisorError):
                left_quotient(x, y)
        else:
            made.append(left_quotient(x, y))
            assert made[-1]._masks == rest
    rest = reference_join_rest(dep, p._masks, q._masks)
    if rest is None:
        assert join(p, q) is INFINITY and wick(p, q) is None
    else:
        bound, (a, b) = join(p, q), wick(p, q)
        assert bound._masks == reference_product(dep, p._masks, rest)
        assert a._masks == rest
        assert b._masks == reference_join_rest(dep, q._masks, p._masks)
        made += [bound, a, b]
    for t in made:
        assert (t.weight, t.length) == _weight_and_length(t)


@settings(deadline=None, max_examples=60)
@given(wide_graph_and_words())
def test_clique_tables_hold_their_uncached_values(case):
    graph, u, v = case
    p, q = normalize(graph, u), normalize(graph, v)
    multiply(p, q), divides(p, q), wick(p, q), wick(q, p)
    for mask, w in _clique_weights(graph).items():  # clique_polynomial's table
        assert graph._block_weight[mask] == w
    assert graph._block_weight
    for mask, reach in graph._dependents.items():
        letters = _letters_of(graph, [mask])
        assert all(graph.commutes(a, b) for a, b in itertools.combinations(letters, 2))
        gens = graph.generators
        dependents = [r for r in gens if any(r == s or not graph.commutes(r, s) for s in letters)]
        assert reach == sum(1 << gens.index(r) for r in dependents)
    for mask, w in graph._block_weight.items():
        letters = _letters_of(graph, [mask])
        assert all(graph.commutes(a, b) for a, b in itertools.combinations(letters, 2))
        assert Fraction(w, graph.scale) == sum((graph.weights[s] for s in letters), Fraction(0))
