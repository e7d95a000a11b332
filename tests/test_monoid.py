"""Core monoid operations against word-level oracles and algebraic laws."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    wick,
)
from conftest import (
    NAMED_GRAPHS,
    bfs_traces_up_to,
    commutation_class,
    divides_by_word_search,
    join_by_search,
    make_free2,
    make_path3,
    random_graph,
)


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


def test_duplicate_edges_collapse():
    g = build_graph("ab", 1, [("a", "b"), ("b", "a")])
    assert len(g.edges) == 1


# -- normal form --------------------------------------------------------------


def test_normalize_spec_examples(path3):
    assert normalize(path3, "ba").key == (("a", "b"),)
    assert normalize(path3, "ca").key == (("c",), ("a",))
    assert normalize(path3, "").is_identity()


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


def test_join_matches_brute_force_small_graphs():
    from conftest import assert_join_matches_oracle

    for make in (make_path3, lambda: random_graph(4, seed=5)):
        g = make()
        pool = [t for t in bfs_traces_up_to(g, 3) if t.length <= 3]
        candidates = bfs_traces_up_to(g, 3)
        assert_join_matches_oracle(g, pool, candidates)


def test_join_translation_identity():
    g = random_graph(5, seed=17, edge_probability=0.5)
    rng = random.Random(23)
    pool = bfs_traces_up_to(g, 3)
    for _ in range(500):
        z, p, q = (rng.choice(pool) for _ in range(3))
        translated = join(multiply(z, p), multiply(z, q))
        plain = join(p, q)
        if plain is INFINITY:
            assert translated is INFINITY
        else:
            assert translated == multiply(z, plain)


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
        pieces = wick(p, q)
        if pieces is None:
            assert join(p, q) is INFINITY
        else:
            a, b = pieces
            bound = join(p, q)
            assert multiply(p, a) == bound
            assert multiply(q, b) == bound


def test_trace_serialization_is_stable(path3):
    # b commutes past c, a is blocked by c: cba = bca with blocks {b,c} then {a}
    assert normalize(path3, "cba").serialize() == "b.c|a"
    assert normalize(path3, "cab").serialize() == "b.c|a"
    assert path3.identity().serialize() == "e"


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
    assert " ".join(t.serialize() for t in enumerate_up_to(g, 2)) == (
        "e a b c a|a a|c b.a b|b b|c c|a c|b c|c"
    )
    twin = normalize(build_graph("cba", 1, [("a", "b")]), "ba")
    assert twin == ab and hash(twin) == hash(ab)
    assert multiply(ab, twin).serialize() == "b.a|b.a"
