"""Enumeration, growth tables and clique-polynomial inversion."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import qlo.growth

from qlo import (
    ComputationError,
    GrowthTable,
    ThermoContext,
    WeightedPolynomial,
    build_graph,
    build_rep,
    clique_polynomial,
    enumerate_up_to,
    growth_table,
    invert_series,
    is_lattice_ordered,
    left_quotient,
    min_letters,
    preset_graph,
    verify_inversion,
)
from conftest import (
    NAMED_GRAPHS,
    bfs_traces_up_to,
    cliques_by_subset_scan,
    largest_cutoff,
    letters_after,
    make_abelian2,
    make_free2,
    make_free3,
    make_path3,
    make_weighted_abelian2,
    random_graph,
    reference_clique_terms,
    reference_inverse_terms,
    successors_by_pair_scan,
    weighted_graphs,
)


# -- enumeration ---------------------------------------------------------------


def test_enumerate_spec_counts():
    assert len(enumerate_up_to(make_free2(), 2)) == 7
    assert len(enumerate_up_to(make_path3(), 2)) == 11
    only_identity = enumerate_up_to(make_free3(), 0)
    assert [t.serialize() for t in only_identity] == [""]


def test_enumerate_matches_bfs_oracle():
    cases = [
        (make_free2(), 6),
        (make_path3(), 5),
        (make_abelian2(), 8),
        (make_weighted_abelian2(), 6),
        (random_graph(5, seed=41), 4),
    ]
    for g, cutoff in cases:
        mine = enumerate_up_to(g, cutoff)
        oracle = bfs_traces_up_to(g, cutoff)
        assert [t.key for t in mine] == [t.key for t in oracle]


def test_enumerate_no_duplicates_and_downward_closed():
    g = random_graph(5, seed=43, edge_probability=0.4)
    elements = enumerate_up_to(g, 4)
    keys = {t.key for t in elements}
    assert len(keys) == len(elements)
    for t in elements:
        for s in min_letters(t):
            assert left_quotient(g.gen(s), t).key in keys


def test_enumerate_sorted_by_weight_then_normal_form():
    g = make_weighted_abelian2()
    elements = enumerate_up_to(g, 4)
    assert [t.sort_key() for t in elements] == sorted(
        t.sort_key() for t in elements
    )


@pytest.mark.parametrize(
    "cutoff", [-1, Fraction(-1, 1000)], ids=["minus_one", "minus_a_thousandth"]
)
@pytest.mark.parametrize(
    "count",
    [enumerate_up_to, growth_table, lambda g, cutoff: invert_series(clique_polynomial(g), cutoff)],
    ids=["enumerate_up_to", "growth_table", "invert_series"],
)
def test_counts_reject_negative_cutoff(count, cutoff):
    with pytest.raises(ValueError, match="cutoff must be nonnegative"):
        count(make_free2(), cutoff)


# -- growth tables ---------------------------------------------------------------


def test_growth_table_closed_forms():
    free2 = growth_table(make_free2(), 10)
    assert [n for _, n in free2.rows] == [2**k for k in range(11)]
    ab2 = growth_table(make_abelian2(), 10)
    assert [n for _, n in ab2.rows] == [k + 1 for k in range(11)]
    path3 = growth_table(make_path3(), 10)
    assert [n for _, n in path3.rows] == [2 ** (k + 1) - 1 for k in range(11)]


def test_growth_table_matches_enumeration():
    cases = [
        (NAMED_GRAPHS["free2"](), 10),
        (NAMED_GRAPHS["free3"](), 8),
        (NAMED_GRAPHS["abelian2"](), 10),
        (NAMED_GRAPHS["abelian3"](), 10),
        (NAMED_GRAPHS["path3"](), 10),
        (NAMED_GRAPHS["path4"](), 8),
        (NAMED_GRAPHS["cycle5"](), 6),
        (NAMED_GRAPHS["weighted_abelian2"](), 8),
        (random_graph(6, seed=47, edge_probability=0.5), 5),
    ]
    for g, cutoff in cases:
        counted = {}
        for t in enumerate_up_to(g, cutoff):
            counted[t.weight] = counted.get(t.weight, 0) + 1
        assert growth_table(g, cutoff).counts() == counted


def test_growth_table_invariants_enforced():
    with pytest.raises(ValueError):
        GrowthTable([(Fraction(1), 1)], 2)  # missing identity row
    with pytest.raises(ValueError):
        GrowthTable([(Fraction(0), 1), (Fraction(1), 0)], 2)  # zero count
    with pytest.raises(ValueError):
        GrowthTable([(Fraction(0), 1), (Fraction(3), 1)], 2)  # above cutoff


def test_inexact_coefficients_and_counts_are_refused():
    for terms in ({0: 1, 1: Fraction(1, 2)}, {1: 2.7}):
        with pytest.raises(ValueError, match="coefficient .* is not an integer"):
            WeightedPolynomial(terms)
    with pytest.raises(ValueError, match="count 2.9 is not an integer"):
        GrowthTable([(0, 1), (1, 2.9)], 2)
    # whole values of any exact or float type are kept, as ints
    poly = WeightedPolynomial({0: 1.0, 1: Fraction(-4, 2)})
    assert poly.terms == {0: 1, 1: -2} and all(type(c) is int for c in poly.terms.values())
    rows = GrowthTable([(0, 1), (1, 2.0)], 2).rows
    assert rows == [(0, 1), (1, 2)] and type(rows[1][1]) is int


def test_growth_table_rational_levels():
    table = growth_table(make_weighted_abelian2(), 4)
    assert table.rows == [
        (Fraction(0), 1),
        (Fraction(1), 1),
        (Fraction(3, 2), 1),
        (Fraction(2), 1),
        (Fraction(5, 2), 1),
        (Fraction(3), 2),
        (Fraction(7, 2), 1),
        (Fraction(4), 2),
    ]


def _table_view(table):
    return table.rows, table.cutoff, len(table), table.max_weight, table.total()


def test_one_graph_runs_the_growth_count_once(monkeypatch):
    real, runs = qlo.growth._count, []
    monkeypatch.setattr(qlo.growth, "_count", lambda g, top: runs.append(top) or real(g, top))
    graph = make_path3()
    table = growth_table(graph, 6)
    assert verify_inversion(graph, 6).match
    ctx = ThermoContext(graph)
    assert _table_view(ctx.growth(6)) == _table_view(table)
    assert build_rep(graph, 5).dim == ctx.growth(5).total() == 2**7 - 8
    assert runs == [6]


@pytest.mark.parametrize("make", [make_path3, make_weighted_abelian2, make_free3])
def test_growth_table_truncates_the_largest_count(make):
    graph = make()
    growth_table(graph, 9)
    # 1/2 lies below every weight; 5/4 and 13/4 lie between levels
    for cutoff in (0, Fraction(1, 2), 1, Fraction(5, 4), Fraction(3, 2), Fraction(13, 4), 9):
        got = growth_table(graph, cutoff)
        assert _table_view(got) == _table_view(growth_table(make(), cutoff))
        reference = reference_inverse_terms(reference_clique_terms(graph), cutoff)
        assert got.rows == sorted(reference.items())


def test_growth_table_counts_again_above_the_largest_count(monkeypatch):
    real, runs = qlo.growth._count, []
    monkeypatch.setattr(qlo.growth, "_count", lambda g, top: runs.append(top) or real(g, top))
    graph = make_weighted_abelian2()  # scale 2: cutoff c is level floor(2c)
    cutoffs = (3, Fraction(7, 2), Fraction(13, 4), 5, 2)
    tables = [growth_table(graph, cutoff) for cutoff in cutoffs]
    assert runs == [6, 7, 10]
    for cutoff, table in zip(cutoffs, tables):
        assert _table_view(table) == _table_view(growth_table(make_weighted_abelian2(), cutoff))


def _basis_view(traces):
    return [(t._masks, t.weight, t.length, t.serialize()) for t in traces]


@pytest.mark.parametrize("make", [make_path3, make_weighted_abelian2, make_free3])
def test_enumerate_up_to_serves_smaller_cutoffs_from_the_largest(make):
    graph = make()
    enumerate_up_to(graph, 9)
    for cutoff in (*range(10), Fraction(1, 4)):  # 1/4 lies below every weight
        got = enumerate_up_to(graph, cutoff)
        assert _basis_view(got) == _basis_view(enumerate_up_to(make(), cutoff))
        assert all(t.graph is graph for t in got)


@settings(deadline=None, max_examples=60)
@given(
    weighted_graphs(min_letters=1, max_letters=12),
    st.integers(0, 8),
)
def test_traces_match_bfs_oracle(graph, halves):
    """_traces, the one place rows become traces, against BFS over right
    multiplication: the same masks, weights and lengths in the same order, on
    a fresh graph and on one that first enumerated a larger cutoff."""
    cutoff = largest_cutoff(graph, Fraction(halves, 2), 300)
    oracle = [(t._masks, t._w, t.length) for t in bfs_traces_up_to(graph, cutoff)]
    longer = build_graph(graph.generators, graph.weights, graph.edges)
    enumerate_up_to(longer, largest_cutoff(longer, cutoff + 2, 3000))
    for g in (graph, longer):
        got = qlo.growth._traces(g, *qlo.growth._basis(g, cutoff))
        assert [(t._masks, t._w, t.length) for t in got] == oracle
        assert all(t.graph is g for t in got)


def test_enumerate_up_to_enumerates_again_above_the_largest(monkeypatch):
    real, runs = qlo.growth._enumerate, []
    monkeypatch.setattr(qlo.growth, "_enumerate", lambda g, top: runs.append(top) or real(g, top))
    graph = make_weighted_abelian2()  # scale 2: cutoff c is level floor(2c)
    cutoffs = (3, Fraction(7, 2), Fraction(13, 4), 5, 2)
    bases = [enumerate_up_to(graph, cutoff) for cutoff in cutoffs]
    assert runs == [6, 7, 10]
    for cutoff, basis in zip(cutoffs, bases):
        assert _basis_view(basis) == _basis_view(enumerate_up_to(make_weighted_abelian2(), cutoff))


def test_enumerate_up_to_returns_a_fresh_list():
    graph = make_path3()
    first = enumerate_up_to(graph, 4)
    want = _basis_view(first)
    first.reverse()
    first.append(graph.gen("a"))
    assert _basis_view(enumerate_up_to(graph, 4)) == want
    smaller = enumerate_up_to(graph, 2)
    smaller.clear()
    assert _basis_view(enumerate_up_to(graph, 4)) == want
    assert enumerate_up_to(graph, 4) is not enumerate_up_to(graph, 4)


def test_build_rep_then_enumerate_up_to_enumerates_once(monkeypatch):
    real, runs = qlo.growth._enumerate, []
    monkeypatch.setattr(qlo.growth, "_enumerate", lambda g, top: runs.append(top) or real(g, top))
    graph = make_path3()
    rep = build_rep(graph, 5)
    pool = enumerate_up_to(graph, 5)
    assert runs == [5]
    assert pool == rep.basis and pool is not rep.basis


# -- clique polynomial -------------------------------------------------------------


def test_clique_polynomial_known_cases():
    assert clique_polynomial(make_free2()).terms == {
        Fraction(0): 1,
        Fraction(1): -2,
    }
    assert clique_polynomial(make_abelian2()).terms == {
        Fraction(0): 1,
        Fraction(1): -2,
        Fraction(2): 1,
    }
    assert clique_polynomial(make_path3()).terms == {
        Fraction(0): 1,
        Fraction(1): -3,
        Fraction(2): 2,
    }


def test_clique_polynomial_matches_subset_scan():
    for seed in (1, 2, 3):
        g = random_graph(6, seed=seed, edge_probability=0.5)
        assert clique_polynomial(g).terms == reference_clique_terms(g)


# a, b, c commute pairwise: Q's t^(3/4) term cancels (b against {a, c}), its t^(1/4) term does not
@example(build_graph("abc", {"a": Fraction(1, 4), "b": Fraction(3, 4), "c": Fraction(1, 2)},
                     [("a", "b"), ("a", "c"), ("b", "c")]))
@settings(deadline=None, max_examples=200)
@given(weighted_graphs(min_letters=1, max_letters=6, denominators=(1, 2, 3, 4, 5, 6, 8, 9, 12)))
def test_clique_polynomial_lies_on_the_graph_lattice(graph):
    """Q.scale is the graph's scale, so the Gibbs tails of ``thermo`` read Q's
    coefficients and the growth counts on one lattice: for each prime power
    exactly dividing the scale, no clique of two or more letters weighs as
    much as a lightest letter whose denominator holds it."""
    assert clique_polynomial(graph).scale == graph.scale


def test_clique_polynomial_reads_the_walk_weights():
    """The walk's weights serve the polynomial; the per-mask weight table of
    L1 is not filled once per clique (65,535 cliques on abelian:16)."""
    from math import comb

    g = preset_graph("abelian:16")
    assert clique_polynomial(g).terms == {
        Fraction(k): (-1) ** k * comb(16, k) for k in range(17)
    }
    assert len(g._block_weight) <= len(g.generators)


def test_complete_graph_polynomial_factors():
    # product of (1 - t^{w(s)}) over generators, checked exactly and at points
    g = make_weighted_abelian2()
    poly = clique_polynomial(g)
    product = WeightedPolynomial.one()
    for s in g.generators:
        product = product * WeightedPolynomial(
            {Fraction(0): 1, g.weights[s]: -1}
        )
    assert poly == product
    for k in range(1, 65):
        t = k / 65.0
        assert abs(poly.evaluate(t) - product.evaluate(t)) <= 1e-12


def test_unit_complete_graph_is_binomial_power():
    from math import comb

    g = NAMED_GRAPHS["abelian3"]()
    assert clique_polynomial(g).terms == {
        Fraction(k): (-1) ** k * comb(3, k) for k in range(4)
    }


fraction_terms = st.dictionaries(
    st.builds(Fraction, st.integers(0, 12), st.sampled_from((1, 2, 3, 4, 6))),
    st.integers(-3, 3),
    max_size=5,
)


@settings(deadline=None, max_examples=100)
@given(fraction_terms, fraction_terms, st.integers(-2, 14))
def test_polynomial_arithmetic_matches_fraction_dicts(a, b, k):
    # reference: sums and products of {exponent: coefficient} dicts
    p, q = WeightedPolynomial(a), WeightedPolynomial(b)
    cutoff = Fraction(k, 4)
    total, product = dict(a), {}
    for e, c in b.items():
        total[e] = total.get(e, 0) + c
    for (e1, c1), (e2, c2) in itertools.product(a.items(), b.items()):
        product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    cases = [
        (p, a),
        (p + q, total),
        (p * q, product),
        (3 * p, {e: 3 * c for e, c in a.items()}),
        (p.truncate(cutoff), {e: c for e, c in a.items() if e <= cutoff}),
    ]
    for got, want in cases:
        want = {e: c for e, c in want.items() if c}
        assert got.terms == want
        assert got == WeightedPolynomial(want)
        assert got.scale == math.lcm(*(e.denominator for e in want))
        assert got.degree == max(want, default=Fraction(0))
        assert got.constant_term == want.get(Fraction(0), 0)
        exact = sum(c * 0.7 ** float(e) for e, c in want.items())
        assert math.isclose(got.evaluate(0.7), exact, rel_tol=1e-12, abs_tol=1e-12)


# -- clique walks and their limits ---------------------------------------------------


def _scaled_weight(graph, clique):
    return sum(graph.weights[s] for s in clique) * graph.scale


def _listed_by_walks(graph, top):
    """How many cliques the walks of one listing yield: the nonempty cliques of
    scaled weight <= top, then for each distinct set of letters that may follow
    one of them, those of its cliques inside that set."""
    cliques = [c for c in cliques_by_subset_scan(graph) if c and _scaled_weight(graph, c) <= top]
    reaches = {letters_after(graph, c) for c in cliques}
    return len(cliques) + sum(c <= reach for reach in reaches for c in cliques)


@settings(deadline=None, max_examples=60)
@given(weighted_graphs(min_letters=1, max_letters=6), st.data())
def test_clique_walks_match_subset_and_pair_scans(graph, data):
    gens = graph.generators
    n = len(gens)
    lightest = min(_scaled_weight(graph, [s]) for s in gens)
    total = int(_scaled_weight(graph, gens))
    # from below the lightest letter to past every clique
    for top in sorted({0, lightest - 1, lightest, data.draw(st.integers(0, total)), total}):
        cliques, weights, after = qlo.growth._lists(graph, top)
        letter_sets = [frozenset(s for i, s in enumerate(gens) if b >> i & 1) for b in cliques]
        light = [c for c in cliques_by_subset_scan(graph) if c and _scaled_weight(graph, c) <= top]
        assert sorted(letter_sets, key=sorted) == sorted(light, key=sorted)
        assert weights == [_scaled_weight(graph, c) for c in letter_sets]
        # depth first: each clique right before its extensions by higher letters
        assert cliques == sorted(cliques, key=lambda b: [i for i in range(n) if b >> i & 1])
        assert after == successors_by_pair_scan(graph, letter_sets)
        mask = data.draw(st.integers(0, (1 << n) - 1))
        walked = list(qlo.growth._walk(graph, mask, top, itertools.count(1)))
        assert walked == [(b, w) for b, w in zip(cliques, weights) if not b & ~mask]


@pytest.mark.parametrize(
    "make, cutoff",
    [(make_free2, 2), (make_path3, 1), (make_path3, 3), (make_weighted_abelian2, 2)],
)
def test_clique_limit_counts_one_walk_per_dependents_mask(monkeypatch, make, cutoff):
    listed = _listed_by_walks(make(), cutoff * make().scale)
    for count in (growth_table, enumerate_up_to):
        monkeypatch.setattr(qlo.growth, "MAX_CLIQUES", listed)
        count(make(), cutoff)
        monkeypatch.setattr(qlo.growth, "MAX_CLIQUES", listed - 1)
        with pytest.raises(ComputationError, match=f"more cliques than the limit {listed - 1}$"):
            count(make(), cutoff)


def test_clique_limit_on_the_clique_table(monkeypatch):
    cliques = len(cliques_by_subset_scan(make_path3())) - 1
    monkeypatch.setattr(qlo.growth, "MAX_CLIQUES", cliques)
    assert clique_polynomial(make_path3()).terms == reference_clique_terms(make_path3())
    monkeypatch.setattr(qlo.growth, "MAX_CLIQUES", cliques - 1)
    with pytest.raises(ComputationError, match=f"more cliques than the limit {cliques - 1}$"):
        clique_polynomial(make_path3())


def test_degree_limit_refuses_before_allocating():
    cap = qlo.growth.MAX_DEGREE
    at = build_graph("ab", {"a": 1, "b": cap}, [])
    assert clique_polynomial(at).terms == {0: 1, 1: -1, cap: -1}
    past = build_graph("ab", {"a": Fraction(1, 2), "b": Fraction(cap + 1, 2)}, [])
    with pytest.raises(ComputationError, match=f"degree {cap + 1} exceeds the limit {cap}$"):
        clique_polynomial(past)
    # a list of 10**18 coefficients could not be made, so this one never was
    far = build_graph("ab", {"a": 1, "b": 10**18}, [])
    with pytest.raises(ComputationError, match=f"degree {10**18} exceeds"):
        clique_polynomial(far)
    # a count walks only the cliques under its cutoff, so the heavy letter costs nothing
    assert growth_table(far, 3).rows == [(k, 1) for k in range(4)]


# -- series inversion ------------------------------------------------------------


def test_invert_series_examples():
    geometric = invert_series(
        WeightedPolynomial({Fraction(0): 1, Fraction(1): -2}), 3
    )
    assert geometric.terms == {
        Fraction(0): 1,
        Fraction(1): 2,
        Fraction(2): 4,
        Fraction(3): 8,
    }
    path = invert_series(clique_polynomial(make_path3()), 3)
    assert path.terms == {
        Fraction(0): 1,
        Fraction(1): 3,
        Fraction(2): 7,
        Fraction(3): 15,
    }
    assert invert_series(WeightedPolynomial.one(), 5) == WeightedPolynomial.one()


def test_invert_series_product_is_one():
    for make in (make_path3, make_free3, make_weighted_abelian2):
        poly = clique_polynomial(make())
        cutoff = Fraction(8)
        inverse = invert_series(poly, cutoff)
        product = (inverse * poly).truncate(cutoff)
        assert product == WeightedPolynomial.one()


def test_invert_series_requires_unit_constant():
    with pytest.raises(ValueError):
        invert_series(WeightedPolynomial({Fraction(0): 2}), 3)
    with pytest.raises(ValueError):
        invert_series(WeightedPolynomial({Fraction(1): 1}), 3)


def test_level_cap_refuses_absurd_cutoffs():
    # a weight-1/2 letter puts floor(cutoff * 2) scaled levels below the cutoff
    g = build_graph("ab", {"a": Fraction(1, 2), "b": 1}, [])
    cap = qlo.growth.MAX_LEVELS
    assert ComputationError is qlo.thermo.ComputationError is qlo.growth.ComputationError
    over = Fraction(cap + 1, 2)
    for call in (
        lambda: growth_table(g, over),
        lambda: enumerate_up_to(g, over),
        lambda: invert_series(clique_polynomial(g), over),
        lambda: growth_table(g, Fraction("1e400")),
    ):
        with pytest.raises(ComputationError, match=f"levels exceed the limit {cap}"):
            call()
    with pytest.raises(ComputationError, match=f"^{cap + 1} scaled weight levels"):
        growth_table(g, over)
    # exactly at the cap a one-letter monoid counts its cap + 1 levels
    one = build_graph("a", 1, [])
    assert growth_table(one, cap).total() == cap + 1
    assert len(invert_series(clique_polynomial(one), cap).terms) == cap + 1


# -- inversion formula ------------------------------------------------------------


def test_verify_inversion_on_named_graphs():
    for name, make in NAMED_GRAPHS.items():
        report = verify_inversion(make(), 8)
        assert report.match, (name, report)


def test_verify_inversion_rational_lattice():
    report = verify_inversion(make_weighted_abelian2(), 6)
    assert report.match


def test_verify_inversion_reports_mismatch_location(monkeypatch):
    # sabotage: verify_inversion inverts a wrong clique polynomial
    cases = [
        # free:2 counts 2^n against 1/(1 - 3t) = sum 3^n t^n
        (make_free2(), {0: 1, 1: -3}, 4, (Fraction(1), 2, 3)),
        # a = 1, b = 3/2 commuting: one element at 3/2, two series terms there
        (make_weighted_abelian2(), {0: 1, 1: -1, Fraction(3, 2): -2}, 4, (Fraction(3, 2), 1, 2)),
        # a series on a coarser lattice than the table's: none at 3/2
        (make_weighted_abelian2(), {0: 1, 1: -1}, 4, (Fraction(3, 2), 1, 0)),
    ]
    for graph, wrong, cutoff, mismatch in cases:
        monkeypatch.setattr(
            qlo.growth, "clique_polynomial", lambda g: WeightedPolynomial(wrong)
        )
        report = verify_inversion(graph, cutoff)
        assert not report.match
        assert report.cutoff == cutoff
        assert report.first_mismatch == mismatch


@settings(deadline=None, max_examples=40)
@given(weighted_graphs(), st.integers(0, 24), st.integers(0, 72))
@example(make_weighted_abelian2(), 12, 5)  # levels 0 and 1 of a scale-2 graph
def test_l2_matches_fraction_references(graph, k, m):
    # weights are at least 1/2, so cutoffs k/12 < 1/2 lie below every weight
    cutoff = Fraction(k, 12)
    counted = {}
    for t in bfs_traces_up_to(graph, cutoff):
        counted[t.weight] = counted.get(t.weight, 0) + 1
    table = growth_table(graph, cutoff)
    assert table.rows == sorted(counted.items())
    assert table.counts() == counted
    assert table.total() == sum(counted.values())
    assert (len(table), table.max_weight) == (len(counted), max(counted))
    assert GrowthTable(table.rows, cutoff).rows == table.rows
    assert verify_inversion(graph, cutoff).match
    terms = reference_clique_terms(graph)
    series_cutoff = Fraction(m, 12)
    poly = clique_polynomial(graph)
    series = invert_series(poly, series_cutoff)
    for got, want in ((poly, terms), (series, reference_inverse_terms(terms, series_cutoff))):
        assert got.terms == want
        assert got.scale == math.lcm(*(e.denominator for e in want))
        assert got.degree == max(want)
        assert str(got) == str(WeightedPolynomial(want))


# -- lattice order ------------------------------------------------------------------


def test_is_lattice_ordered():
    assert is_lattice_ordered(make_abelian2())
    assert not is_lattice_ordered(make_free2())
    assert not is_lattice_ordered(make_path3())


# -- polynomial formatting -----------------------------------------------------------


def test_polynomial_str_matches_cli_contract():
    assert str(clique_polynomial(make_abelian2())) == "1 - 2*t^1 + 1*t^2"
    assert str(clique_polynomial(make_free2())) == "1 - 2*t^1"
    poly = clique_polynomial(make_weighted_abelian2())
    assert str(poly) == "1 - 1*t^1 - 1*t^(3/2) + 1*t^(5/2)"
