"""Truncated representation: operator identities, Gibbs numerics, tail bounds."""

import cmath
import copy
import gc
import itertools
import math
import pickle
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qlo.fock
import qlo.thermo
from qlo import (
    ComputationError,
    MismatchedGraphError,
    OperatorIdentityError,
    SparseOperator,
    ThermoContext,
    TruncatedRep,
    build_graph,
    build_rep,
    density,
    divides,
    dynamics_factor,
    enumerate_up_to,
    evolution_unitary,
    gibbs_numeric,
    gibbs_value,
    kms_numeric_check,
    left_op,
    left_quotient,
    multiply,
    nica_check,
    normalize,
    partition_function,
    preset_graph,
    range_projection,
    tail_mass,
    vacuum_projection,
)
from conftest import (
    divides_by_word_search,
    make_abelian2,
    make_cycle5,
    make_free2,
    make_free3,
    make_path3,
    largest_cutoff,
    make_weighted_abelian2,
    random_graph,
    weighted_graphs,
)


# -- sparse operators -----------------------------------------------------------


def test_sparse_operator_basics():
    eye = SparseOperator.identity(3)
    assert eye @ eye == eye
    a = SparseOperator(2, {(0, 1): 2 + 1j})
    assert a.adjoint().entries == {(1, 0): 2 - 1j}
    assert a.adjoint().adjoint() == a
    assert (a - a).is_zero()
    assert SparseOperator.diagonal([1, 2, 3]).trace() == 6
    with pytest.raises(ValueError):
        SparseOperator(2, {(0, 5): 1})
    with pytest.raises(ValueError):
        SparseOperator(2, {(-1, 0): 1})
    for combine in (lambda x, y: x @ y, lambda x, y: x + y):
        with pytest.raises(ValueError, match="dimension mismatch"):
            combine(eye, a)
    assert SparseOperator(2, {(0, 0): 0, (1, 0): 1}).entries == {(1, 0): 1}


def test_sparse_matmul_matches_dense():
    rng = random.Random(5)
    for _ in range(20):
        dim = 4
        a_entries = {
            (rng.randrange(dim), rng.randrange(dim)): rng.randint(-3, 3)
            for _ in range(6)
        }
        b_entries = {
            (rng.randrange(dim), rng.randrange(dim)): rng.randint(-3, 3)
            for _ in range(6)
        }
        a = SparseOperator(dim, a_entries)
        b = SparseOperator(dim, b_entries)
        dense = [[0] * dim for _ in range(dim)]
        for (r, k), va in a.entries.items():
            for (k2, c), vb in b.entries.items():
                if k == k2:
                    dense[r][c] += va * vb
        product = a @ b
        for r in range(dim):
            for c in range(dim):
                assert product.entries.get((r, c), 0) == dense[r][c]


# -- representation building -------------------------------------------------------


def test_build_rep_dimensions():
    assert build_rep(make_free2(), 2).dim == 7
    assert build_rep(make_path3(), 2).dim == 11
    assert build_rep(make_free3(), 0).dim == 1


@pytest.mark.parametrize("make", [enumerate_up_to, TruncatedRep, build_rep])
def test_every_way_to_the_basis_passes_the_size_guard(make):
    # free:9 has (9**21 - 1) / 8 traces of weight <= 20; enumerating them would exhaust memory
    start = time.perf_counter()
    message = "^basis dimension 13677373641439044901 exceeds the limit 1000000$"
    with pytest.raises(ComputationError, match=message):
        make(preset_graph("free:9"), 20)
    assert time.perf_counter() - start < 5


def test_build_rep_guard_past_the_int_to_str_limit():
    # free:9 at cutoff 4600 has a dimension of 4,390 digits, past the default
    # limit of 4,300; at 700 it has 669 digits, past the lowest limit of 640
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str limit")
    before = sys.get_int_max_str_digits()
    limit_message = f"exceeds the limit {qlo.growth.MAX_BASIS_DIM}$"
    for cutoff, limit in ((4600, 4300), (700, 640)):
        sys.set_int_max_str_digits(limit)
        try:
            start = time.perf_counter()
            with pytest.raises(ComputationError, match=limit_message):
                build_rep(preset_graph("free:9"), cutoff)
            assert time.perf_counter() - start < 5
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(before)
    with pytest.raises(ComputationError, match="^basis dimension 1111111111 exceeds"):
        build_rep(preset_graph("free:10"), 9)


def test_basis_starts_at_identity_and_is_downward_closed():
    rep = build_rep(random_graph(5, seed=59), 3)
    assert rep.basis[0].is_identity()
    for x in rep.basis:
        for s in x.blocks[0] if x.blocks else ():
            assert rep.index_of(left_quotient(rep.graph.gen(s), x)) is not None


# -- left translations ----------------------------------------------------------


def test_left_op_examples():
    g = make_free2()
    rep = build_rep(g, 1)
    assert left_op(rep, g.identity()) == SparseOperator.identity(rep.dim)
    la = left_op(rep, g.gen("a"))
    idx = {t.serialize(): i for i, t in enumerate(rep.basis)}
    assert la.entries == {(idx["a"], idx[""]): 1}  # a, b overflow the cutoff


def test_left_op_is_partial_isometry():
    g = make_path3()
    rep = build_rep(g, 4)
    for word in ("a", "ab", "ca", "bb"):
        p = normalize(g, word)
        ell = left_op(rep, p)
        prod = ell.adjoint() @ ell
        # L*L is the diagonal projection onto the columns that survived
        survivors = {
            i
            for i, x in enumerate(rep.basis)
            if multiply(p, x).weight <= rep.cutoff
        }
        assert prod == SparseOperator(
            rep.dim, {(i, i): 1 for i in survivors}
        )


def test_adjoint_is_combinatorial_backward_map():
    g = make_abelian2()
    rep = build_rep(g, 3)
    for word in ("a", "ab", "ba", "aab"):
        p = normalize(g, word)
        backward = {}
        for col, x in enumerate(rep.basis):
            if divides(p, x):
                backward[(rep.index_of(left_quotient(p, x)), col)] = 1
        assert left_op(rep, p).adjoint() == SparseOperator(rep.dim, backward)


def test_left_op_semigroup_property_on_surviving_columns():
    g = random_graph(4, seed=61)
    rep = build_rep(g, 4)
    pool = enumerate_up_to(g, 2)
    rng = random.Random(3)
    for _ in range(25):
        p, q = rng.choice(pool), rng.choice(pool)
        pq = multiply(p, q)
        composed = left_op(rep, p) @ left_op(rep, q)
        direct = left_op(rep, pq)
        for col, x in enumerate(rep.basis):
            if multiply(pq, x).weight <= rep.cutoff and multiply(q, x).weight <= rep.cutoff:
                assert composed.entries.get(
                    (rep.index_of(multiply(pq, x)), col)
                ) == direct.entries.get((rep.index_of(multiply(pq, x)), col))


def test_range_projection_examples():
    g = make_free2()
    rep = build_rep(g, 2)
    assert range_projection(rep, g.identity()) == SparseOperator.identity(rep.dim)
    pa = range_projection(rep, g.gen("a"))
    marked = {rep.basis[i].serialize() for (i, _) in pa.entries}
    assert marked == {"a", "a|a", "a|b"}
    heavy = normalize(g, "aab")
    assert range_projection(rep, heavy).is_zero()


def test_range_projection_matches_word_search_oracle():
    cases = [
        (make_free2(), 5),
        (make_path3(), 4),
        (make_cycle5(), 3),
        (random_graph(4, seed=7), 4),
        (random_graph(5, seed=23), 3),
    ]
    for g, cutoff in cases:
        rep = build_rep(g, cutoff)
        for p in enumerate_up_to(g, 2):
            marked = {
                i
                for i, x in enumerate(rep.basis)
                if divides_by_word_search(g, p, x)
            }
            want = SparseOperator(rep.dim, {(i, i): 1 for i in marked})
            assert range_projection(rep, p) == want, (g, p)


def test_left_map_matches_multiply_oracle():
    """Composed partial maps against L1's multiply, which the maps never call."""
    weights = dict(zip("abcd", (Fraction(1, 2), Fraction(2, 3), 1, Fraction(5, 4))))
    cases = [
        (make_free2(), 5),
        (make_path3(), 4),
        (make_cycle5(), 3),
        (random_graph(4, seed=7, weights=weights), Fraction(7, 2)),
    ]
    for g, cutoff in cases:
        shared = build_rep(g, cutoff)
        for p in enumerate_up_to(g, 2):
            prefix = [x for x in shared.basis if x.weight <= shared.cutoff - p.weight]
            assert prefix == shared.basis[: len(prefix)]
            want = [shared.index_of(multiply(p, x)) for x in prefix]
            # a shared rep finds earlier maps in its cache; a fresh one starts from generators
            assert qlo.fock._left_map(shared, p) == want, (g, p)
            assert qlo.fock._left_map(build_rep(g, cutoff), p) == want, (g, p)
        heavy = [p for p in enumerate_up_to(g, cutoff + 1) if p.weight > cutoff]
        assert all(qlo.fock._left_map(shared, p) == [] for p in heavy[:20])


@settings(deadline=None, max_examples=60)
@given(
    weighted_graphs(min_letters=1, max_letters=12),
    st.integers(2, 10),
    st.sampled_from([Fraction(1, 6), Fraction(1, 2), 1, 2]),
)
def test_block_maps_match_multiply(graph, halves, extra):
    """The carry-built map of each generator and each clique against L1's
    multiply, on a fresh graph and on one that first enumerated a larger cutoff."""
    cutoff = largest_cutoff(graph, Fraction(halves, 2), 400)
    longer = build_graph(graph.generators, graph.weights, graph.edges)
    enumerate_up_to(longer, max(cutoff, largest_cutoff(longer, cutoff + extra, 3000)))
    for g in (graph, longer):
        rep = build_rep(g, cutoff)
        for block in qlo.growth._clique_weights(g):
            p = g.trace(qlo.monoid._letters(g, block))
            prefix = [x for x in rep.basis if x.weight <= cutoff - p.weight]
            got = qlo.fock._block_map(rep, block)
            assert [rep.basis[r] for r in got] == [multiply(p, x) for x in prefix]
            assert got == [rep.index_of(multiply(p, x)) for x in prefix]


def test_index_of_is_none_outside_the_basis():
    graph = make_path3()
    longer = enumerate_up_to(graph, 6)
    rep = build_rep(graph, 3)
    assert graph._basis.top == 6  # the graph still holds the longer enumeration
    for row, x in enumerate(longer):
        assert rep.index_of(x) == (row if x.weight <= 3 else None)
    assert rep.index_of(normalize(graph, "abcabca")) is None  # past every row
    assert rep.index_of(normalize(make_path3(), "ab")) == longer.index(normalize(graph, "ab"))


def test_index_of_checks_the_trace_graph():
    rep = build_rep(make_path3(), 3)
    with pytest.raises(MismatchedGraphError):
        rep.index_of(preset_graph("cycle:4").gen("a"))  # row 1 when the graph went unchecked
    assert rep.index_of(make_path3().gen("b")) == rep.index_of(rep.graph.gen("b"))  # an equal graph


def test_basis_is_the_enumeration_built_once(monkeypatch):
    graph = make_cycle5()
    built = []
    real = qlo.fock._traces
    monkeypatch.setattr(qlo.fock, "_traces", lambda *a: built.append(a[2:]) or real(*a))
    rep = build_rep(graph, 3)
    vacuum_projection(rep)
    left_op(rep, normalize(graph, "ab"))
    assert built == []  # maps, projections and lookups build no trace
    basis = rep.basis
    assert basis == enumerate_up_to(graph, 3) and rep.basis is basis
    assert [t.length for t in basis] == [t.length for t in enumerate_up_to(make_cycle5(), 3)]
    assert [t for t in enumerate_up_to(graph, 2) if t.length <= 2] == [t for t in basis if t.length <= 2]
    assert built == [(rep.dim,)]


def test_a_representation_leaves_no_cyclic_garbage():
    """Counting, enumerating and building maps free everything by reference
    counting, so jobs that make few containers do not pile up garbage
    between the collector's rare full passes."""
    gc.collect()
    gc.disable()
    try:
        graph = make_cycle5()
        rep = build_rep(graph, 3)
        vacuum_projection(rep)
        left_op(rep, normalize(graph, "ab"))
        assert rep.basis and enumerate_up_to(graph, 2)
        del graph, rep
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_left_op_times_adjoint_is_range_projection():
    for make in (make_free2, make_abelian2, make_path3):
        g = make()
        rep = build_rep(g, 3)
        for x in enumerate_up_to(g, 2):
            ell = left_op(rep, x)
            assert ell @ ell.adjoint() == range_projection(rep, x)


def _dict_form(op):
    """The same operator held as a dict of entries."""
    return SparseOperator(op.dim, op.entries)


@settings(deadline=None, max_examples=40)
@given(
    weighted_graphs(min_letters=1, max_letters=4),
    st.integers(0, 10),
    st.floats(0.2, 3.0),
    st.randoms(use_true_random=False),
)
def test_map_form_behaves_as_its_entries(graph, halves, beta, rng):
    """left_op and range_projection hold a partial map.  Each method, called on
    a fresh one whose entries were never read, gives what the same operator
    held as entries gives, and the entries come in the same order; a Gibbs
    value is the same float and equals the reference loop at two betas."""
    rep = build_rep(graph, largest_cutoff(graph, Fraction(halves, 2), 200))
    heavy = normalize(graph, graph.generators[0] * (2 * math.floor(rep.cutoff) + 3))
    pool = [t for t in rep.basis if t.length <= 2] + [heavy]
    for _ in range(3):
        p, q = rng.choice(pool), rng.choice(pool)
        others = [left_op(rep, q), range_projection(rep, q)]
        others += [_dict_form(o) for o in others] + [SparseOperator.identity(rep.dim)]
        for make in (left_op, range_projection):
            want = _dict_form(make(rep, p))
            op = make(rep, p)
            assert list(op.entries.items()) == list(want.entries.items())
            assert op.entries is op.entries  # built on the first read and kept
            assert make(rep, p).adjoint() == want.adjoint()
            for other in others:
                assert make(rep, p) @ other == want @ other
                assert other @ make(rep, p) == other @ want
                assert make(rep, p) + other == want + other
                assert make(rep, p) - other == want - other
            assert make(rep, p) * 3 == want * 3 and 2 * make(rep, p) == 2 * want
            assert make(rep, p) == want and want == make(rep, p)
            assert (make(rep, p) == others[0]) == (want == others[0])
            assert make(rep, p).trace() == want.trace()
            assert list(make(rep, p).diagonal_entries()) == list(want.diagonal_entries())
            assert make(rep, p).is_zero() == want.is_zero()
            assert repr(make(rep, p)) == repr(want)
            for kept in (copy.copy(make(rep, p)), copy.deepcopy(make(rep, p)),
                         pickle.loads(pickle.dumps(make(rep, p)))):
                assert kept == want and kept.dim == want.dim
                assert gibbs_numeric(rep, kept, beta) == gibbs_numeric(rep, want, beta)
            for b in (beta, 2 * beta):
                got = gibbs_numeric(rep, make(rep, p), b)
                assert got == gibbs_numeric(rep, want, b) == _gibbs_by_generator(rep, want, b)


# -- covariance and vacuum identities -----------------------------------------------


def test_nica_check_examples():
    g = make_path3()
    rep = build_rep(g, 3)
    assert nica_check(rep, g.gen("a"), g.gen("c"))  # both sides zero
    g2 = make_abelian2()
    rep2 = build_rep(g2, 3)
    assert nica_check(rep2, g2.gen("a"), g2.gen("b"))
    assert nica_check(rep, normalize(g, "ab"), g.identity())


def test_nica_check_exhaustive_small():
    for make in (make_free2, make_abelian2, make_path3):
        g = make()
        rep = build_rep(g, 4)
        pool = [t for t in enumerate_up_to(g, 3) if t.length <= 3]
        for p, q in itertools.product(pool, repeat=2):
            assert nica_check(rep, p, q), (p, q)


def test_vacuum_projection_all_graphs():
    for make in (make_free2, make_abelian2, make_path3, make_weighted_abelian2):
        g = make()
        for cutoff in (2, 4):
            rep = build_rep(g, cutoff)
            vac = vacuum_projection(rep)
            assert vac == SparseOperator(rep.dim, {(0, 0): 1})


def test_vacuum_projection_catches_a_missing_clique(monkeypatch):
    """Dropping any one of the cliques that vacuum_projection lists raises."""
    real_cliques = qlo.fock._cliques
    for make, cutoff in ((make_abelian2, 3), (make_path3, 3), (make_weighted_abelian2, 3)):
        listed = real_cliques(make(), build_rep(make(), cutoff)._top)
        assert listed[0] == 0 and len(listed) >= 4
        for dropped in range(len(listed)):
            def cliques_but_one(graph, top):
                out = list(real_cliques(graph, top))
                del out[dropped]
                return out

            monkeypatch.setattr(qlo.fock, "_cliques", cliques_but_one)
            with pytest.raises(OperatorIdentityError):
                vacuum_projection(build_rep(make(), cutoff))
            monkeypatch.undo()


def test_vacuum_projection_lists_only_the_cliques_under_the_cutoff():
    """abelian:16 at W=2 has 65,535 cliques but a basis of 153 rows: the check
    walks only the 136 cliques of weight <= 2 and caches one map for each."""
    rep = build_rep(preset_graph("abelian:16"), 2)
    assert rep.dim == 153
    start = time.perf_counter()
    assert vacuum_projection(rep) == SparseOperator(rep.dim, {(0, 0): 1})
    elapsed = time.perf_counter() - start
    listed = qlo.fock._cliques(rep.graph, rep._top)
    assert len(listed) == 1 + 16 + 120
    assert len(rep._left_cache) <= len(listed) + 1
    assert elapsed < 0.2, elapsed  # 0.8 s when every clique was listed


def test_vacuum_projection_refuses_a_generator_map_that_repeats_a_row(monkeypatch):
    """A generator map that sends two columns to one row is refused by name,
    before the union of the images could hide it; a map that loses its last
    column leaves both forms equal but off the identity."""
    real_left_map = qlo.fock._left_map
    cases = [(make, s, fault, "not injective")
             for make in (make_abelian2, make_path3, make_free2)
             for s in make().generators
             for fault in (lambda ell: ell[:1] * 2 + ell[2:], lambda ell: ell + ell[-1:])]
    cases.append((make_free2, "a", lambda ell: ell[:-1], "not the rank-one projection"))
    for make, s, fault, message in cases:
        g = make()
        masks = g.gen(s)._masks

        def faulty_left_map(rep, p):
            ell = real_left_map(rep, p)
            return fault(ell) if p._masks == masks else ell

        monkeypatch.setattr(qlo.fock, "_left_map", faulty_left_map)
        with pytest.raises(OperatorIdentityError, match=message):
            vacuum_projection(build_rep(g, 3))
        monkeypatch.undo()


def test_vacuum_projection_counts_each_row_of_each_clique(monkeypatch):
    """The clique sum compares the image rows as multisets: a two-letter
    clique map that drops or repeats a row, with every row still present
    somewhere, makes it disagree with the product form; a generator map that
    drops a row moves both forms off the identity together."""
    real_left_map = qlo.fock._left_map
    drop = lambda ell: ell[:1] + ell[2:]
    repeat = lambda ell: ell + ell[1:2]
    cases = []
    for make in (make_abelian2, make_path3, lambda: preset_graph("cycle:4")):
        g = make()
        pairs = [b for b in qlo.fock._cliques(g, build_rep(g, 3)._top) if b.bit_count() == 2]
        assert pairs
        cases += [(make, (b,), fault, "product form and clique sum disagree")
                  for b in pairs for fault in (drop, repeat)]
    cases += [(make_free2, make_free2().gen(s)._masks, drop, "not the rank-one projection")
              for s in "ab"]
    for make, masks, fault, message in cases:
        def faulty_left_map(rep, p):
            ell = real_left_map(rep, p)
            return fault(ell) if p._masks == masks else ell

        monkeypatch.setattr(qlo.fock, "_left_map", faulty_left_map)
        with pytest.raises(OperatorIdentityError, match=message):
            vacuum_projection(build_rep(make(), 3))
        monkeypatch.undo()


# -- density, unitaries, Gibbs numerics ----------------------------------------------


def test_density_entries():
    g = make_free2()
    rep = build_rep(g, 2)
    assert density(rep, 0.0) == SparseOperator.identity(rep.dim)
    d = density(rep, math.log(2))
    idx = rep.index_of(g.gen("a"))
    assert abs(d.entries[(idx, idx)] - 0.5) <= 1e-15
    ctx = ThermoContext(g)
    assert abs(
        d.trace() - partition_function(ctx, math.log(2), "truncated", cutoff=2)
    ) <= 1e-12


def test_density_and_gibbs_need_a_finite_beta():
    rep = build_rep(make_free2(), 2)
    identity = SparseOperator.identity(rep.dim)
    for beta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            density(rep, beta)
    for beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ComputationError):
            gibbs_numeric(rep, identity, beta)
    with pytest.raises(ValueError, match="operator dimension does not match the basis"):
        gibbs_numeric(rep, SparseOperator.identity(rep.dim + 1), 1.0)


def test_evolution_unitary_conjugation():
    g = make_weighted_abelian2()
    rep = build_rep(g, 4)
    p = normalize(g, "ab")
    ell = left_op(rep, p)
    for k in range(16):
        t = -3.5 + 0.45 * k
        u = evolution_unitary(rep, t)
        assert all(
            abs(abs(v) - 1) <= 1e-12 for v in u.entries.values()
        )
        conjugated = u @ ell @ u.adjoint()
        phase = cmath.exp(1j * t * float(p.weight))
        for key, v in ell.entries.items():
            assert cmath.isclose(
                conjugated.entries[key], phase * v, abs_tol=1e-12
            )
        assert set(conjugated.entries) == set(ell.entries)


def test_gibbs_numeric_identity_and_offdiagonal():
    g = make_path3()
    rep = build_rep(g, 6)
    assert abs(gibbs_numeric(rep, SparseOperator.identity(rep.dim), 1.0) - 1.0) <= 1e-15
    a, b = g.gen("a"), g.gen("b")
    op = left_op(rep, a) @ left_op(rep, b).adjoint()
    assert gibbs_numeric(rep, op, 1.2) == 0.0  # exactly, at every cutoff


def test_gibbs_numeric_vacuum_normalization():
    g = make_path3()
    ctx = ThermoContext(g)
    beta = 1.5 * ctx.beta_c
    previous_gap = None
    for cutoff in (6, 8, 10):
        rep = build_rep(g, cutoff)
        vac = vacuum_projection(rep)
        value = gibbs_numeric(rep, vac, beta)
        # normalized by the truncated trace Z_W, not by the closed form
        z_truncated = partition_function(ctx, beta, "truncated", cutoff=cutoff)
        assert math.isclose(value, 1.0 / z_truncated, rel_tol=1e-12, abs_tol=0.0)
        z_closed = partition_function(ctx, beta)
        gap = abs(value * z_closed - 1.0)
        assert gap <= tail_mass(ctx, beta, cutoff) + 1e-12
        if previous_gap is not None:
            assert gap < previous_gap
        previous_gap = gap


def test_gibbs_numeric_monomials_within_tail():
    g = make_free2()
    ctx = ThermoContext(g)
    beta = 1.5 * ctx.beta_c
    cutoff = 10
    rep = build_rep(g, cutoff)
    rng = random.Random(17)
    pool = enumerate_up_to(g, 4)
    for _ in range(30):
        p = rng.choice(pool)
        op = range_projection(rep, p)  # equals L_p L_p^*, pinned above
        got = gibbs_numeric(rep, op, beta)
        want = gibbs_value(p, p).value_at(beta)
        bound = (
            want
            * tail_mass(ctx, beta, cutoff, up_to=Fraction(cutoff) - p.weight)
        )
        assert abs(got - want) <= bound + 1e-12


def test_dynamics_factor():
    g = make_free2()
    a, e = g.gen("a"), g.identity()
    assert dynamics_factor(a, a, 1.7 + 0.3j) == 1
    assert abs(dynamics_factor(a, e, 2j) - math.exp(-2.0)) <= 1e-15
    for t in (0.1, 1.0, 5.0):
        assert abs(abs(dynamics_factor(a, e, t)) - 1.0) <= 1e-15


# -- numeric twisted-trace residuals ---------------------------------------------------


def test_kms_numeric_diagonal_case_is_exact():
    g = make_free2()
    rep = build_rep(g, 6)
    e = g.identity()
    p = normalize(g, "ab")
    report = kms_numeric_check(rep, (e, e), (p, p), 2.0)
    assert report.residual == 0.0
    assert report.ok


def test_kms_numeric_random_monomials_within_bound():
    g = make_free2()
    rep = build_rep(g, 10)
    rng = random.Random(29)
    pool = [t for t in enumerate_up_to(g, 2) if t.length <= 2]
    worst = 0.0
    for _ in range(10):
        quad = [rng.choice(pool) for _ in range(4)]
        report = kms_numeric_check(rep, (quad[0], quad[1]), (quad[2], quad[3]), 2.0)
        assert report.ok
        worst = max(worst, report.residual)
    assert worst < 1e-6


def test_kms_numeric_bound_reuses_an_equal_tail(monkeypatch):
    """When both gains are equal the tail is computed once; the bound is
    bit-identical to the sum of two public tail_mass calls at W - gain."""
    g = make_path3()
    rep = build_rep(g, 7)
    beta = 1.5 * rep.thermo().beta_c
    pool = [t for t in rep.basis if t.length <= 2]
    real_tail, real_level_tail, calls = qlo.thermo.tail_mass, qlo.thermo._tail, []

    def counted(ctx, beta, level):
        calls.append(level)
        return real_level_tail(ctx, beta, level)

    monkeypatch.setattr(qlo.thermo, "_tail", counted)
    seen = set()
    for p1, q1, p2, q2 in itertools.product(pool[:5], repeat=4):
        calls.clear()
        report = kms_numeric_check(rep, (p1, q1), (p2, q2), beta)
        computed = len(calls)
        gain_b = max(p2.weight - q2.weight, Fraction(0))
        gain_a = max(p1.weight - q1.weight, Fraction(0))
        tails = [real_tail(rep.thermo(), beta, rep.cutoff, up_to=rep.cutoff - gain) for gain in (gain_b, gain_a)]
        want = (tails[0] + report.twist * tails[1]) / sum(qlo.fock._density_values(rep, beta)[0]) + 1e-12
        assert report.bound == want, (p1, q1, p2, q2)
        assert computed == (1 if gain_a == gain_b else 2)
        seen.add(gain_a == gain_b)
    assert seen == {True, False}


def test_kms_numeric_bound_decreases_with_cutoff():
    g = make_path3()
    p1, q1 = g.gen("a"), g.gen("b")
    p2, q2 = normalize(g, "bc"), g.identity()
    bounds = []
    for cutoff in (6, 9, 12):
        rep = build_rep(g, cutoff)
        report = kms_numeric_check(rep, (p1, q1), (p2, q2), 2.0)
        assert report.ok
        bounds.append(report.bound)
    assert bounds[0] > bounds[1] > bounds[2]


def test_kms_numeric_matches_sparse_operator_products():
    for g, cutoff in ((make_path3(), 7), (make_cycle5(), 4)):
        rep = build_rep(g, cutoff)
        beta = 1.5 * ThermoContext(g).beta_c
        pool = [t for t in rep.basis if t.length <= 2]
        rng = random.Random(41)
        quads = [[rng.choice(pool) for _ in range(4)] for _ in range(15)]
        # A = L_p L_q^*, B = L_q L_p^*: AB and BA have a nonzero diagonal
        for _ in range(10):
            p, q = rng.choice(pool), rng.choice(pool)
            quads.append([p, q, q, p])
        nonzero = 0
        for p1, q1, p2, q2 in quads:
            report = kms_numeric_check(rep, (p1, q1), (p2, q2), beta)
            a = left_op(rep, p1) @ left_op(rep, q1).adjoint()
            b = left_op(rep, p2) @ left_op(rep, q2).adjoint()
            for got, op in ((report.psi_ab, a @ b), (report.psi_ba, b @ a)):
                want = gibbs_numeric(rep, op, beta)
                assert math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0)
                nonzero += want != 0.0
            if p1 == q2 and q1 == p2:
                assert report.psi_ab > 0.0 and report.psi_ba > 0.0
        assert nonzero >= 20


def _density_by_row(rep, beta):
    """exp(-beta * w(x)) computed for each basis row, from the trace's weight."""
    d = rep.graph.scale
    return [math.exp(-beta * (int(x.weight * d) / d)) for x in rep.basis]


def _gibbs_by_generator(rep, op, beta):
    weights = _density_by_row(rep, beta)
    return sum(v * weights[i] for i, v in op.diagonal_entries()) / sum(weights)


def _fixed_point_mass_by_enumerate(outer, inner, weights):
    return sum(
        w for x, (r, w) in enumerate(zip(inner, weights)) if r >= 0 and outer[r] == x
    )


def _monomial_map_by_multiply(rep, p, q):
    """L_p L_q^* as a partial map q*y -> p*y, from L1's multiply."""
    out = [-1] * rep.dim
    for y in rep.basis:
        r, t = rep.index_of(multiply(q, y)), rep.index_of(multiply(p, y))
        if r is not None and t is not None:
            out[r] = t
    return out


@settings(deadline=None, max_examples=40)
@given(
    weighted_graphs(min_letters=1, max_letters=5),
    st.integers(2, 12),
    st.floats(1.05, 3.0),
    st.randoms(use_true_random=False),
)
def test_gibbs_floats_equal_their_reference_loops(graph, halves, factor, rng):
    """density, gibbs_numeric and kms_numeric_check's psi values equal loops
    that take one exp per row and sum in ascending row order, bit for bit:
    the CLI prints them to 15 digits."""
    rep = build_rep(graph, largest_cutoff(graph, Fraction(halves, 2), 300))
    beta = factor * (rep.thermo().beta_c or 0.5)  # beta_c is 0 on one letter
    for b in (beta, factor, 0.0):
        want = _density_by_row(rep, b)
        assert [density(rep, b).entries.get((i, i), 0.0) for i in range(rep.dim)] == want
    pool = [t for t in rep.basis if t.length <= 2]
    ops = [SparseOperator.identity(rep.dim), vacuum_projection(rep)]
    for _ in range(4):
        p, q = rng.choice(pool), rng.choice(pool)
        ops += [range_projection(rep, p), left_op(rep, p) @ left_op(rep, q).adjoint()]
        for b in (factor, beta):
            assert [gibbs_numeric(rep, op, b) for op in ops] == [
                _gibbs_by_generator(rep, op, b) for op in ops
            ]
        p2, q2 = (q, p) if rng.random() < 0.5 else (rng.choice(pool), rng.choice(pool))
        report = kms_numeric_check(rep, (p, q), (p2, q2), beta)
        a = _monomial_map_by_multiply(rep, p, q)
        b = _monomial_map_by_multiply(rep, p2, q2)
        weights = _density_by_row(rep, beta)
        z = sum(weights)
        assert report.psi_ab == _fixed_point_mass_by_enumerate(a, b, weights) / z
        assert report.psi_ba == _fixed_point_mass_by_enumerate(b, a, weights) / z


@settings(deadline=None, max_examples=60)
@given(
    weighted_graphs(min_letters=1, max_letters=4),
    st.integers(0, 12),
    st.floats(1.05, 3.0),
    st.randoms(use_true_random=False),
)
def test_kms_closed_form_matches_the_representation(graph, halves, factor, rng):
    """The twisted-trace masses kms-check takes from growth counts give the psi
    values and bounds of kms_numeric_check on the representation's maps, to
    1e-12 relative, and its zeros exactly; Z_W is the truncated partition
    function bit for bit.  Half the pairs meet, as (p, r), (r, p) always do."""
    rep = build_rep(graph, largest_cutoff(graph, Fraction(halves, 2), 300))
    ctx = rep.thermo()
    beta = factor * (ctx.beta_c or 0.5)  # beta_c is 0 on one letter
    sums = qlo.thermo._level_sums(ctx, beta, rep.cutoff)
    assert sums[-1] == partition_function(ctx, beta, "truncated", cutoff=rep.cutoff)
    for _ in range(8):
        p, r = rng.choice(rep.basis), rng.choice(rep.basis)
        for pair1, pair2 in (((p, r), (r, p)), ((p, rng.choice(rep.basis)), (rng.choice(rep.basis), r))):
            want = kms_numeric_check(rep, pair1, pair2, beta)
            (got,) = qlo.thermo._kms_reports(ctx, beta, rep.cutoff, [(pair1, pair2)])
            for field in ("psi_ab", "psi_ba", "bound"):
                g, w = getattr(got, field), getattr(want, field)
                assert (g == 0.0) == (w == 0.0), (field, pair1, pair2)
                assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0), (field, pair1, pair2)


def test_kms_numeric_refuses_a_twist_past_float_range():
    g = preset_graph("cycle:4")
    rep = build_rep(g, 2)
    e, a = g.identity(), g.gen("a")
    with pytest.raises(ComputationError, match="the twist overflows float range at beta = 800"):
        kms_numeric_check(rep, (e, a), (a, e), 800.0)


def test_kms_numeric_requires_supercritical_beta():
    g = make_free2()
    rep = build_rep(g, 4)
    pairs = (g.gen("a"), g.gen("a")), (g.gen("b"), g.gen("b"))
    for beta in (0.5, math.nan, math.inf):
        with pytest.raises(ComputationError):
            kms_numeric_check(rep, *pairs, beta)


def test_rep_rejects_foreign_traces():
    rep = build_rep(make_free2(), 3)
    with pytest.raises(MismatchedGraphError):
        left_op(rep, make_path3().gen("a"))
