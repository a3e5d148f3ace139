import itertools
import random

import pytest

import oracles
import lassomatroid as lm
from lassomatroid import matroid
from lassomatroid.exact import RowSpace
from helpers import cords, letters, seeded_trees, trees_on
from lassomatroid.tree import hang_leaf


def test_path_vector_star(star4):
    for c in lm.all_cords("abcd"):
        assert sum(star4.path_vector(c)) == 2


def test_rank_of_examples(quartet, star4):
    assert matroid.rank_of(quartet, lm.all_cords("abcd")) == 5
    assert matroid.rank_of(quartet, ()) == 0
    assert matroid.rank_of(star4, cords("ab", "bc", "ca")) == 3
    # cross-checked against the minor oracle on the explicit matrix
    rows = [star4.path_vector(c) for c in sorted(cords("ab", "bc", "ca"))]
    assert oracles.minor_rank(rows) == 3


def test_verdict_examples(quartet):
    assert matroid.verdict(quartet, cords("ab", "cd", "ac", "ad", "bc")).basis
    v = matroid.verdict(quartet, cords("ab", "cd", "ac", "bd"))
    assert v.independent and not v.lasso
    assert matroid.verdict(quartet, lm.all_cords("abcd")).lasso


def test_verdict_flag_implications():
    rng = random.Random(5)
    for t in trees_on(5):
        pool = sorted(lm.all_cords(t.leaves))
        for _ in range(40):
            sub = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
            v = matroid.verdict(t, sub)
            if v.basis:
                assert v.lasso and v.independent
            if v.independent:
                assert v.rank == len(sub)
            assert v.lasso == (v.rank == len(t.edge_ids))


def test_closure_examples(quartet):
    got = matroid.closure(quartet, cords("ac", "ad", "bc"))
    assert got == cords("ac", "ad", "bc", "bd")
    # the new member decomposes as ad + bc - ac
    order = sorted(cords("ac", "ad", "bc"))
    rows = [quartet.path_vector(c) for c in order]
    coeffs = lm.solve_coordinates(rows, quartet.path_vector(lm.cord("b", "d")))
    assert dict(zip(order, coeffs)) == {
        lm.cord("a", "c"): -1, lm.cord("a", "d"): 1, lm.cord("b", "c"): 1,
    }
    full = lm.all_cords("abcd")
    assert matroid.closure(quartet, full) == full
    assert matroid.closure(quartet, ()) == frozenset()


def test_closure_is_a_closure_operator():
    rng = random.Random(17)
    for t in trees_on(5):
        pool = sorted(lm.all_cords(t.leaves))
        for _ in range(25):
            sub = frozenset(rng.sample(pool, rng.randint(0, 6)))
            closed = matroid.closure(t, sub)
            assert sub <= closed
            assert matroid.closure(t, closed) == closed
            assert matroid.rank_of(t, closed) == matroid.rank_of(t, sub)
            bigger = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
            if sub <= bigger:
                assert closed <= matroid.closure(t, bigger)


def test_circuits_quartet(quartet):
    found = set(matroid.circuits(quartet))
    assert cords("ac", "ad", "bc", "bd") in found
    # the proper-cherry cords are co-loops: no circuit contains them
    for circ in found:
        assert lm.cord("a", "b") not in circ
        assert lm.cord("c", "d") not in circ


def test_circuits_star4(star4):
    found = set(matroid.circuits(star4))
    assert cords("ab", "bc", "cd", "da") in found
    assert len(found) == 3


def test_circuits_max_size_guard(quartet, cat5):
    # a circuit has at most one cord more than the rank, the edge count;
    # the refusal names that size, and the largest size allowed is accepted
    for t, largest in ((quartet, 6), (cat5, 8)):
        assert len(t.edge_ids) + 1 == largest
        with pytest.raises(ValueError, match=f"^circuits never exceed {largest} cords on this tree$"):
            list(matroid.circuits(t, max_size=largest + 1))
        assert list(matroid.circuits(t, max_size=largest)) == list(matroid.circuits(t))


def test_circuits_scale_bound_is_checked_before_max_size():
    eight = lm.caterpillar_tree(letters(8))
    with pytest.raises(lm.ScaleBoundError,
                       match="8 leaves exceeds the circuit-enumeration bound of 7"):
        next(iter(matroid.circuits(eight, max_size=len(eight.edge_ids) + 2)))
    with pytest.raises(ValueError, match="never exceed"):
        next(iter(matroid.circuits(eight, max_size=len(eight.edge_ids) + 2, max_leaves=8)))
    assert next(iter(matroid.circuits(eight, max_size=4, max_leaves=8)))


def test_circuits_match_minimal_dependent_set_oracle():
    for n in (3, 4, 5):
        for t in trees_on(n):
            vectors = {c: t.path_vector(c) for c in lm.all_cords(t.leaves)}
            limit = len(t.edge_ids) + 1
            expected = oracles.minimal_dependent_sets(vectors, limit)
            for max_size in range(-1, limit + 1):
                want = [circ for circ in expected if len(circ) <= max_size]
                assert list(matroid.circuits(t, max_size)) == want
            assert list(matroid.circuits(t)) == expected


def test_circuit_minimality_everywhere():
    for t in trees_on(5):
        for circ in matroid.circuits(t):
            assert matroid.rank_of(t, circ) == len(circ) - 1
            for drop in circ:
                assert matroid.verdict(t, circ - {drop}).independent


def test_bases_counts(quartet, star3, star4):
    quartet_bases = list(matroid.bases(quartet))
    assert len(quartet_bases) == 4
    for b in quartet_bases:
        assert len(b & cords("ac", "ad", "bc", "bd")) == 3
        assert cords("ab", "cd") <= b
    assert len(list(matroid.bases(star4))) == 12
    assert list(matroid.bases(star3)) == [lm.all_cords("abc")]


def test_bases_sequence_matches_combination_oracle():
    # the pruned search yields exactly the spanning combinations, in index order
    for n in (3, 4, 5):
        for t in trees_on(n):
            cs = sorted(lm.all_cords(t.leaves))
            m = len(t.edge_ids)
            expected = [frozenset(combo) for combo in itertools.combinations(cs, m)
                        if oracles.gauss_jordan_rank([t.path_vector(c) for c in combo]) == m]
            assert list(matroid.bases(t)) == expected
            for f in t.interior_edge_ids:
                rebuilt = list(matroid.contraction_bases(t, f))
                assert len(rebuilt) == len(set(rebuilt))
                assert set(rebuilt) == set(expected)


def test_bases_scale_guard():
    with pytest.raises(lm.ScaleBoundError):
        next(iter(matroid.bases(lm.star_tree(letters(8)))))


def test_coloops_examples(quartet, star3, star4):
    assert matroid.coloops(quartet) == cords("ab", "cd")
    assert matroid.coloops(star4) == frozenset()
    assert matroid.coloops(star3) == lm.all_cords("abc")


def test_coloops_are_proper_cherries_at_scale():
    labels = [f"x{i:02d}" for i in range(24)]
    rng = random.Random(20)
    grown = lm.star_tree(labels[:3])
    for x in labels[3:20]:
        grown = rng.choice(list(hang_leaf(grown, x)))
    for t in (lm.caterpillar_tree(labels), grown):
        proper = frozenset(c for c, is_proper in t.cherries() if is_proper)
        assert proper
        assert matroid.coloops(t) == proper


def test_widest_field_agrees_with_gauss_jordan_on_the_24_leaf_caterpillar():
    # 45 edge columns: rank_of packs minors of order 45, and coloops carries
    # a 45-wide identity tail, the widest field any tree the toolkit takes
    # builds.  Each coloop drops the oracle rank; every 25th other cord
    # does not.
    labels = [f"x{i:02d}" for i in range(24)]
    t = lm.caterpillar_tree(labels)
    all_c = sorted(lm.all_cords(labels))
    rows = [t.path_vector(c) for c in all_c]
    assert len(all_c) == 276 and len(t.edge_ids) == 45
    assert matroid.rank_of(t, all_c) == oracles.gauss_jordan_rank(rows) == 45
    rng = random.Random(24)
    for k in (3, 20, 44, 60):
        picked = sorted(rng.sample(range(276), k))
        assert matroid.rank_of(t, [all_c[i] for i in picked]) == \
            oracles.gauss_jordan_rank([rows[i] for i in picked])
    found = matroid.coloops(t)
    assert found == {lm.cord("x00", "x01"), lm.cord("x22", "x23")}
    others = [i for i, c in enumerate(all_c) if c not in found][::25]
    for i in [all_c.index(c) for c in found] + others:
        dropped = oracles.gauss_jordan_rank(rows[:i] + rows[i + 1:]) < 45
        assert dropped == (all_c[i] in found)


def test_rank_monotone_submodular_unit_increase():
    rng = random.Random(23)
    for n in (4, 5):
        for t in trees_on(n):
            pool = sorted(lm.all_cords(t.leaves))
            for _ in range(20):
                sub = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
                extra = rng.choice(pool)
                r = matroid.rank_of(t, sub)
                r_up = matroid.rank_of(t, sub | {extra})
                assert r_up in (r, r + 1)
                other = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
                r_other = matroid.rank_of(t, other)
                union = matroid.rank_of(t, sub | other)
                inter = matroid.rank_of(t, sub & other)
                assert union + inter <= r + r_other
                if sub <= other:
                    assert r <= r_other


def test_independence_augmentation():
    rng = random.Random(31)
    for t in trees_on(5):
        pool = sorted(lm.all_cords(t.leaves))
        for _ in range(30):
            small = frozenset(rng.sample(pool, rng.randint(0, 4)))
            big = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
            if not (matroid.verdict(t, small).independent
                    and matroid.verdict(t, big).independent):
                continue
            if len(small) >= len(big):
                continue
            assert any(matroid.verdict(t, small | {c}).independent
                       for c in big - small)


def test_fundamental_circuit_property():
    for t in trees_on(5):
        found = list(matroid.circuits(t))
        for base in itertools.islice(matroid.bases(t), 12):
            outside = lm.all_cords(t.leaves) - base
            for c in sorted(outside)[:4]:
                inside = [circ for circ in found if circ <= (base | {c})]
                assert len(inside) == 1
                assert c in inside[0]


def test_full_cord_set_spans_up_to_seven_leaves():
    for n in (3, 4, 5, 6, 7):
        for t in lm.enumerate_xtrees(letters(n)):
            assert matroid.rank_of(t, lm.all_cords(t.leaves)) == len(t.edge_ids)


# -- recursion through an edge collapse ------------------------------------------


def test_contraction_extends_star_basis_pattern(quartet):
    f = quartet.interior_edge_ids[0]
    b1 = cords("ab", "bc", "ca", "da")
    b2 = cords("ab", "bc", "ca", "dc")
    assert matroid.contraction_extends(quartet, f, b1, lm.cord("d", "c"))
    assert not matroid.contraction_extends(quartet, f, b1, lm.cord("d", "b"))
    assert matroid.contraction_extends(quartet, f, b2, lm.cord("d", "a"))
    assert matroid.contraction_extends(quartet, f, b2, lm.cord("d", "b"))


def test_contraction_extends_refuses_a_base_that_does_not_span(quartet):
    f = quartet.interior_edge_ids[0]
    # independent in the collapsed star, but of rank 3 there, not 4
    with pytest.raises(ValueError, match="does not span"):
        matroid.contraction_extends(quartet, f, cords("ab", "bc", "cd"), lm.cord("a", "d"))
    with pytest.raises(ValueError, match="not independent"):
        matroid.contraction_extends(quartet, f, cords("ab", "bc", "ca", "da", "db"),
                                    lm.cord("c", "d"))


def test_contraction_coordinates_of_the_missing_cord(quartet):
    # over the collapsed tree, the cord db decomposes over {ab, ac, ad, bc}
    # with coefficients 0, -1, +1, +1
    collapsed = quartet.contract(quartet.interior_edge_ids)
    order = sorted(cords("ab", "bc", "ca", "da"))
    rows = [collapsed.path_vector(c) for c in order]
    coeffs = lm.solve_coordinates(rows, collapsed.path_vector(lm.cord("d", "b")))
    assert dict(zip(order, coeffs)) == {
        lm.cord("a", "b"): 0, lm.cord("a", "c"): -1,
        lm.cord("a", "d"): 1, lm.cord("b", "c"): 1,
    }


def test_contraction_bases_equal_direct_bases_quartet(quartet):
    f = quartet.interior_edge_ids[0]
    assert set(matroid.contraction_bases(quartet, f)) == set(matroid.bases(quartet))


def test_contraction_bases_equal_direct_bases_n5():
    for t in trees_on(5):
        direct = set(matroid.bases(t))
        for f in t.interior_edge_ids:
            assert set(matroid.contraction_bases(t, f)) == direct


def test_contraction_bases_yield_each_basis_once_on_the_seven_leaf_caterpillar():
    # Beyond five leaves no oracle checks that the collapse route yields each
    # basis once; every split of the caterpillar is collapsed, 3|4 included.
    t = lm.caterpillar_tree(letters(7))
    direct = set(matroid.bases(t))
    assert len(direct) == 14400
    smaller = []
    for f in t.interior_edge_ids:
        smaller.append(min(len(t.side(f, v)) for v in t.edges[f]))
        rebuilt = list(matroid.contraction_bases(t, f))
        assert len(rebuilt) == len(set(rebuilt))
        assert set(rebuilt) == direct
    assert sorted(smaller) == [2, 2, 3, 3]


def test_collapsed_search_yields_exactly_the_bases_that_extend():
    # The search with an f-tail skips every collapsed subtree that holds no
    # extension.  Checked against public functions that run none of its
    # carried residuals: it must yield, in order, the collapsed bases C with a
    # nonempty list, and that list must be the cords that extend C and lie
    # in the span of C's cords before them.
    trees = [*trees_on(5), lm.caterpillar_tree(letters(6))]
    for t in trees:
        cords_ = sorted(lm.all_cords(t.leaves))
        for f in t.interior_edge_ids:
            collapsed = t.contract({f})
            rank = matroid.rank_oracle(collapsed)
            expected = []
            for base in matroid.bases(collapsed):
                joins = []
                for i, c in enumerate(cords_):
                    before = {b for b in base if b < c}   # independent
                    if (c not in base
                            and rank(before | {c}) == len(before)
                            and matroid.contraction_extends(t, f, base, c)):
                        joins.append(i)
                if joins:
                    expected.append((base, joins))
            got = [(frozenset(cords_[i] for i in chosen), joins) for chosen, joins
                   in matroid._basis_dfs(matroid._collapse_rows(t, f, cords_), tail=1)]
            assert got == expected


def test_contraction_bases_rejects_pendant(quartet):
    with pytest.raises(ValueError):
        next(iter(matroid.contraction_bases(quartet, quartet.pendant_edge("a"))))


# -- rank under collapse and restriction ------------------------------------------


def test_contract_rank_decomposition_examples(quartet):
    f = quartet.interior_edge_ids[0]
    assert matroid.contract_rank_decomposition(quartet, {f}, lm.all_cords("abcd")) == (5, 4, 1)
    assert matroid.contract_rank_decomposition(quartet, set(), lm.all_cords("abcd"))[2] == 0
    assert matroid.contract_rank_decomposition(quartet, {f}, cords("ab")) == (1, 1, 0)


def check_contract_rank_decomposition(t, F, sub):
    """The collapse triple against the dimension of the span members that
    vanish on every surviving edge, by Gauss-Jordan elimination."""
    full, collapsed, gap = matroid.contract_rank_decomposition(t, F, sub)
    surviving = [t.edge_column[e] for e in t.edge_ids if e not in F]
    assert gap == oracles.vanishing_dimension(map(t.path_vector, sub), surviving)
    assert full == collapsed + gap
    assert gap <= len(F)


def test_contract_rank_decomposition_random():
    rng = random.Random(41)
    pool = [t for n in (4, 5, 6) for t in trees_on(n)]
    for _ in range(120):
        t = rng.choice(pool)
        interior = t.interior_edge_ids
        F = rng.sample(interior, rng.randint(0, len(interior))) if interior else []
        sub = rng.sample(sorted(lm.all_cords(t.leaves)), rng.randint(0, len(lm.all_cords(t.leaves))))
        check_contract_rank_decomposition(t, F, sub)


def test_contract_rank_decomposition_beyond_six_leaves():
    # one seeded draw on every 7-leaf shape and on seeded 8- to 24-leaf trees,
    # each with at most twice as many cords as edges
    rng = random.Random(43)
    for t in [*trees_on(7), *seeded_trees(45, 60)]:
        interior = t.interior_edge_ids
        F = rng.sample(interior, rng.randint(0, len(interior)))
        pool = sorted(lm.all_cords(t.leaves))
        sub = rng.sample(pool, rng.randint(0, min(len(pool), 2 * len(t.edge_ids))))
        check_contract_rank_decomposition(t, F, sub)


def test_restriction_rank_examples(cat5):
    # a cord set over a leaf subset has one rank in the tree and in its
    # restriction to those leaves
    for labels, sub in ((set("abde"), lm.all_cords("abde")),
                        (set(cat5.leaves), cords("ab", "cd"))):
        restricted, _ = cat5.restrict(labels)
        assert matroid.rank_of(cat5, sub) == matroid.rank_of(restricted, sub)
    assert matroid.rank_of(cat5, lm.all_cords("abde")) == 5


def test_restriction_circuits_stay_circuits():
    for t in trees_on(5):
        if not t.is_binary():
            continue
        whole = set(matroid.circuits(t))
        for four in itertools.combinations(t.leaves, 4):
            sub, _ = t.restrict(set(four))
            for circ in matroid.circuits(sub):
                assert circ in whole


def test_leaf_rows_xor_to_packed_path_vectors():
    # A cord's packed row is the XOR of its two leaves' rows, in a space
    # without a tail and in spaces with one (the widest, with as many tail
    # columns as edges, has fields beyond 64 bits at 24 leaves); a unit tail
    # ORs in as the packed unit.
    trees = [t for n in (3, 4, 5, 6) for t in trees_on(n)]
    trees += seeded_trees(27, 12)
    for t in trees:
        m = len(t.edge_ids)
        for tail in sorted({0, 1, m}):
            space = RowSpace(m, tail=tail)
            rows = matroid._LeafRows(t, space)
            for k, (a, b) in enumerate(sorted(lm.all_cords(t.leaves))):
                vector = t.path_vector((a, b))
                assert rows[a] ^ rows[b] == space.pack((*vector, *[0] * tail))
                if tail:
                    unit = [int(i == k % tail) for i in range(tail)]
                    assert (rows[a] ^ rows[b] | space.pack_bits(1 << m + k % tail)
                            == space.pack((*vector, *unit)))
    with pytest.raises(ValueError, match="unknown leaf label 'z'"):
        matroid.rank_of(trees[0], [("a", "z")])


def test_pack_bits_refuses_bits_beyond_the_row():
    space = RowSpace(3, tail=1)
    assert space.pack_bits(0b1011) == space.pack((1, 1, 0, 1))
    for bits in (1 << 4, -1):
        with pytest.raises(ValueError, match="beyond this space's 4 columns"):
            space.pack_bits(bits)


def _closure_by_oracle(t, chosen):
    """{c : rank(S + c) = rank(S)}, ranks by Gauss-Jordan elimination.  At
    rank |E| that is every cord, as no rank exceeds |E|."""
    rows = [t.path_vector(c) for c in chosen]
    r = oracles.gauss_jordan_rank(rows)
    everything = lm.all_cords(t.leaves)
    if r == len(t.edge_ids):
        return everything
    return frozenset(c for c in everything
                     if oracles.gauss_jordan_rank([*rows, t.path_vector(c)]) == r)


def test_closure_matches_rank_oracle_on_every_small_cord_set():
    # Every cord subset of every shape on up to 5 leaves; a subset's oracle
    # rank is computed once and read for each one-cord extension.
    for t in [t for n in (3, 4, 5) for t in trees_on(n)]:
        pool = sorted(lm.all_cords(t.leaves))
        vectors = [t.path_vector(c) for c in pool]
        ranks = [oracles.gauss_jordan_rank([v for i, v in enumerate(vectors) if s >> i & 1])
                 for s in range(1 << len(pool))]
        for s, r in enumerate(ranks):
            want = frozenset(c for i, c in enumerate(pool) if ranks[s | 1 << i] == r)
            assert matroid.closure(t, [c for i, c in enumerate(pool) if s >> i & 1]) == want


def test_closure_matches_rank_oracle_at_scale():
    # Seeded sets on 8 to 24 leaves.  The oracle reduces every cord against
    # a set short of full rank, so above 12 leaves those sets stay small.
    # A greedy basis in seeded order plus five more cords spans, as does
    # every cord up to 12 leaves; both take the full-rank shortcut.
    rng = random.Random(28)
    spanning = 0
    for t in seeded_trees(29, 8):
        pool = sorted(lm.all_cords(t.leaves))
        m = len(t.edge_ids)
        small = t.n_leaves <= 12
        sets = [rng.sample(pool, k) for k in ((3, m // 2, m - 1, 2 * m) if small else (3, 6))]
        space = RowSpace(m)
        basis = [c for c in rng.sample(pool, len(pool)) if space.add(t.path_vector(c))]
        sets += [[*basis, *rng.sample(pool, 5)]] + [pool] * small
        for chosen in sets:
            want = _closure_by_oracle(t, chosen)
            assert matroid.closure(t, chosen) == want
            spanning += want == frozenset(pool)
    assert spanning >= 11
