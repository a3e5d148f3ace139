import itertools
import random

import pytest

import lassomatroid as lm
import oracles
from lassomatroid import matroid, reconstruct
from lassomatroid.tree import hang_leaf, quartet_topology
from helpers import cords, letters, snowflake, double_star, seeded_trees, trees_on


def test_quartet_sets_from_oracle_basics(quartet, star4, cat5):
    got = reconstruct.quartet_set_from_oracle(matroid.rank_oracle(quartet), "abcd")
    assert got.resolved == {(lm.cord("a", "b"), lm.cord("c", "d"))}
    got = reconstruct.quartet_set_from_oracle(matroid.rank_oracle(star4), "abcd")
    assert got.resolved == frozenset()
    got = reconstruct.quartet_set_from_oracle(matroid.rank_oracle(cat5), "abcde")
    assert len(got.resolved) == 5
    assert got.entry_for("abde") == (lm.cord("a", "b"), lm.cord("d", "e"))


def test_all_three_quartet_shapes_resolve_from_ranks():
    for pairing in (("a", "b", "c", "d"), ("a", "c", "b", "d"), ("a", "d", "b", "c")):
        t = lm.quartet_tree(*pairing)
        got = reconstruct.quartet_set_from_oracle(matroid.rank_oracle(t), "abcd")
        assert got.resolved == {(lm.cord(pairing[0], pairing[1]),
                                 lm.cord(pairing[2], pairing[3]))}


def test_oracle_quartets_match_tree_quartets_up_to_six_leaves():
    for n in (4, 5, 6):
        for t in trees_on(n):
            from_ranks = reconstruct.quartet_set_from_oracle(matroid.rank_oracle(t), t.leaves)
            from_tree = reconstruct.quartet_set_of_tree(t)
            assert from_ranks.resolved == from_tree.resolved


def test_non_tree_oracle_is_rejected():
    # two of the three 4-cycles come back dependent: a rank signature no tree
    # produces
    def bogus(cord_set):
        return 3 if lm.cord("a", "b") in cord_set else 4

    with pytest.raises(ValueError):
        reconstruct.quartet_set_from_oracle(bogus, "abcd")


def test_tree_from_oracle_roundtrips(quartet, star5):
    for t in (quartet, star5, lm.caterpillar_tree("abcde")):
        again = reconstruct.tree_from_oracle(matroid.rank_oracle(t), t.leaves)
        assert lm.are_equivalent(t, again)


def test_tree_from_oracle_roundtrips_exhaustive_small():
    for n in (3, 4, 5, 6, 7):
        for t in trees_on(n):
            again = reconstruct.tree_from_oracle(matroid.rank_oracle(t), t.leaves)
            assert again.to_newick() == t.to_newick()


def test_tree_from_oracle_roundtrips_beyond_six_leaves():
    skewed = lm.tree_from_newick("((a,b,c),d,((e,f),g));")
    assert sorted(skewed.degree(v) for v in skewed.interior_vertices) == [3, 3, 3, 4]
    # 24 leaves is the default bound
    labels = [f"x{i:02d}" for i in range(24)]
    rng = random.Random(5)
    grown = lm.star_tree(labels[:3])
    for x in labels[3:]:
        grown = rng.choice(list(hang_leaf(grown, x)))
    assert not grown.is_binary() and len(grown.interior_vertices) > 1
    for t in (lm.caterpillar_tree("abcdefgh"), lm.star_tree("abcdefgh"), skewed,
              lm.caterpillar_tree(labels), lm.star_tree(labels), grown):
        again = reconstruct.tree_from_oracle(matroid.rank_oracle(t), t.leaves)
        assert again.to_newick() == t.to_newick()


def test_tree_from_oracle_rejects_quartets_no_tree_displays():
    # every 4-leaf signature is tree-like, but {a,b,c,d} reads ac|bd while the
    # rest of the oracle reads ((a,b),c,(d,e))
    inner = matroid.rank_oracle(lm.tree_from_newick("((a,c),b,(d,e));"))
    outer = matroid.rank_oracle(lm.tree_from_newick("((a,b),c,(d,e));"))

    def mixed(cord_set):
        leaves = {x for c in cord_set for x in c}
        return (inner if leaves == set("abcd") else outer)(cord_set)

    assert len(reconstruct.quartet_set_from_oracle(mixed, "abcde").resolved) == 5
    with pytest.raises(ValueError, match="no tree displays"):
        reconstruct.tree_from_oracle(mixed, "abcde")


def test_tree_from_oracle_refuses_exactly_the_quartets_no_tree_displays():
    # every 5-leaf tree's oracle, with one 4-set read as another tree-like
    # signature: a tree comes back iff some 5-leaf shape displays the result;
    # both refusals are reached, the crossing clusters and the final check
    shapes = trees_on(5)
    displayed = {reconstruct.quartet_set_of_tree(t): t for t in shapes}
    refusals = set()
    for t in shapes:
        for a, b, c, d in itertools.combinations(t.leaves, 4):
            four = (a, b, c, d)
            signatures = [lm.star_tree(four), lm.quartet_tree(a, b, c, d),
                          lm.quartet_tree(a, c, b, d), lm.quartet_tree(a, d, b, c)]
            for sig in signatures:
                if quartet_topology(sig, four) == quartet_topology(t, four):
                    continue
                inner, outer = matroid.rank_oracle(sig), matroid.rank_oracle(t)

                def mixed(cord_set, inner=inner, outer=outer, four=set(four)):
                    leaves = {x for c in cord_set for x in c}
                    return (inner if leaves == four else outer)(cord_set)

                match = displayed.get(reconstruct.quartet_set_from_oracle(mixed, t.leaves))
                if match is not None:
                    again = reconstruct.tree_from_oracle(mixed, t.leaves)
                    assert lm.are_equivalent(again, match)
                    continue
                with pytest.raises(ValueError, match="no tree displays") as refused:
                    reconstruct.tree_from_oracle(mixed, t.leaves)
                refusals.add(str(refused.value).split(": ")[1])
    assert refusals == {"their clusters below 'a' cross",
                        "the tree their clusters give displays others"}


def test_matroids_equal_examples(quartet, star4):
    assert reconstruct.matroids_equal(quartet, quartet)
    other = lm.quartet_tree("a", "c", "b", "d")
    assert not reconstruct.matroids_equal(quartet, other)
    assert not reconstruct.matroids_equal(quartet, star4)
    # the crossing 4-cycle separates them: rank 4 in the quartet, 3 in the star
    square = cords("ab", "bc", "cd", "da")
    assert matroid.rank_of(quartet, square) == 4
    assert matroid.rank_of(star4, square) == 3


def test_matroids_equal_iff_equivalent_n4():
    shapes = trees_on(4)
    bases = {t: oracles.basis_set({c: t.path_vector(c) for c in lm.all_cords(t.leaves)})
             for t in shapes}
    for t1, t2 in itertools.combinations_with_replacement(shapes, 2):
        assert reconstruct.matroids_equal(t1, t2) == (bases[t1] == bases[t2])


def test_matroids_equal_iff_equivalent_on_a_six_leaf_sample():
    # each sampled shape against its own Newick text (equal, other edge ids),
    # a random shape and itself with one interior edge collapsed (one split
    # apart), compared with their basis sets
    rng = random.Random(23)
    shapes = trees_on(6)
    for t in rng.sample(shapes, 10):
        others = [lm.tree_from_newick(t.to_newick()), rng.choice(shapes)]
        if t.interior_edge_ids:
            others.append(t.contract([rng.choice(t.interior_edge_ids)]))
        for other in others:
            assert reconstruct.matroids_equal(t, other) \
                == (set(matroid.bases(t)) == set(matroid.bases(other)))


def test_matroids_equal_beyond_the_enumeration_bound():
    # no size bound: a seeded tree on up to 24 leaves equals its own Newick
    # text, and the rank oracle reads other quartets once an edge is collapsed
    for t in seeded_trees(47, 3):
        assert reconstruct.matroids_equal(t, lm.tree_from_newick(t.to_newick()))
        other = t.contract([t.interior_edge_ids[0]])
        assert not reconstruct.matroids_equal(t, other)
        assert (reconstruct.quartet_set_from_oracle(matroid.rank_oracle(t), t.leaves)
                != reconstruct.quartet_set_from_oracle(matroid.rank_oracle(other), t.leaves))


def test_matroids_equal_leaf_set_guard(quartet, star5):
    with pytest.raises(ValueError):
        reconstruct.matroids_equal(quartet, star5)


# -- witnesses against binariness ---------------------------------------------------


def test_witness_on_snowflake():
    w = reconstruct.nonbinary_witness(snowflake())
    assert w is not None
    assert len(w.hexagon) == 6 and len(w.quad) == 4 and len(w.triangles) == 6
    assert w.triangles == w.hexagon ^ w.quad


def test_witness_on_star6():
    assert reconstruct.nonbinary_witness(lm.star_tree(letters(6))) is not None


def test_witness_absent_on_caterpillar(cat6):
    assert reconstruct.nonbinary_witness(cat6) is None


def test_witness_sets_verify_against_oracle():
    t = double_star()
    w = reconstruct.nonbinary_witness(t)
    assert w is not None
    for circ in (w.hexagon, w.quad):
        assert matroid.rank_of(t, circ) == len(circ) - 1
        for drop in circ:
            assert matroid.verdict(t, circ - {drop}).independent
    assert matroid.verdict(t, w.triangles).independent


def test_witnesses_are_circuits_beyond_six_leaves():
    # every 7-leaf shape and seeded trees with 8 to 24 leaves: the hexagon and
    # the quad have rank one below their size and lose none by dropping a
    # cord, and their symmetric difference, the two triangles, is independent
    found = 0
    for t in [*trees_on(7), *seeded_trees(33, 60)]:
        w = reconstruct.nonbinary_witness(t)
        if w is None:
            continue
        rank = matroid.rank_oracle(t)
        for circ in (w.hexagon, w.quad):
            assert all(rank(circ - {drop}) == rank(circ) == len(circ) - 1 for drop in circ)
        assert rank(w.triangles) == len(w.triangles) == 6
        found += 1
    assert found


def test_is_binary_matroid_examples(star4):
    assert reconstruct.is_binary_matroid(star4).is_binary
    verdict = reconstruct.is_binary_matroid(snowflake())
    assert not verdict.is_binary
    assert verdict.violation is not None
    c1, c2 = verdict.violation
    # the reported pair really fails: the difference hides no decomposition
    assert not reconstruct._decomposes_into_circuits(
        c1 ^ c2, list(matroid.circuits(snowflake())), {})
    assert not reconstruct.is_binary_matroid(lm.star_tree(letters(6))).is_binary


def test_is_binary_scale_guard():
    with pytest.raises(lm.ScaleBoundError):
        reconstruct.is_binary_matroid(lm.star_tree(letters(7)))


def test_witness_implies_nonbinary_small():
    for n in (4, 5):
        for t in trees_on(n):
            w = reconstruct.nonbinary_witness(t)
            assert w is None  # three disjoint cherries need six leaves
            assert reconstruct.is_binary_matroid(t).is_binary


def test_shape_rule_matches_binary_verdict_small():
    for n in (4, 5):
        for t in trees_on(n):
            assert reconstruct.near_caterpillar_shape(t) == \
                reconstruct.is_binary_matroid(t).is_binary


def test_shape_rule_matches_binary_verdict_named_six_leaf_trees(cat6):
    cases = [
        (snowflake(), False),
        (lm.star_tree(letters(6)), False),
        (cat6, True),
        (double_star(), False),
        (lm.tree_from_newick("((a,b),(c,d),e,f);"), False),
        (lm.tree_from_newick("((a,b,c),(d,e,f));"), True),
        (lm.tree_from_newick("((a,b),c,d,(e,f));"), False),
    ]
    for t, expected in cases:
        assert reconstruct.near_caterpillar_shape(t) == expected
        assert reconstruct.is_binary_matroid(t).is_binary == expected
        if not expected:
            pass  # a witness may or may not exist; binariness is the claim


def test_witness_consistency_all_six_leaf_trees():
    # every tree with a witness is non-binary; the witness is its own proof,
    # so the full circuit check runs only on a sample
    sampled = 0
    for t in trees_on(6):
        w = reconstruct.nonbinary_witness(t)
        if w is None:
            continue
        assert not reconstruct.near_caterpillar_shape(t)
        if sampled < 4:
            assert not reconstruct.is_binary_matroid(t).is_binary
            sampled += 1
    assert sampled == 4
