import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import lassomatroid as lm
from helpers import letters, trees_on, binary_trees_on
from lassomatroid.tree import XTree, hang_leaf


# -- parsing -------------------------------------------------------------------


def test_parse_quartet_shape():
    tree, weighting = lm.parse_newick("((a,b),(c,d));")
    assert weighting is None
    assert len(tree.vertices) == 6
    assert len(tree.edge_ids) == 5
    assert tree.leaves == ("a", "b", "c", "d")
    assert lm.are_equivalent(tree, lm.quartet_tree("a", "b", "c", "d"))


def test_parse_star():
    tree, _ = lm.parse_newick("(a,b,c);")
    assert len(tree.vertices) == 4
    assert len(tree.edge_ids) == 3


def test_parse_rejects_degree_two():
    with pytest.raises(lm.NewickError):
        lm.parse_newick("(a,(b));")
    # the error names the one-child group, here "(c)" at position 7
    for text, position in (("((a,b),(c),d);", 7), ("((a,b),((c,d)));", 7),
                           ("((a,b),(c,(d)));", 10)):
        with pytest.raises(lm.NewickError, match="degree-2") as err:
            lm.parse_newick(text)
        assert err.value.position == position


def test_parse_rejects_duplicate_label():
    with pytest.raises(lm.NewickError, match="duplicate"):
        lm.parse_newick("((a,b),(a,c));")


def test_parse_rejects_too_few_leaves():
    with pytest.raises(lm.NewickError):
        lm.parse_newick("(a,b);")


def test_parse_reports_syntax_position():
    with pytest.raises(lm.NewickError) as err:
        lm.parse_newick("((a,b);")
    assert err.value.position is not None


def test_parse_rejects_missing_semicolon_and_trailing():
    with pytest.raises(lm.NewickError):
        lm.parse_newick("(a,b,c)")
    with pytest.raises(lm.NewickError):
        lm.parse_newick("(a,b,c); x")


def test_parse_weights_exact_rationals():
    tree, weighting = lm.parse_newick("(a:1/3,b:0.25,c:2);")
    values = sorted(weighting.values())
    assert values == [Fraction(1, 4), Fraction(1, 3), Fraction(2)]


def test_parse_rejects_partial_weights():
    with pytest.raises(lm.NewickError, match="all edges or none"):
        lm.parse_newick("(a:1,b,c);")


def test_parse_fuses_outer_pair_weights():
    tree, weighting = lm.parse_newick("((a:1,b:1):1/2,(c:1,d:1):3/2);")
    central = [eid for eid in tree.edge_ids if tree.is_interior_edge(eid)]
    assert len(central) == 1
    assert weighting[central[0]] == 2


def test_newick_roundtrip_all_small_trees():
    for n in (3, 4, 5, 6):
        for t in trees_on(n):
            again, w = lm.parse_newick(t.to_newick())
            assert w is None
            assert lm.are_equivalent(t, again)


def deep_caterpillar_newick(depth):
    """Newick text of a caterpillar whose groups nest ``depth`` levels deep."""
    text = "(x0,x1)"
    for i in range(2, depth + 1):
        text = f"({text},x{i})"
    return text + ";"


def test_newick_roundtrip_deeper_than_the_recursion_limit():
    tree = lm.tree_from_newick(deep_caterpillar_newick(1200))
    assert tree.n_leaves == 1201
    assert tree.is_caterpillar()
    again = lm.tree_from_newick(tree.to_newick())
    assert lm.are_equivalent(tree, again)
    assert again.to_newick() == tree.to_newick()


@st.composite
def grown_trees(draw, max_leaves=8):
    """A shape on 3 to ``max_leaves`` letters, each leaf hung at a drawn place."""
    labels = letters(draw(st.integers(3, max_leaves)))
    t = lm.star_tree(labels[:3])
    for x in labels[3:]:
        t = draw(st.sampled_from(list(hang_leaf(t, x))))
    return t


@given(grown_trees(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_newick_roundtrip_of_grown_shapes(t, weighted, data):
    weighting = None
    if weighted:
        weights = st.fractions(min_value=-5, max_value=5, max_denominator=12)
        weighting = {eid: data.draw(weights) for eid in t.edge_ids}
    text = t.to_newick(weighting)
    again, w2 = lm.parse_newick(text)
    assert lm.are_equivalent(t, again)
    assert again.to_newick(w2) == text
    if weighted:
        for c in lm.all_cords(t.leaves):
            assert again.distance(w2, c) == t.distance(weighting, c)
    else:
        assert w2 is None


def test_xtree_validation_messages():
    star = {0: 0b001, 1: 0b010, 2: 0b100}
    quartet = {0: 0b0001, 1: 0b0010, 2: 0b0100, 3: 0b1000, 4: 0b0011}
    cases = [
        ("ab", {0: 0b01, 1: 0b10}, "at least 3 leaves"),
        ("acb", star, "strictly increasing"),
        ("aab", star, "strictly increasing"),
        ("abc", {**star, 3: 0}, "split of edge 3 must hold some leaves but not all"),
        ("abc", {**star, 3: 0b111}, "split of edge 3 must hold some leaves but not all"),
        # ab|cd given from both sides is one split
        ("abcd", {**quartet, 5: 0b1100}, "edges 4 and 5 have the same split"),
        ("abcde", {i: 1 << i for i in range(5)} | {5: 0b00110, 6: 0b01100},
         "split of edge 5 crosses another split"),
        ("abcd", {k: v for k, v in quartet.items() if k != 3}, "leaf 'd' has no edge"),
        ("abc", {1: 0b010, 2: 0b100}, "leaf 'a' has no edge"),
    ]
    for labels, splits, message in cases:
        with pytest.raises(ValueError, match=message):
            XTree(labels, splits)


def test_xtree_builds_exactly_the_nested_split_families():
    # the six singletons of abcdef with one to three of the 25 clusters of
    # 2 to 4 leaves without a: a family is built, with exactly its splits,
    # iff no two of its clusters cross, and refused as crossing otherwise
    labels = "abcdef"
    clusters = [sum(1 << i for i in picked) for k in (2, 3, 4)
                for picked in itertools.combinations(range(1, 6), k)]
    built = refused = 0
    for r in (1, 2, 3):
        for family in itertools.combinations(clusters, r):
            splits = dict(enumerate([1 << i for i in range(6)] + list(family)))
            if any(a & b not in (0, a, b) for a, b in itertools.combinations(family, 2)):
                with pytest.raises(ValueError, match="crosses another split"):
                    XTree(labels, splits)
                refused += 1
                continue
            t = XTree(labels, splits)
            for eid, mask in splits.items():
                side = {x for i, x in enumerate(labels) if mask >> i & 1}
                assert {t.side(eid, v) for v in t.edges[eid]} == {
                    frozenset(side), frozenset(labels) - side}
            built += 1
    assert (built, refused) == (235, 2390)


def test_side_splits_the_leaves_at_an_edge(quartet):
    (central,) = quartet.interior_edge_ids
    u, v = sorted(quartet.edges[central], key=repr)
    sides = {quartet.side(central, u), quartet.side(central, v)}
    assert sides == {frozenset("ab"), frozenset("cd")}
    a = quartet.leaf_vertex("a")
    pendant = quartet.pendant_edge("a")
    assert quartet.side(pendant, a) == frozenset("a")
    (hub,) = quartet.edges[pendant] - {a}
    assert quartet.side(pendant, hub) == frozenset("bcd")
    with pytest.raises(ValueError):
        quartet.side(pendant, quartet.leaf_vertex("c"))


def test_newick_weight_roundtrip(quartet):
    rng = random.Random(7)
    weighting = {eid: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                 for eid in quartet.edge_ids}
    text = quartet.to_newick(weighting)
    again, w2 = lm.parse_newick(text)
    assert lm.are_equivalent(quartet, again)
    for c in lm.all_cords("abcd"):
        assert quartet.distance(weighting, c) == again.distance(w2, c)


# -- paths and distances ----------------------------------------------------------


def test_path_vector_quartet(quartet):
    cherry = quartet.path_vector(lm.cord("a", "b"))
    crossing = quartet.path_vector(lm.cord("a", "c"))
    assert sum(cherry) == 2
    assert sum(crossing) == 3
    (central,) = quartet.interior_edge_ids
    col = quartet.edge_column[central]
    assert crossing[col] == 1 and cherry[col] == 0


def test_path_vector_unknown_label(quartet):
    with pytest.raises(ValueError):
        quartet.path_vector(("a", "nope"))


def test_sides_and_distances_match_oracles_on_small_shapes():
    rng = random.Random(17)
    for n in (3, 4, 5, 6):
        for t in trees_on(n):
            pairs = t.edges
            labels = {t.leaf_vertex(x): x for x in t.leaves}
            for eid, ends in pairs.items():
                for v in ends:
                    assert t.side(eid, v) == oracles.leaf_side(pairs, labels, eid, v)
            weighting = {eid: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for eid in pairs}
            raw = {ends: weighting[eid] for eid, ends in pairs.items()}
            for c in lm.all_cords(t.leaves):
                want = oracles.bfs_distances(raw, t.leaf_vertex(c[0]))[t.leaf_vertex(c[1])]
                assert t.distance(weighting, c) == want


def test_distance_unit_weights(quartet):
    unit = {eid: 1 for eid in quartet.edge_ids}
    assert quartet.distance(unit, lm.cord("a", "b")) == 2
    assert quartet.distance(unit, lm.cord("a", "c")) == 3
    zero = {eid: 0 for eid in quartet.edge_ids}
    assert quartet.distance(zero, lm.cord("a", "c")) == 0


def test_distance_requires_full_domain(quartet):
    with pytest.raises(ValueError):
        quartet.distance({quartet.edge_ids[0]: 1}, lm.cord("a", "b"))


def test_four_point_condition_random_weightings():
    rng = random.Random(20260808)
    for n in (4, 5, 6):
        for t in trees_on(n):
            weighting = {eid: Fraction(rng.randint(0, 12), rng.randint(1, 4))
                         for eid in t.edge_ids}
            for four in itertools.combinations(t.leaves, 4):
                a, b, c, d = four
                sums = sorted([
                    t.distance(weighting, lm.cord(a, b)) + t.distance(weighting, lm.cord(c, d)),
                    t.distance(weighting, lm.cord(a, c)) + t.distance(weighting, lm.cord(b, d)),
                    t.distance(weighting, lm.cord(a, d)) + t.distance(weighting, lm.cord(b, c)),
                ])
                assert sums[1] == sums[2]


# -- surgery ---------------------------------------------------------------------


def test_contract_central_edge_gives_star(quartet, star4):
    f = quartet.interior_edge_ids[0]
    collapsed = quartet.contract({f})
    assert lm.are_equivalent(collapsed, star4)
    # surviving edge ids preserved
    assert set(collapsed.edge_ids) == set(quartet.edge_ids) - {f}


def test_contract_empty_is_identity(quartet):
    assert quartet.contract(set()) is quartet


def test_contract_rejects_pendant(quartet):
    pendant = quartet.pendant_edge("a")
    with pytest.raises(ValueError):
        quartet.contract({pendant})


def test_contract_caterpillar_to_star(cat5):
    collapsed = cat5.contract(cat5.interior_edge_ids)
    assert lm.are_equivalent(collapsed, lm.star_tree("abcde"))


def test_contract_one_by_one_matches_batch():
    for t in trees_on(5):
        interior = t.interior_edge_ids
        for f, g in itertools.combinations(interior, 2):
            stepwise = t.contract({f}).contract({g})
            batch = t.contract({f, g})
            assert lm.are_equivalent(stepwise, batch)


def test_contract_distances_match_zero_weight_oracle():
    """Every shape with n <= 6 and every set F of one or two interior edges:
    distances in the collapsed tree are the full tree's with weight 0 on F."""
    rng = random.Random(4)
    for n in range(4, 7):
        for t in trees_on(n):
            interior = t.interior_edge_ids
            for F in [*itertools.combinations(interior, 1), *itertools.combinations(interior, 2)]:
                collapsed = t.contract(F)
                assert set(collapsed.edge_ids) == set(t.edge_ids) - set(F)
                weighting = {eid: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                             for eid in collapsed.edge_ids}
                raw = {ends: weighting.get(eid, Fraction(0)) for eid, ends in t.edges.items()}
                for x, y in itertools.combinations(t.leaves, 2):
                    want = oracles.bfs_distances(raw, t.leaf_vertex(x))[t.leaf_vertex(y)]
                    assert collapsed.distance(weighting, (x, y)) == want


def test_restrict_triple_is_star(quartet):
    sub, condensed = quartet.restrict({"a", "b", "c"})
    assert lm.are_equivalent(sub, lm.star_tree("abc"))
    # every original edge is condensed into at most one new edge
    used = list(itertools.chain.from_iterable(condensed.values()))
    assert len(used) == len(set(used))


def test_restrict_caterpillar_quartet(cat5):
    sub, _ = cat5.restrict({"a", "b", "d", "e"})
    assert lm.are_equivalent(sub, lm.quartet_tree("a", "b", "d", "e"))


def test_restrict_identity(cat5):
    sub, condensed = cat5.restrict(set(cat5.leaves))
    assert lm.are_equivalent(sub, cat5)
    assert all(len(chain) == 1 for chain in condensed.values())


def test_restrict_rejects_bad_input(cat5):
    with pytest.raises(ValueError):
        cat5.restrict({"a", "b"})
    with pytest.raises(ValueError):
        cat5.restrict({"a", "b", "zz"})


def test_restrict_weighting_sums_chains():
    """Every shape with n <= 6 and every subset of >= 3 leaves: the restricted
    weighting gives the full tree's breadth-first distances, and the chains
    are disjoint and cover exactly the edges on paths between kept leaves."""
    rng = random.Random(3)
    for n in range(3, 7):
        for t in trees_on(n):
            pairs = t.edges
            labels = {t.leaf_vertex(x): x for x in t.leaves}
            sides = {eid: oracles.leaf_side(pairs, labels, eid, next(iter(ends)))
                     for eid, ends in pairs.items()}
            weighting = {eid: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for eid in pairs}
            raw = {ends: weighting[eid] for eid, ends in pairs.items()}
            dist = {x: oracles.bfs_distances(raw, t.leaf_vertex(x)) for x in t.leaves}
            for k in range(3, n + 1):
                for ys in itertools.combinations(t.leaves, k):
                    sub, condensed = t.restrict(ys)
                    induced = lm.restrict_weighting(weighting, condensed)
                    for x, y in itertools.combinations(ys, 2):
                        assert sub.distance(induced, (x, y)) == dist[x][t.leaf_vertex(y)]
                    used = [eid for chain in condensed.values() for eid in chain]
                    spanned = {eid for eid, side in sides.items() if 0 < len(side & set(ys)) < k}
                    assert len(used) == len(set(used))
                    assert set(used) == spanned


def test_restrict_then_restrict_matches_intersection():
    for t in trees_on(6):
        sub1, _ = t.restrict({"a", "b", "c", "d", "e"})
        sub2, _ = sub1.restrict({"a", "b", "c", "d"})
        direct, _ = t.restrict({"a", "b", "c", "d"})
        assert lm.are_equivalent(sub2, direct)


# -- cherries, shapes, equivalence --------------------------------------------------


def test_cherries_quartet_and_stars(quartet, star3, star4):
    assert quartet.cherries() == [(lm.cord("a", "b"), True), (lm.cord("c", "d"), True)]
    assert [(c, p) for c, p in star4.cherries() if p] == []
    assert len(star4.cherries()) == 6
    assert star3.cherries() == [(lm.cord("a", "b"), True), (lm.cord("a", "c"), True),
                                (lm.cord("b", "c"), True)]


def test_caterpillar_flags(star3, star4, cat6):
    assert lm.caterpillar_tree("abcdef").is_caterpillar()
    assert star3.is_caterpillar()
    assert not star4.is_caterpillar()
    snowflake = lm.tree_from_newick("((a,d),(b,e),(c,f));")
    assert not snowflake.is_caterpillar()
    assert cat6.is_caterpillar()


def test_caterpillar_tree_on_three_labels_is_the_star():
    with pytest.raises(ValueError, match="an X-tree needs at least 3 leaves"):
        lm.caterpillar_tree("ab")
    labels = ["c", "a", "b"]
    t = lm.caterpillar_tree(labels)
    assert lm.are_equivalent(t, lm.star_tree("abc"))
    assert [t.pendant_edge(x) for x in labels] == [0, 1, 2]


def test_equivalence_ignores_child_order():
    t1 = lm.tree_from_newick("((a,b),(c,d));")
    t2 = lm.tree_from_newick("((c,d),(b,a));")
    assert lm.are_equivalent(t1, t2)


def test_equivalence_distinguishes_quartets():
    assert not lm.are_equivalent(lm.quartet_tree("a", "b", "c", "d"),
                                 lm.quartet_tree("a", "c", "b", "d"))


def test_equivalence_sees_contraction(quartet):
    collapsed = quartet.contract(quartet.interior_edge_ids)
    assert not lm.are_equivalent(quartet, collapsed)


def test_equivalence_requires_same_leaves(quartet, star3):
    with pytest.raises(ValueError):
        lm.are_equivalent(quartet, star3)


# -- enumeration --------------------------------------------------------------------


def test_enumeration_counts_match_partition_recurrence():
    for n in (3, 4, 5, 6, 7):
        assert len(trees_on(n)) == oracles.unrooted_xtree_count(n)
    assert len(trees_on(7)) == 2752
    assert len(binary_trees_on(7)) == 945


def test_enumeration_counts_match_prufer_brute_force():
    for n in (3, 4, 5):
        assert len(trees_on(n)) == oracles.xtree_count_by_prufer(n)


def test_enumeration_is_duplicate_free():
    for n in (3, 4, 5, 6, 7):
        keys = [t.canonical_form() for t in trees_on(n)]
        assert len(keys) == len(set(keys))
        binary_keys = [t.canonical_form() for t in binary_trees_on(n)]
        assert len(binary_keys) == len(set(binary_keys))
        assert all(t.is_binary() for t in binary_trees_on(n))


def test_hang_leaf_places_the_leaf_once_per_edge_and_interior_vertex():
    for t in trees_on(5):
        grown = list(hang_leaf(t, "f"))
        m = len(t.edge_ids)
        assert len(grown) == m + len(t.interior_vertices)
        # an edge hanging subdivides the edge, a vertex hanging adds no vertex
        added = [len(g.interior_vertices) - len(t.interior_vertices) for g in grown]
        assert added == [1] * m + [0] * (len(grown) - m)
        assert len({g.canonical_form() for g in grown}) == len(grown)
        for g in grown:
            assert lm.are_equivalent(g.restrict(t.leaves)[0], t)
    with pytest.raises(ValueError):
        list(hang_leaf(trees_on(4)[0], "a"))


def test_enumeration_includes_binary_and_star():
    shapes = trees_on(5)
    assert sum(1 for t in shapes if t.is_binary()) == len(binary_trees_on(5)) == 15
    assert sum(1 for t in shapes if len(t.interior_vertices) == 1) == 1


def test_enumeration_bound():
    with pytest.raises(lm.ScaleBoundError):
        list(lm.enumerate_xtrees(letters(8), max_leaves=7))


def test_equivalence_relation_on_enumeration():
    shapes = trees_on(4)
    for t in shapes:
        assert lm.are_equivalent(t, t)
    for t1, t2 in itertools.combinations(shapes, 2):
        assert not lm.are_equivalent(t1, t2)
        assert lm.are_equivalent(t1, t2) == lm.are_equivalent(t2, t1)


# -- quartet topology ---------------------------------------------------------------


def test_quartet_topology_basics(quartet, star4, cat5):
    assert lm.quartet_topology(quartet, "abcd") == (lm.cord("a", "b"), lm.cord("c", "d"))
    assert lm.quartet_topology(star4, "abcd") is None
    assert lm.quartet_topology(cat5, ("a", "b", "d", "e")) == (lm.cord("a", "b"), lm.cord("d", "e"))


def test_quartet_topology_matches_restriction_and_distances():
    rng = random.Random(99)
    for t in trees_on(6):
        # independent oracle: strictly positive interior weights, distances, four-point sums
        weighting = {eid: Fraction(rng.randint(1, 7)) for eid in t.edge_ids}
        raw = {frozenset(t.edges[eid]): Fraction(w) for eid, w in weighting.items()}
        for four in itertools.combinations(t.leaves, 4):
            got = lm.quartet_topology(t, four)
            sub, _ = t.restrict(set(four))
            if got is None:
                assert len(sub.interior_vertices) == 1
            else:
                assert lm.are_equivalent(sub, lm.quartet_tree(*got[0], *got[1]))
            dist = {}
            for x, y in itertools.combinations(sorted(four), 2):
                source = oracles.bfs_distances(raw, t.leaf_vertex(x))
                dist[frozenset((x, y))] = source[t.leaf_vertex(y)]
            want = oracles.quartet_from_distances(dist)
            if want is None:
                assert got is None
            else:
                assert got == (lm.cord(*want[0]), lm.cord(*want[1]))
