import itertools
import random
from fractions import Fraction

import pytest

import lassomatroid as lm
from lassomatroid import lasso, matroid
from lassomatroid.stargraph import analyze
import oracles
from helpers import (binary_trees_on, cords, double_star, interior_splits, letters,
                     seeded_trees, trees_on)


def proper_cherry_caterpillar():
    """Caterpillar with cherries ab and ef; all its cherries are proper."""
    return lm.caterpillar_tree("abcdef")


# -- covers and splits -----------------------------------------------------------


def test_t_cover_examples(quartet):
    assert lasso.is_t_cover(quartet, lm.cross_cords("ac", "bd"))
    assert not lasso.is_t_cover(quartet, lm.cross_cords("ab", "cd"))
    assert lasso.is_t_cover(quartet, lm.all_cords("abcd"))


def test_split_check_examples(quartet):
    assert lasso.split_check(quartet, {"a", "c"}, {"b", "d"})
    assert not lasso.split_check(quartet, {"a", "b"}, {"c", "d"})
    assert lasso.split_check(proper_cherry_caterpillar(), {"a", "d", "f"}, {"b", "c", "e"})


def test_split_check_input_validation(quartet, star3):
    with pytest.raises(ValueError):
        lasso.split_check(quartet, {"a"}, {"b"})
    with pytest.raises(ValueError):
        lasso.split_check(star3, {"a"}, {"b", "c"})


def test_pointed_covers_quartet(quartet):
    covers = sorted(map(sorted, lasso.pointed_covers(quartet, "d")))
    assert len(covers) == 2
    expected = sorted(cords("ad", "bd", "cd", "ab", "ac"))
    assert expected in covers
    for cover in covers:
        assert len(cover) == 2 * 4 - 3


def test_pointed_covers_require_binary(star4):
    with pytest.raises(ValueError):
        next(iter(lasso.pointed_covers(star4, "a")))


def test_pointed_covers_are_bases_and_strong():
    for n in (4, 5):
        for t in binary_trees_on(n):
            for x in t.leaves:
                for cover in lasso.pointed_covers(t, x):
                    assert matroid.verdict(t, cover).basis
                    assert lasso.is_topological_lasso(t, cover)


def test_first_pointed_covers_are_bases_beyond_five_leaves():
    # the first cover per anchor, on every 7-leaf binary shape and on seeded
    # binary trees with 8 to 24 leaves
    for t in [*binary_trees_on(7), *seeded_trees(31, 60, binary=True)]:
        for x in t.leaves:
            cover = next(lasso.pointed_covers(t, x))
            assert len(cover) == 2 * t.n_leaves - 3 == matroid.rank_of(t, cover)


def test_pointed_cover_intersections_force_caterpillar_ends():
    for n in (5, 6):
        for t in binary_trees_on(n):
            per_leaf = {x: set(lasso.pointed_covers(t, x)) for x in t.leaves}
            for x1, x2 in itertools.combinations(t.leaves, 2):
                if per_leaf[x1] & per_leaf[x2]:
                    assert t.is_caterpillar()
                    # the two anchors sit at opposite ends: their path passes
                    # every interior edge
                    path = t.path_vector(lm.cord(x1, x2))
                    for eid in t.interior_edge_ids:
                        assert path[t.edge_column[eid]] == 1


def test_pointed_cover_order_depends_on_the_splits_alone():
    def sequence(t, x, k=300):
        return [sorted(c) for c in itertools.islice(lasso.pointed_covers(t, x), k)]

    def hung_at(t):
        """The number of the vertex each leaf hangs from."""
        return [t.neighbors(t.leaf_vertex(x))[0][0] for x in t.leaves]

    six = lm.tree_from_newick("((a,b),(c,d),(e,f));")
    rerooted = lm.tree_from_newick("(e,f,((c,d),(a,b)));")
    restricted, _ = lm.tree_from_newick("((a,b),(c,d),((e,f),g));").restrict(set("abcdef"))
    # twelve leaves: ten interior vertices; every build numbers them by the
    # splits alone, so a parse and a restriction give the same numbers
    big = lm.tree_from_newick("(((i,j),(k,l)),((a,b),(c,d)),((e,f),(g,h)));")
    big_restricted, _ = lm.tree_from_newick(
        "(((a,b),(c,d)),((e,f),(g,h)),((i,j),((k,l),(m,n))));").restrict(set("abcdefghijkl"))
    assert len(big.interior_vertices) == 10
    for t, same in ((six, rerooted), (rerooted, restricted), (big, big_restricted)):
        assert lm.are_equivalent(t, same) and hung_at(t) == hung_at(same)
        for x in t.leaves:
            assert sequence(t, x) == sequence(same, x)


# -- the topological decider ------------------------------------------------------


def test_topological_examples(quartet):
    assert lm.is_topological_lasso(quartet, lm.cross_cords("ac", "bd"))
    assert not lm.is_topological_lasso(quartet, lm.cross_cords("ab", "cd"))
    assert not lm.is_topological_lasso(quartet, cords("ab", "cd"))
    assert lm.is_topological_lasso(quartet, lm.all_cords("abcd"))


def test_topological_full_cord_set_everywhere():
    for n in (3, 4, 5):
        for t in trees_on(n):
            assert lm.is_topological_lasso(t, lm.all_cords(t.leaves))


def test_topological_three_leaves_vacuous(star3):
    assert lm.is_topological_lasso(star3, frozenset())


def test_topological_scale_guard():
    big = lm.star_tree(letters(7))
    with pytest.raises(lm.ScaleBoundError):
        lm.is_topological_lasso(big, lm.all_cords(letters(7)))


def test_topological_matches_split_characterization():
    for n in (4, 5):
        for t in trees_on(n):
            for side_a, side_b in lasso.leaf_bipartitions(t.leaves):
                two = lm.cross_cords(side_a, side_b)
                topological = lm.is_topological_lasso(t, two)
                assert topological == lasso.split_check(t, side_a, side_b)
                assert topological == lasso.is_t_cover(t, two)


def paper_agreement_system(shape, tree, cords):
    """Weightings of both trees, positive on interior edges and non-negative on
    pendant edges as in the paper, that agree on the cords."""
    edges = [(t, eid) for t in (shape, tree) for eid in t.edge_ids]
    equalities = [([*shape.path_vector(c), *(-x for x in tree.path_vector(c))], 0)
                  for c in sorted(cords)]
    strict, weak = [], []
    for col, (t, eid) in enumerate(edges):
        row = [int(i == col) for i in range(len(edges))]
        (strict if t.is_interior_edge(eid) else weak).append((row, 0))
    return lm.LinearSystem(equalities=equalities, strict_inequalities=strict,
                           weak_inequalities=weak)


def exhaustive_topological(tree, cords):
    """No competing shape on the same leaves can agree with the tree on the cords."""
    own = tree.canonical_form()
    return not any(
        shape.canonical_form() != own
        and lm.feasible(paper_agreement_system(shape, tree, cords))
        for shape in lm.enumerate_xtrees(tree.leaves))


def test_pruned_decider_matches_exhaustive_shape_search(monkeypatch):
    # the reference has a variable for every edge and allows zero pendant
    # weights; the decider's systems hold the interior edges alone, and the
    # proof that this keeps the verdicts is in lasso._agreement_system
    monkeypatch.setattr(lasso, "_topological_memo", {})
    cases = []
    every = sorted(lm.all_cords(letters(4)))
    for t in trees_on(4):
        for r in range(len(every) + 1):
            cases += [(t, frozenset(sub)) for sub in itertools.combinations(every, r)]
    rng = random.Random(5)
    every = sorted(lm.all_cords(letters(5)))
    for _ in range(60):
        p = rng.choice((0.5, 0.7, 0.9))
        cases.append((rng.choice(trees_on(5)), frozenset(c for c in every if rng.random() < p)))
    seen = set()
    for t, sub in cases:
        want = exhaustive_topological(t, sub)
        assert lm.is_topological_lasso(t, sub) == want, (t, sorted(sub))
        seen.add((t.n_leaves, want))
    assert seen == {(4, False), (4, True), (5, False), (5, True)}


def is_connected_noncover(t, sub):
    return len(analyze(t.leaves, sub).components) == 1 and not lasso.is_t_cover(t, sub)


def noncover_sample():
    """Connected non-covers: every cord subset of every 4-leaf shape, three
    seeded random ones on every 5-leaf shape and 30 on random 6-leaf shapes."""
    every = sorted(lm.all_cords(letters(4)))
    cases = [(t, frozenset(sub)) for t in trees_on(4) for r in range(len(every) + 1)
             for sub in itertools.combinations(every, r)
             if is_connected_noncover(t, frozenset(sub))]
    rng = random.Random(15)
    for t in [t for t in trees_on(5) for _ in range(3)] \
            + [rng.choice(trees_on(6)) for _ in range(30)]:
        every = sorted(lm.all_cords(t.leaves))
        p = rng.choice((0.5, 0.7, 0.8, 0.9))
        while True:
            sub = frozenset(c for c in every if rng.random() < p)
            if is_connected_noncover(t, sub):
                cases.append((t, sub))
                break
    return cases


def test_search_alone_rejects_every_noncover(monkeypatch):
    # the t-cover shortcut in is_topological_lasso must agree with its own search
    cases = noncover_sample()
    assert {t.canonical_form() for t, _sub in cases} >= \
        {t.canonical_form() for t in trees_on(4) + trees_on(5)}
    searched = []
    real = lasso.feasible
    monkeypatch.setattr(lasso, "feasible", lambda *a, **k: searched.append(1) or real(*a, **k))
    monkeypatch.setattr(lasso, "is_t_cover", lambda tree, cords: True)
    for t, sub in cases:
        monkeypatch.setattr(lasso, "_topological_memo", {})
        assert not lm.is_topological_lasso(t, sub), (t, sorted(sub))
    assert searched


def test_noncovers_never_reach_feasibility(monkeypatch):
    # every cord subset of every shape with 4 or 5 leaves: a non-cover is
    # rejected before the search, a t-cover is connected, so the t-cover test
    # also stands in for a connectivity test
    def refuse(*_args, **_kwargs):
        raise AssertionError("a non-cover reached the feasibility search")

    monkeypatch.setattr(lasso, "_topological_memo", {})
    monkeypatch.setattr(lasso, "feasible", refuse)
    for n in (4, 5):
        every = sorted(lm.all_cords(letters(n)))
        for t in trees_on(n):
            for r in range(len(every) + 1):
                for sub in map(frozenset, itertools.combinations(every, r)):
                    if lasso.is_t_cover(t, sub):
                        assert len(analyze(t.leaves, sub).components) == 1, (t, sorted(sub))
                    else:
                        assert not lm.is_topological_lasso(t, sub)
    for t, sub in noncover_sample():
        assert not lm.is_topological_lasso(t, sub)


def test_noncover_decided_beyond_the_scale_bound():
    # the leaf path a-b, b-c, ..., h-i of the 9-leaf caterpillar
    t = lm.tree_from_newick("((((((((a,b),c),d),e),f),g),h),i);")
    path = cords(*("abcdefghi"[i:i + 2] for i in range(8)))
    assert len(analyze(t.leaves, path).components) == 1
    assert not lasso.is_t_cover(t, path)
    assert lm.is_topological_lasso(t, path) is False
    report = lm.lasso_report(t, path)
    assert report.topological is False and report.strong is False


def test_search_builds_no_tree(monkeypatch):
    # a 6-leaf two-sided t-cover: only the full shape search decides it, and
    # the search grows cluster lists, never an XTree
    t = lm.tree_from_newick("((a,d),(b,e),(c,f));")
    two = lm.cross_cords("abc", "def")
    assert lasso.is_t_cover(t, two) and lasso.split_check(t, set("abc"), set("def"))

    def refuse(*_args, **_kwargs):
        raise AssertionError("the topological search built a tree")

    monkeypatch.setattr(lasso, "_topological_memo", {})
    monkeypatch.setattr(lm.XTree, "__init__", refuse)
    assert lm.is_topological_lasso(t, two) is True


def test_seven_leaf_caterpillar_cover_is_decided():
    # a minimal t-cover of the 7-leaf caterpillar whose agreement systems over
    # every edge of both trees overran the Fourier-Motzkin row limit
    t = lm.tree_from_newick("((((((a,b),c),d),e),f),g);")
    cover = cords("ab", "ac", "ag", "bd", "ce", "de", "ef", "fg")
    assert lasso.is_t_cover(t, cover)
    assert lm.is_topological_lasso(t, cover, max_leaves=7) is False
    # the witness: a competing shape and the tree, positive on every edge,
    # with equal distances on all 8 cords
    shape, w_shape = lm.parse_newick("((((c:3,g:2):1,f:3):3,(b:1,e:2):1):1,a:3,d:1);")
    tree, w_tree = lm.parse_newick("(((((f:5,g:1):1,e:3):1,d:1):1,c:5):1,a:5,b:1);")
    assert lm.are_equivalent(tree, t) and not lm.are_equivalent(shape, t)
    assert all(isinstance(w, Fraction) and w > 0 for w in [*w_shape.values(), *w_tree.values()])
    for c in cover:
        assert shape.distance(w_shape, c) == tree.distance(w_tree, c)


def test_topological_variable_cap_follows_the_leaf_bound(monkeypatch):
    # 8 leaves give agreement systems of up to 5 + 5 = 10 interior variables,
    # the cap 2 * 8 - 6; the leaf bound admits them, and the widest reach it
    monkeypatch.setattr(lasso, "_topological_memo", {})
    seen = []

    def recording(system, max_variables):
        seen.append((system.nvars, max_variables))
        return lm.feasible(system, max_variables=max_variables)

    monkeypatch.setattr(lasso, "feasible", recording)
    t = lm.tree_from_newick("(((a,b),(c,d)),((e,f),(g,h)));")
    for side_a, side_b in (("aceg", "bdfh"), ("abcd", "efgh")):
        two = lm.cross_cords(side_a, side_b)
        assert lm.is_topological_lasso(t, two, max_leaves=8) \
            == lasso.split_check(t, set(side_a), set(side_b))
    assert {cap for _, cap in seen} == {10}
    assert max(nvars for nvars, _ in seen) == 10


def cord_pairs(sub):
    """Cords of letters as pairs of leaf indices."""
    return [(ord(x) - ord("a"), ord(y) - ord("a")) for x, y in sorted(sub)]


def test_cancelling_combinations_are_a_basis_of_the_left_kernel():
    # every cord set on 4 and 5 leaves and a seeded sample on 6: the
    # combinations cancel every leaf part, are independent, and number
    # |cords| - rank D for the cord-leaf incidence D
    sets = [(n, sub) for n in (4, 5) for every in [sorted(lm.all_cords(letters(n)))]
            for r in range(len(every) + 1) for sub in itertools.combinations(every, r)]
    rng = random.Random(26)
    every = sorted(lm.all_cords(letters(6)))
    sets += [(6, [c for c in every if rng.random() < 0.7]) for _ in range(200)]
    sizes = set()
    for n, sub in sets:
        pairs = cord_pairs(sub)
        incidence = [[int(x in pair) for x in range(n)] for pair in pairs]
        found = lasso._cancelling_combinations(n, pairs)
        vectors = []
        for combo in found:
            coefficient = {(a, b): y for a, b, y in combo}
            y = [coefficient.get(pair, 0) for pair in pairs]
            assert [sum(c * row[x] for c, row in zip(y, incidence)) for x in range(n)] \
                == [0] * n, (n, pairs, combo)
            vectors.append(y)
        assert len(found) == len(pairs) - oracles.gauss_jordan_rank(incidence)
        assert oracles.gauss_jordan_rank(vectors) == len(found)
        sizes.add(len(found))
    assert sizes >= set(range(10 - 5 + 1))


def test_prefix_decision_matches_the_leaf_difference_system(monkeypatch):
    # every ordered pair of distinct 4-leaf shapes under all 64 cord sets,
    # and seeded 5-leaf pairs: the sign rule, then feasibility over the
    # interior edges, decides as the system with a free difference per leaf
    calls = []
    monkeypatch.setattr(lasso, "feasible",
                        lambda system, **k: calls.append(1) or lm.feasible(system, **k))
    every = sorted(lm.all_cords(letters(4)))
    cases = [(4, s, t, sub) for s in trees_on(4) for t in trees_on(4) if s is not t
             for r in range(len(every) + 1) for sub in itertools.combinations(every, r)]
    rng = random.Random(2026)
    every = sorted(lm.all_cords(letters(5)))
    for _ in range(600):
        shape, tree = rng.sample(trees_on(5), 2)
        p = rng.choice((0.5, 0.7, 0.9))
        cases.append((5, shape, tree, [c for c in every if rng.random() < p]))
    verdicts = set()
    sign_decided = 0
    for n, shape, tree, sub in cases:
        pairs = cord_pairs(sub)
        combinations = lasso._cancelling_combinations(n, pairs)
        tree_columns = [[-y for y in lasso._edge_column(combinations, m)]
                        for m in interior_splits(tree)]
        before = len(calls)
        got = lasso._can_agree(combinations, tree_columns, interior_splits(shape),
                               max_variables=2 * n - 6)
        sign_decided += len(calls) == before
        want = lm.feasible(lm.LinearSystem(*oracles.leaf_difference_system(
            n, pairs, interior_splits(shape), interior_splits(tree))), max_variables=3 * n - 6)
        assert got == want, (shape.to_newick(), tree.to_newick(), pairs)
        verdicts.add((n, got))
    assert len(cases) == 12 * 64 + 600
    assert verdicts == {(4, False), (4, True), (5, False), (5, True)}
    assert 0 < sign_decided < len(cases)


# -- aggregate reports ---------------------------------------------------------------


def test_lasso_report_minimal_strong_pair():
    t = double_star()
    set_a = cords("ab", "ac", "ad", "bc", "bd", "cd", "ef", "ae", "be", "ce", "de", "df")
    set_b = cords("ab", "ac", "ad", "bc", "bd", "cd", "ef", "ae", "be", "cf", "df")
    for sub in (set_a, set_b):
        report = lm.lasso_report(t, sub)
        assert report.edge_weight and report.topological and report.strong
        assert lm.is_minimal_strong_lasso(t, sub)
    assert len(set_a) == len(set_b) + 1


def test_lasso_report_trivial_cases(quartet):
    report = lm.lasso_report(quartet, cords("ab"))
    assert report.rank == 1
    assert not report.edge_weight and not report.topological and not report.strong


def test_lasso_report_undecided_beyond_scale():
    big = lm.star_tree(letters(7))
    report = lm.lasso_report(big, lm.all_cords(letters(7)))
    assert report.edge_weight is True
    assert report.topological is None and report.strong is None


def test_full_cord_set_is_not_minimal(quartet):
    assert not lm.is_minimal_strong_lasso(quartet, lm.all_cords("abcd"))


def test_minimal_strong_lasso_drops_fail():
    t = double_star()
    sub = cords("ab", "ac", "ad", "bc", "bd", "cd", "ef", "ae", "be", "cf", "df")
    for c in sorted(sub):
        smaller = sub - {c}
        strong = (matroid.verdict(t, smaller).lasso
                  and lm.is_topological_lasso(t, smaller))
        assert not strong


# -- bipartite rank structure ---------------------------------------------------------


def test_side_weighting_pattern():
    for n in (4, 5):
        for t in trees_on(n):
            for side_a, side_b in lasso.leaf_bipartitions(t.leaves):
                w = {k: Fraction(v) for k, v in
                     lasso.side_weighting(t, side_a, side_b).items()}
                for c in lm.all_cords(t.leaves):
                    x, y = c
                    expected = 2 if {x, y} <= side_a else (-2 if {x, y} <= side_b else 0)
                    assert t.distance(w, c) == expected


def test_kernel_of_two_sided_rows_contains_side_weighting(quartet):
    side_a, side_b = frozenset("ac"), frozenset("bd")
    rows = [quartet.path_vector(c) for c in sorted(lm.cross_cords(side_a, side_b))]
    kernel = lm.kernel_basis(rows)
    assert len(kernel) == 1
    w = lasso.side_weighting(quartet, side_a, side_b)
    vec = tuple(Fraction(w[eid]) for eid in quartet.edge_ids)
    coeff = lm.solve_coordinates(kernel, vec)
    assert coeff is not None


def test_unique_relation_among_the_six_quartet_vectors(quartet):
    order = sorted(lm.all_cords("abcd"))
    rows = [quartet.path_vector(c) for c in order]
    relations = lm.kernel_basis(list(zip(*rows)))
    assert len(relations) == 1
    (rel,) = relations
    coeff = dict(zip(order, rel))
    scale = coeff[lm.cord("a", "c")]
    assert scale != 0
    normalized = {c: v / scale for c, v in coeff.items()}
    assert normalized == {
        lm.cord("a", "b"): 0, lm.cord("c", "d"): 0,
        lm.cord("a", "c"): 1, lm.cord("b", "d"): 1,
        lm.cord("a", "d"): -1, lm.cord("b", "c"): -1,
    }


def test_bipartite_analysis_quartet(quartet):
    sub = lm.cross_cords("ac", "bd")
    report = lasso.bipartite_analysis(quartet, sub)
    assert report.rank == 4 == len(quartet.edge_ids) - 1
    assert report.is_hyperplane
    assert report.closure == sub
    assert report.lasso_extensions == lm.all_cords("abcd") - sub
    side_a, side_b = report.bipartition
    assert {side_a, side_b} == {frozenset("ac"), frozenset("bd")}


def test_bipartite_analysis_proper_cherry_caterpillar():
    t = proper_cherry_caterpillar()
    sub = lm.cross_cords({"a", "d", "f"}, {"b", "c", "e"})
    report = lasso.bipartite_analysis(t, sub)
    assert report.rank == len(t.edge_ids) - 1 == 8
    assert report.is_hyperplane


def test_bipartite_analysis_low_rank(quartet):
    report = lasso.bipartite_analysis(quartet, cords("ab"))
    assert report.rank == 1 and not report.is_hyperplane
    assert report.lasso_extensions == frozenset()


def test_bipartite_analysis_rejects_odd_sets(quartet):
    with pytest.raises(ValueError):
        lasso.bipartite_analysis(quartet, cords("ab", "bc", "ca"))


def test_bipartite_rank_never_full():
    for n in (4, 5):
        for t in trees_on(n):
            full = len(t.edge_ids)
            for side_a, side_b in lasso.leaf_bipartitions(t.leaves):
                assert matroid.rank_of(t, lm.cross_cords(side_a, side_b)) < full


def test_hyperplane_extension_equivalence():
    for t in trees_on(4):
        full = len(t.edge_ids)
        for side_a, side_b in lasso.leaf_bipartitions(t.leaves):
            two = sorted(lm.cross_cords(side_a, side_b))
            for size in range(2, len(two) + 1):
                for sub in itertools.combinations(two, size):
                    if matroid.rank_of(t, sub) != full - 1:
                        continue
                    report = lasso.bipartite_analysis(t, frozenset(sub))
                    for c in lm.all_cords(t.leaves) - frozenset(sub):
                        is_ext = matroid.rank_of(t, frozenset(sub) | {c}) == full
                        assert is_ext == (c in report.lasso_extensions)


# -- rank-deficient topological lassos --------------------------------------------------


def check_rank_deficient_topological(t, sub):
    """The paper's conclusions for a topological lasso of less than full
    rank: bipartite, of rank |E|-1, on a tree whose cherries are all proper,
    and each extension that breaks bipartiteness is a strong lasso."""
    full = len(t.edge_ids)
    assert all(comp.bipartite for comp in analyze(t.leaves, sub).components)
    assert matroid.rank_of(t, sub) == full - 1
    assert all(proper for _c, proper in t.cherries())
    for c in sorted(lasso.bipartite_analysis(t, sub).lasso_extensions):
        assert matroid.rank_of(t, sub | {c}) == full
        assert lm.is_topological_lasso(t, sub | {c})


def test_rank_deficient_topological_lassos_on_every_small_cord_set():
    # every cord subset of every 4- and 5-leaf shape; the rank comes first,
    # so only rank-deficient sets reach the decider
    found = 0
    for t in [*trees_on(4), *trees_on(5)]:
        full = len(t.edge_ids)
        pool = sorted(lm.all_cords(t.leaves))
        for s in range(1 << len(pool)):
            sub = frozenset(c for i, c in enumerate(pool) if s >> i & 1)
            if matroid.rank_of(t, sub) < full and lm.is_topological_lasso(t, sub):
                check_rank_deficient_topological(t, sub)
                found += 1
    assert found == 66


def test_rank_deficient_topological_structure_quartet(quartet):
    sub = lm.cross_cords("ac", "bd")
    report = lasso.topological_rank_structure(quartet, sub)
    assert report.topological
    check_rank_deficient_topological(quartet, sub)
    assert report.all_cherries_proper
    assert report.exists_bipartite_topological
    assert report.exists_rank_deficient_topological
    assert report.exists_hyperplane_rank_topological


def test_rank_deficient_topological_structure_star4(star4):
    report = lasso.topological_rank_structure(star4, lm.all_cords("abcd"))
    assert not report.all_cherries_proper
    assert report.exists_bipartite_topological is False
    assert report.exists_rank_deficient_topological is False
    assert report.exists_hyperplane_rank_topological is False


def test_rank_deficient_topological_structure_caterpillar():
    t = proper_cherry_caterpillar()
    sub = lm.cross_cords({"a", "d", "f"}, {"b", "c", "e"})
    report = lasso.topological_rank_structure(t, sub)
    assert report.topological
    assert report.rank == len(t.edge_ids) - 1
    check_rank_deficient_topological(t, sub)


def test_cherry_existence_conditions_evaluate_identically():
    for n in (4, 5):
        for t in trees_on(n):
            report = lasso.topological_rank_structure(t, frozenset())
            flags = {report.all_cherries_proper,
                     report.exists_bipartite_topological,
                     report.exists_rank_deficient_topological,
                     report.exists_hyperplane_rank_topological}
            assert len(flags) == 1
