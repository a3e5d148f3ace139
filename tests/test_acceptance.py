"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
ACCEPT lines as they print).  Every tolerance and scale is pinned here.
"""

import itertools
import random
import time
from fractions import Fraction

import lassomatroid as lm
import oracles
from lassomatroid import lasso, matroid, reconstruct, stargraph
from helpers import cords, double_star, letters, snowflake, trees_on


def _report(number, label, ok):
    print(f"ACCEPT {'pass' if ok else 'FAIL'}: criterion {number} - {label}")


def test_criterion_01_quartet_basis_fixture(quartet):
    ok = False
    try:
        start = time.monotonic()
        found = set(matroid.bases(quartet))
        crossing = cords("ac", "ad", "bc", "bd")
        expected = {lm.all_cords("abcd") - {c} for c in crossing}
        assert found == expected
        assert all(len(b & crossing) == 3 for b in found)
        assert time.monotonic() - start < 1.0
        ok = True
    finally:
        _report(1, "the four quartet bases", ok)


def test_criterion_02_star_basis_fixture(star4):
    ok = False
    try:
        start = time.monotonic()
        found = set(matroid.bases(star4))
        assert len(found) == 12
        assert cords("ab", "bc", "ca", "da") in found
        assert cords("ab", "bc", "ca", "dc") in found
        assert time.monotonic() - start < 1.0
        ok = True
    finally:
        _report(2, "twelve star bases incl. the two orbit representatives", ok)


def test_criterion_03_contraction_recursion(quartet):
    ok = False
    try:
        start = time.monotonic()
        f = quartet.interior_edge_ids[0]
        b1 = cords("ab", "bc", "ca", "da")
        b2 = cords("ab", "bc", "ca", "dc")
        assert matroid.contraction_extends(quartet, f, b1, lm.cord("d", "c"))
        assert not matroid.contraction_extends(quartet, f, b1, lm.cord("d", "b"))
        assert matroid.contraction_extends(quartet, f, b2, lm.cord("d", "a"))
        assert matroid.contraction_extends(quartet, f, b2, lm.cord("d", "b"))
        for n in (4, 5, 6):
            for t in trees_on(n):
                direct = set(matroid.bases(t))
                for edge in t.interior_edge_ids:
                    assert set(matroid.contraction_bases(t, edge)) == direct
        assert time.monotonic() - start < 600.0
        ok = True
    finally:
        _report(3, "edge-collapse recursion rebuilds every basis set, n <= 6", ok)


def test_criterion_04_star_characterizations():
    ok = False
    try:
        rng = random.Random(20260808)
        for n in (4, 5, 6):
            labels = letters(n)
            star = lm.star_tree(labels)
            pool = sorted(lm.all_cords(labels))
            for _ in range(1000):
                sub = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
                v = matroid.verdict(star, sub)
                assert stargraph.star_is_lasso(labels, sub) == v.lasso
                assert stargraph.star_is_independent(labels, sub) == v.independent
                assert stargraph.star_is_basis(labels, sub) == v.basis
                assert stargraph.star_rank(labels, sub) == v.rank
                assert stargraph.star_closure(labels, sub) == matroid.closure(star, sub)
                if stargraph.star_is_circuit(labels, sub):
                    assert not v.independent
                    assert all(matroid.verdict(star, sub - {c}).independent
                               for c in sub)
        ok = True
    finally:
        _report(4, "graph rules match the rank oracle on 3000 random star subsets", ok)


def test_criterion_05_coloops_are_proper_cherries():
    ok = False
    try:
        for n in (3, 4, 5, 6):
            for t in trees_on(n):
                proper = frozenset(c for c, is_proper in t.cherries() if is_proper)
                assert matroid.coloops(t) == proper
        ok = True
    finally:
        _report(5, "co-loops equal proper cherry cords on every tree, n <= 6", ok)


def test_criterion_06_tree_recovery_roundtrip():
    ok = False
    try:
        start = time.monotonic()
        for n in (3, 4, 5, 6):
            for t in trees_on(n):
                again = reconstruct.tree_from_oracle(matroid.rank_oracle(t), t.leaves)
                assert lm.are_equivalent(t, again)
        shapes = trees_on(5)
        bases = {t: oracles.basis_set({c: t.path_vector(c) for c in lm.all_cords(t.leaves)})
                 for t in shapes}
        for t1, t2 in itertools.combinations_with_replacement(shapes, 2):
            assert (reconstruct.matroids_equal(t1, t2) == lm.are_equivalent(t1, t2)
                    == (bases[t1] == bases[t2]))
        assert time.monotonic() - start < 900.0
        ok = True
    finally:
        _report(6, "rank queries rebuild the tree; equal matroids iff equivalent", ok)


def test_criterion_07_bipartite_rank_structure():
    ok = False
    try:
        for n in (3, 4, 5):
            for t in trees_on(n):
                full = len(t.edge_ids)
                for side_a, side_b in lasso.leaf_bipartitions(t.leaves):
                    weighting = {k: Fraction(v) for k, v in
                                 lasso.side_weighting(t, side_a, side_b).items()}
                    for c in lm.all_cords(t.leaves):
                        x, y = c
                        expected = 2 if {x, y} <= side_a else (
                            -2 if {x, y} <= side_b else 0)
                        assert t.distance(weighting, c) == expected
                    two = sorted(lm.cross_cords(side_a, side_b))
                    for size in range(len(two) + 1):
                        for sub in itertools.combinations(two, size):
                            sub = frozenset(sub)
                            r = matroid.rank_of(t, sub)
                            assert r <= full - 1
                            if r == full - 1:
                                # connected; the closure and the extensions
                                # that the theorem gives match the rank oracle
                                assert len(stargraph.analyze(t.leaves, sub).components) == 1
                                report = lasso.bipartite_analysis(t, sub)
                                assert report.is_hyperplane
                                assert report.closure == matroid.closure(t, sub)
                                assert report.lasso_extensions == {
                                    c for c in lm.all_cords(t.leaves)
                                    if matroid.rank_of(t, sub | {c}) == full}
        ok = True
    finally:
        _report(7, "two-sided weighting pattern and hyperplane structure, n <= 5", ok)


def test_criterion_08_split_equivalences_and_cherry_conditions():
    ok = False
    try:
        for n in (4, 5):
            for t in trees_on(n):
                for side_a, side_b in lasso.leaf_bipartitions(t.leaves):
                    two = lm.cross_cords(side_a, side_b)
                    topological = lm.is_topological_lasso(t, two)
                    cover = lasso.is_t_cover(t, two)
                    split = lasso.split_check(t, side_a, side_b)
                    assert topological == cover == split
                report = lasso.topological_rank_structure(t, frozenset())
                flags = {report.all_cherries_proper,
                         report.exists_bipartite_topological,
                         report.exists_rank_deficient_topological,
                         report.exists_hyperplane_rank_topological}
                assert len(flags) == 1
        ok = True
    finally:
        _report(8, "three split conditions agree; four cherry conditions agree", ok)


def test_criterion_09_nonbinary_witness():
    ok = False
    try:
        snow = snowflake()
        witness = reconstruct.nonbinary_witness(snow)
        assert witness is not None
        for circ in (witness.hexagon, witness.quad):
            assert matroid.rank_of(snow, circ) == len(circ) - 1
            for drop in circ:
                assert matroid.verdict(snow, circ - {drop}).independent
        assert matroid.verdict(snow, witness.triangles).independent
        assert not reconstruct.is_binary_matroid(snow).is_binary
        assert reconstruct.is_binary_matroid(lm.star_tree("abcd")).is_binary
        ok = True
    finally:
        _report(9, "snowflake witness certifies a non-binary matroid", ok)


def test_criterion_10_unequal_minimal_strong_lassos():
    ok = False
    try:
        start = time.monotonic()
        t = double_star()
        set_a = cords("ab", "ac", "ad", "bc", "bd", "cd",
                      "ef", "ae", "be", "ce", "de", "df")
        set_b = cords("ab", "ac", "ad", "bc", "bd", "cd",
                      "ef", "ae", "be", "cf", "df")
        assert lm.is_minimal_strong_lasso(t, set_a)
        assert lm.is_minimal_strong_lasso(t, set_b)
        assert len(set_a) == 12 and len(set_b) == 11
        assert len(set_a) == len(set_b) + 1
        assert time.monotonic() - start < 1800.0
        ok = True
    finally:
        _report(10, "minimal strong lassos of sizes 12 and 11 on one tree", ok)


def test_criterion_11_collapse_and_restriction_identities():
    ok = False
    try:
        rng = random.Random(11)
        pool = [t for n in (4, 5, 6) for t in trees_on(n)]
        for _ in range(500):
            t = rng.choice(pool)
            interior = t.interior_edge_ids
            F = rng.sample(interior, rng.randint(0, len(interior))) if interior else []
            all_pairs = sorted(lm.all_cords(t.leaves))
            sub = rng.sample(all_pairs, rng.randint(0, len(all_pairs)))
            full, collapsed, gap = matroid.contract_rank_decomposition(t, F, sub)
            surviving = [t.edge_column[e] for e in t.edge_ids if e not in F]
            assert gap == oracles.vanishing_dimension(map(t.path_vector, sub), surviving)
            assert full == collapsed + gap
            assert gap <= len(F)
        for _ in range(500):
            t = rng.choice(pool)
            k = rng.randint(3, t.n_leaves)
            subset = rng.sample(t.leaves, k)
            pairs = sorted(lm.all_cords(subset))
            sub = rng.sample(pairs, rng.randint(0, len(pairs)))
            restricted, _ = t.restrict(subset)
            assert matroid.rank_of(t, sub) == matroid.rank_of(restricted, sub)
        ok = True
    finally:
        _report(11, "rank identities under collapse and restriction, 500 + 500 draws", ok)
