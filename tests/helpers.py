"""Small shared helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import lru_cache

import lassomatroid as lm
from lassomatroid.tree import _clusters, _hangings

LETTERS = "abcdefgh"


def letters(n):
    return list(LETTERS[:n])


def cords(*pairs):
    """cords('ab', 'cd') -> frozenset of canonical cords."""
    return frozenset(lm.cord(p[0], p[1]) for p in pairs)


@lru_cache(maxsize=None)
def trees_on(n):
    """All tree shapes on the first n letters, sorted by canonical form: a
    test that draws them by position or by a seeded choice gets the same
    shapes whatever order the enumeration yields (cached across tests)."""
    return tuple(sorted(lm.enumerate_xtrees(letters(n)), key=lm.XTree.canonical_form))


@lru_cache(maxsize=None)
def binary_trees_on(n):
    return tuple(sorted(lm.enumerate_binary_xtrees(letters(n)), key=lm.XTree.canonical_form))


def seeded_trees(seed, count, binary=False):
    """Trees on 8 to 24 leaves, each grown leaf by leaf at seeded places
    (on edges and on interior vertices, so not all binary; with ``binary``,
    on edges only, which ``tree._hangings`` yields first)."""
    rng = random.Random(seed)
    for _ in range(count):
        labels = [f"x{i:02d}" for i in range(rng.randint(8, 24))]
        t = lm.star_tree(labels[:3])
        for x in labels[3:]:
            # one hanging per edge, then one per interior vertex; the index is
            # drawn first, so only the chosen tree is built
            places = len(t.edge_ids) + (0 if binary else len(t.interior_vertices))
            grown = sorted([*t.leaves, x])
            hangings = _hangings(_clusters(t, grown), 1 << grown.index(x))
            clusters = next(itertools.islice(hangings, rng.randrange(places), None))
            t = lm.XTree(grown, dict(enumerate(clusters)))   # the ids ``hang_leaf`` gives
        yield t


def leaf_bipartitions(labels):
    """All unordered bipartitions of the labels into two nonempty sides.

    The side containing the smallest label comes first.
    """
    labels = sorted(labels)
    first, rest = labels[0], labels[1:]
    for r in range(len(rest) + 1):
        for picked in itertools.combinations(rest, r):
            side_b = set(rest) - set(picked)
            if side_b:
                yield (frozenset({first, *picked}), frozenset(side_b))


def no_vertex_holds_three_leaves(t):
    """No interior vertex is adjacent to three or more leaves: no two of the
    tree's cherries share a leaf."""
    return all(k < 2 for k in Counter(x for c, _proper in t.cherries() for x in c).values())


def interior_splits(t):
    """Each interior edge's side at its first end, as a bitmask over the
    sorted leaves."""
    return [sum(1 << t.leaves.index(x) for x in t.side(eid, min(t.edges[eid])))
            for eid in t.interior_edge_ids]


def snowflake():
    """Three cherries joined at a central vertex: cherries ad, be, cf."""
    return lm.tree_from_newick("((a,d),(b,e),(c,f));")


def double_star():
    """One interior vertex adjacent to a,b,c,d; a second adjacent to e,f."""
    return lm.tree_from_newick("((a,b,c,d),e,f);")
