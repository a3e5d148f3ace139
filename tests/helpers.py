"""Small shared helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import lassomatroid as lm
from lassomatroid.tree import hang_leaf

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
    on edges only, which ``hang_leaf`` yields first)."""
    rng = random.Random(seed)
    for _ in range(count):
        labels = [f"x{i:02d}" for i in range(rng.randint(8, 24))]
        t = lm.star_tree(labels[:3])
        for x in labels[3:]:
            places = len(t.edge_ids) if binary else None
            t = rng.choice(list(itertools.islice(hang_leaf(t, x), places)))
        yield t


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
