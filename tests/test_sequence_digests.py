"""Golden yield order of the basis search.

``bases`` and ``contraction_bases`` promise the same sets under any
elimination kernel, and also the same order: the search visits the sorted
cords depth-first, so the sequence depends only on which prefixes are
independent.  These digests pin that sequence, so a change to the exact
arithmetic cannot move a single basis.
"""

from __future__ import annotations

import hashlib

import lassomatroid as lm
from lassomatroid import matroid

from helpers import trees_on


def _split(tree, eid):
    """An edge named by the sorted labels on the side away from the first leaf."""
    first = tree.leaves[0]
    for v in tree.edges[eid]:
        side = tree.side(eid, v)
        if first not in side:
            return "".join(sorted(side))
    raise AssertionError("an edge has the first leaf on both sides")


def _sequence_digest(trees):
    """sha256 over each tree's bases, then each interior edge's collapse
    sequence, trees in canonical order and every set as its sorted cords."""
    h = hashlib.sha256()

    def emit(tag, sets):
        h.update(tag.encode() + b"\n")
        for s in sets:
            h.update(" ".join(a + b for a, b in sorted(s)).encode() + b"\n")

    for tree in sorted(trees, key=lambda t: t.canonical_form()):
        emit(tree.canonical_form(), matroid.bases(tree))
        for split, eid in sorted((_split(tree, e), e) for e in tree.interior_edge_ids):
            emit(split, matroid.contraction_bases(tree, eid))
    return h.hexdigest()


def test_basis_sequences_on_every_shape_with_three_to_five_leaves():
    trees = [t for n in (3, 4, 5) for t in trees_on(n)]
    assert len(trees) == 1 + 4 + 26
    assert _sequence_digest(trees) == (
        "819342f607df395b8253a9a1bec7c0298324e153bee3aefdb3d6968182e55d72")


def test_basis_sequences_on_the_six_leaf_caterpillar():
    tree = lm.tree_from_newick("(((((a,b),c),d),e),f);")
    assert _sequence_digest([tree]) == (
        "351058975aee941b8830b722241309793c0024354b18cd7086425fc004e2542f")
