"""Golden yield order of the basis search and of ``circuits``.

``bases`` and ``contraction_bases`` promise the same sets under any
elimination kernel, and also the same order: the search visits the sorted
cords depth-first, so the sequence depends only on which prefixes are
independent.  These digests pin that sequence, so a change to the exact
arithmetic cannot move a single basis.  ``circuits`` yields by size, then
by sorted cords; its digest pins that order the same way, so that a change
to its search cannot move a single circuit.
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


def _emitter(h):
    """Feed ``h`` a tag line, then one line per set of its sorted cords."""
    def emit(tag, sets):
        h.update(tag.encode() + b"\n")
        for s in sets:
            h.update(" ".join(a + b for a, b in sorted(s)).encode() + b"\n")
    return emit


def _sequence_digest(trees):
    """sha256 over each tree's bases, then each interior edge's collapse
    sequence, trees in canonical order and every set as its sorted cords."""
    h = hashlib.sha256()
    emit = _emitter(h)
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


def test_circuit_sequences_on_three_to_five_leaves_and_the_six_leaf_caterpillar():
    """sha256 over each tree's circuits, trees in canonical order, then the
    6-leaf caterpillar's."""
    h = hashlib.sha256()
    emit = _emitter(h)
    counts = []
    small = sorted((t for n in (3, 4, 5) for t in trees_on(n)), key=lambda t: t.canonical_form())
    caterpillar = lm.tree_from_newick("(((((a,b),c),d),e),f);")
    for tree in (*small, caterpillar):
        found = list(matroid.circuits(tree))
        counts.append(len(found))
        emit(tree.canonical_form(), found)
    assert (sum(counts[:-1]), counts[-1]) == (291, 39)
    assert h.hexdigest() == (
        "f1b10a2b31f41f7da28131afa48c82e57496f26d95aa8fbd9e2fdcd532d03faf")
