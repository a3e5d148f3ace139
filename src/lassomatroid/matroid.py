"""The matroid of leaf-pair path vectors on a tree.

Every cord (unordered leaf pair) of a tree yields the 0/1 vector of edges on
the path between its ends.  Rank, independence, spanning, closure, circuits
and bases of these vectors form a matroid on the cord set; a cord set spans
the whole edge space exactly when the pairwise distances it carries pin down
every edge weight, so "spanning set" and "edge-weight lasso" coincide and
the bases are the tight edge-weight lassos.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ScaleBoundError
from .exact import RowSpace
from .tree import all_cords


def path_vector(tree, c):
    """0/1 edge-incidence vector of the cord's leaf-to-leaf path."""
    return tree.path_vector(c)


def rank_of(tree, cords):
    """Rank of the stacked path vectors of the given cords."""
    space = RowSpace(len(tree.edge_ids))
    for c in sorted(cords):
        space.add(tree.path_vector(c))
    return space.rank


def rank_oracle(tree):
    """The rank function of the tree's cord matroid, as a plain callable."""
    return lambda cords: rank_of(tree, cords)


@dataclass(frozen=True)
class MatroidVerdict:
    rank: int
    independent: bool
    lasso: bool
    basis: bool


def verdict(tree, cords):
    """Rank plus the independence / edge-weight-lasso / basis flags.

    A cord set is an edge-weight lasso exactly when its rank reaches the
    edge count, and a basis when it is an independent lasso.
    """
    cords = frozenset(cords)
    r = rank_of(tree, cords)
    independent = r == len(cords)
    lasso = r == len(tree.edge_ids)
    return MatroidVerdict(rank=r, independent=independent, lasso=lasso,
                          basis=independent and lasso)


def closure(tree, cords):
    """All cords whose path vector lies in the span of the given ones."""
    space = RowSpace(len(tree.edge_ids))
    for c in sorted(cords):
        space.add(tree.path_vector(c))
    return frozenset(c for c in all_cords(tree.leaves)
                     if space.contains(tree.path_vector(c)))


def circuits(tree, max_size=None):
    """All minimal dependent cord sets of size up to ``max_size``.

    Size-ordered subset search; supersets of found circuits are pruned, so a
    surviving dependent set is automatically minimal.  Minimality is still
    re-verified directly (rank one less than size, every single deletion
    independent) before a set is emitted.
    """
    limit = len(tree.edge_ids) + 1
    if max_size is None:
        max_size = limit
    if max_size > limit:
        raise ValueError(f"circuits never exceed {limit} cords on this tree")
    cords = sorted(all_cords(tree.leaves))
    found = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(cords, size):
            cset = frozenset(combo)
            if any(c <= cset for c in found):
                continue
            r = rank_of(tree, combo)
            if r == size:
                continue
            if r != size - 1:
                raise AssertionError("unpruned dependent set is not minimal")
            for drop in combo:
                kept = cset - {drop}
                if rank_of(tree, kept) != size - 1:
                    raise AssertionError("circuit candidate has a dependent deletion")
            found.append(cset)
            yield cset


def bases(tree, max_leaves=7):
    """All maximal independent cord sets, i.e. the tight edge-weight lassos.

    Depth-first search over independent sets with incremental elimination;
    every emitted set has exactly one cord per edge of the tree.
    """
    if tree.n_leaves > max_leaves:
        raise ScaleBoundError(
            f"{tree.n_leaves} leaves exceeds the basis-enumeration bound of {max_leaves}")
    cords = sorted(all_cords(tree.leaves))
    vectors = [tree.path_vector(c) for c in cords]
    target = len(tree.edge_ids)
    space = RowSpace(target)
    chosen = []

    def extend(start):
        if len(chosen) == target:
            yield frozenset(chosen)
            return
        # not enough cords left to reach a full basis
        last = len(cords) - (target - len(chosen))
        for i in range(start, last + 1):
            if space.add(vectors[i]):
                chosen.append(cords[i])
                yield from extend(i + 1)
                chosen.pop()
                space.pop()

    yield from extend(0)


def coloops(tree):
    """Cords contained in every basis: dropping them lowers the full rank."""
    cords = all_cords(tree.leaves)
    full = len(tree.edge_ids)
    return frozenset(c for c in cords if rank_of(tree, cords - {c}) < full)


def _collapse_residuals(rows, base, cords):
    """Each cord with the f-part of its residual over a collapsed-tree basis.

    ``rows`` maps a cord to its collapsed-tree path vector with its full-tree
    incidence of the collapsed edge f appended as a one-wide tail.  The
    basis rows carry their f-incidences through the elimination, so a cord's
    tail residual is (up to a nonzero factor) its own f-incidence minus the
    coordinate-weighted f-incidence of the basis cords.
    """
    space = RowSpace(len(rows[cords[0]]) - 1, tail=1)
    for b in sorted(base):
        if not space.add(rows[b]):
            raise ValueError("cord set is not independent in the collapsed tree")
    reduce = space.reduce
    for c in cords:
        *main, weight = reduce(rows[c])
        if any(main):
            raise ValueError("cord set does not span the collapsed tree")
        yield c, weight


def _collapse_rows(tree, f, cords):
    collapsed = tree.contract({f})
    fcol = tree.edge_column[f]
    return collapsed, {c: collapsed.path_vector(c) + (tree.path_vector(c)[fcol],) for c in cords}


def contraction_extends(tree, f, base_cords, c):
    """Whether a basis of the collapsed tree extends by ``c`` to one of the tree.

    ``base_cords`` must be a basis of ``tree.contract({f})``.  The cord's
    coordinates over the basis are taken in the collapsed tree; the extension
    is a basis of the full tree exactly when those coordinates disagree with
    the incidence of edge ``f``: sum of coordinates of the basis cords whose
    full-tree path uses ``f`` differs from the f-incidence of ``c`` itself.
    """
    _, rows = _collapse_rows(tree, f, set(base_cords) | {c})
    ((_, weight),) = _collapse_residuals(rows, base_cords, [c])
    return weight != 0


def contraction_bases(tree, f, max_leaves=7):
    """Bases of the tree, generated from the bases of the tree with ``f`` collapsed.

    For each basis of the collapsed tree, every cord joins it when its
    coordinate-weighted f-incidence test passes (see ``contraction_extends``);
    duplicates are removed.  The set of results equals ``bases(tree)``.
    The test runs fraction-free in ``RowSpace`` with the f-incidence as a
    carried tail, so the inner loop is integer-only yet exact.
    """
    if not tree.is_interior_edge(f):
        raise ValueError(f"edge {f} is pendant; collapse needs an interior edge")
    cords = sorted(all_cords(tree.leaves))
    collapsed, rows = _collapse_rows(tree, f, cords)
    seen = set()
    for base in bases(collapsed, max_leaves=max_leaves):
        for c, weight in _collapse_residuals(rows, base, cords):
            if weight != 0:
                extended = base | {c}
                if extended not in seen:
                    seen.add(extended)
                    yield extended


def restriction_rank(tree, labels, cords):
    """Rank of a cord set over a leaf subset, in the tree and its restriction.

    The restriction's path vectors are computed on the restricted tree
    itself; the two ranks must agree exactly, which also forces every
    circuit of the restriction to stay a circuit of the full tree.
    """
    labels = frozenset(labels)
    cords = sorted(cords)
    for c in cords:
        if not set(c) <= labels:
            raise ValueError(f"cord {c} is not over the restricted leaf set")
    sub, _condensed = tree.restrict(labels)
    rank_full = rank_of(tree, cords)
    rank_sub = rank_of(sub, cords)
    if rank_full != rank_sub:
        raise AssertionError("restriction changed the rank")
    return rank_full, rank_sub


def contract_rank_decomposition(tree, edge_ids, cords):
    """Rank of a cord set in the tree, in the collapsed tree, and the gap.

    Returns ``(rank_full, rank_collapsed, vanishing_dim)`` where the last
    term is the dimension of the span members vanishing on all surviving
    edges.  Checks the exact identity rank_full = rank_collapsed +
    vanishing_dim and the bound vanishing_dim <= number of collapsed edges.
    """
    F = frozenset(edge_ids)
    cords = sorted(cords)
    rank_full = rank_of(tree, cords)
    collapsed = tree.contract(F)
    rank_collapsed = rank_of(collapsed, cords)
    # dimension of span vectors supported inside the collapsed columns
    surviving_cols = [tree.edge_column[e] for e in tree.edge_ids if e not in F]
    space = RowSpace(len(tree.edge_ids))
    restricted = RowSpace(len(surviving_cols))
    vanishing_dim = 0
    for c in cords:
        vec = tree.path_vector(c)
        if space.add(vec):
            if not restricted.add([vec[i] for i in surviving_cols]):
                vanishing_dim += 1
    # the restricted space realizes the collapsed-tree span; both routes agree
    if rank_full != rank_collapsed + vanishing_dim:
        raise AssertionError("rank decomposition identity failed")
    if rank_full > rank_collapsed + len(F):
        raise AssertionError("rank decomposition bound failed")
    return rank_full, rank_collapsed, vanishing_dim