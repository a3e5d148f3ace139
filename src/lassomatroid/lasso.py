"""Deciders for the three lasso notions and their structure theory.

A cord set is an edge-weight lasso when its distances pin down every edge
weight (a spanning set of the cord matroid), a topological lasso when
agreement of distances on it forces the tree shape itself, and a strong
lasso when it is both.  The topological decider here is an exact brute
force: it enumerates every competing tree shape on the same leaves and asks,
with exact linear feasibility, whether admissible weightings of the two
trees can agree on the given cords.  "Admissible" means strictly positive on
interior edges and non-negative on pendant edges; pass ``pendant_strict=True``
to require strict positivity on pendant edges as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import matroid
from .errors import ScaleBoundError
from .exact import LinearSystem, feasible
from .stargraph import analyze
from .tree import all_cords, cord, cross_cords, enumerate_xtrees

_enumeration_cache = {}
_topological_memo = {}


def _shapes_on(labels):
    key = tuple(sorted(labels))
    if key not in _enumeration_cache:
        _enumeration_cache[key] = tuple(enumerate_xtrees(key))
    return _enumeration_cache[key]


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


def is_t_cover(tree, cords):
    """Every pair of edges meeting at an interior vertex lies on some cord's path."""
    interior = tree.interior_vertices
    needed = set()
    edges = tree.edges
    incident = {v: [] for v in interior}
    for eid, pair in edges.items():
        for v in pair:
            if v in interior:
                incident[v].append(eid)
    for v, eids in incident.items():
        for e1, e2 in itertools.combinations(sorted(eids), 2):
            needed.add((v, frozenset((e1, e2))))
    for c in cords:
        path = tree.cord_path(c)
        for e1, e2 in zip(path, path[1:]):
            shared = edges[e1] & edges[e2]
            (v,) = shared
            needed.discard((v, frozenset((e1, e2))))
        if not needed:
            return True
    return not needed


def split_check(tree, side_a, side_b):
    """Both sides of the bipartition must meet every cherry of the tree.

    Equivalent, for trees with at least four leaves, to the two-sided cord
    set covering every incident edge pair at every interior vertex; the two
    routes are computed independently and checked against each other.
    """
    side_a, side_b = frozenset(side_a), frozenset(side_b)
    leaves = set(tree.leaves)
    if side_a & side_b or (side_a | side_b) != leaves or not side_a or not side_b:
        raise ValueError("the two sides must partition the leaf set")
    if len(leaves) < 4:
        raise ValueError("the split characterization needs at least 4 leaves")
    verdict = all(
        (set(c) & side_a) and (set(c) & side_b)
        for c, _proper in tree.cherries()
    )
    cover = is_t_cover(tree, cross_cords(side_a, side_b))
    if verdict != cover:
        raise AssertionError("cherry-split and edge-pair-cover routes disagree")
    return verdict


def pointed_covers(tree, leaf):
    """All pointed covers anchored at one leaf of a binary tree.

    Such a cover joins the anchor to every other leaf, and adds, for each
    interior vertex, one cord with ends in the two components away from the
    anchor.  Every emitted set has exactly 2n-3 cords and is a basis of the
    cord matroid.
    """
    if not tree.is_binary():
        raise ValueError("pointed covers are defined for binary trees")
    anchor = leaf
    tree.leaf_vertex(anchor)  # ValueError for a label that is not a leaf
    pendant = frozenset(cord(anchor, other) for other in tree.leaves if other != anchor)
    per_vertex = []
    for v in sorted(tree.interior_vertices, key=repr):
        sides = []
        anchor_side_found = False
        for w, eid in sorted(tree.neighbors(v), key=lambda p: repr(p)):
            leaves_here = tree.side(eid, w)
            if anchor in leaves_here:
                anchor_side_found = True
            else:
                sides.append(sorted(leaves_here))
        if not anchor_side_found or len(sides) != 2:
            raise AssertionError("binary tree should split into anchor side plus two others")
        per_vertex.append([cord(a, b) for a in sides[0] for b in sides[1]])
    expected = 2 * tree.n_leaves - 3
    for picks in itertools.product(*per_vertex):
        cover = pendant | frozenset(picks)
        if len(cover) != expected:
            raise AssertionError("pointed cover cardinality broke")
        yield cover


def _agreement_system(shape, tree, cords, pendant_strict):
    """Feasibility system: admissible weightings of both trees agree on the cords."""
    m1, m2 = len(shape.edge_ids), len(tree.edge_ids)
    equalities = [([*shape.path_vector(c), *(-x for x in tree.path_vector(c))], 0)
                  for c in sorted(cords)]
    strict, weak = [], []
    for t, offset in ((shape, 0), (tree, m1)):
        for eid in t.edge_ids:
            row = [0] * (m1 + m2)
            row[offset + t.edge_column[eid]] = 1
            if t.is_interior_edge(eid) or pendant_strict:
                strict.append((row, 0))
            else:
                weak.append((row, 0))
    return LinearSystem(equalities=equalities, strict_inequalities=strict,
                        weak_inequalities=weak)


def is_topological_lasso(tree, cords, max_leaves=6, pendant_strict=False):
    """Exact brute-force decision of the topological-lasso property.

    For every non-equivalent tree shape on the same leaves, decides whether
    admissible weightings of the two trees can agree on the given cords;
    the set is a topological lasso exactly when no such agreement exists.
    A disconnected cord graph fails immediately when there are at least four
    leaves (with three leaves there is only one shape, so everything passes).
    """
    labels = tree.leaves
    if len(labels) > max_leaves:
        raise ScaleBoundError(
            f"{len(labels)} leaves exceeds the topological-decider bound of {max_leaves}")
    cords = frozenset(cords)
    for c in cords:
        if c[0] not in labels or c[1] not in labels:
            raise ValueError(f"cord {c} is not over the leaf set")
    if len(labels) >= 4:
        if len(analyze(labels, cords).components) > 1:
            return False
    own = tree.canonical_form()
    key = (own, cords, pendant_strict)
    cached = _topological_memo.get(key)
    if cached is not None:
        return cached
    result = True
    for shape in _shapes_on(labels):
        if shape.canonical_form() == own:
            continue
        if feasible(_agreement_system(shape, tree, cords, pendant_strict)):
            result = False
            break
    _topological_memo[key] = result
    return result


@dataclass(frozen=True)
class LassoReport:
    rank: int
    edge_weight: bool
    topological: bool | None   # None = undecided (scale bound)
    strong: bool | None
    bipartition: tuple | None


def _connected_bipartition(tree, cords):
    """The unique two-sided split of a connected bipartite cord graph, or None."""
    (component, *others) = analyze(tree.leaves, cords).components
    return None if others else component.sides


def lasso_report(tree, cords, max_leaves=6, pendant_strict=False):
    """Combined verdicts: edge-weight, topological (when in scale), strong."""
    cords = frozenset(cords)
    v = matroid.verdict(tree, cords)
    try:
        topological = is_topological_lasso(tree, cords, max_leaves=max_leaves,
                                           pendant_strict=pendant_strict)
    except ScaleBoundError:
        topological = None
    if topological is None:
        strong = False if not v.lasso else None
    else:
        strong = v.lasso and topological
    return LassoReport(rank=v.rank, edge_weight=v.lasso, topological=topological,
                       strong=strong, bipartition=_connected_bipartition(tree, cords))


def is_minimal_strong_lasso(tree, cords, max_leaves=6, pendant_strict=False):
    """Strong lasso such that no single-cord deletion stays one."""
    cords = frozenset(cords)
    v = matroid.verdict(tree, cords)
    if not v.lasso:
        return False
    if not is_topological_lasso(tree, cords, max_leaves=max_leaves,
                                pendant_strict=pendant_strict):
        return False
    full = len(tree.edge_ids)
    for c in sorted(cords):
        smaller = cords - {c}
        if matroid.rank_of(tree, smaller) < full:
            continue
        if is_topological_lasso(tree, smaller, max_leaves=max_leaves,
                                pendant_strict=pendant_strict):
            return False
    return True


@dataclass(frozen=True)
class BipartiteReport:
    rank: int
    hyperplane_rank: bool            # rank == |E| - 1
    bipartition: tuple | None
    side_weighting: dict | None      # +1 on one side's pendant edges, -1 on the other's
    closure: frozenset | None
    is_hyperplane: bool
    lasso_extensions: frozenset


def side_weighting(tree, side_a, side_b):
    """The weighting vanishing on interior edges, +1 under one side, -1 under the
    other; every two-sided cord's path sum is 0 on it, same-side sums are +-2."""
    out = {}
    for eid in tree.edge_ids:
        out[eid] = 0
    for x in side_a:
        out[tree.pendant_edge(x)] = 1
    for x in side_b:
        out[tree.pendant_edge(x)] = -1
    return out


def bipartite_analysis(tree, cords):
    """Rank picture of a bipartite cord set.

    Bipartite sets never reach full rank.  At rank exactly one below the edge
    count the cord graph is forced connected with a unique two-sided split;
    the closure is then the full two-sided cord set, a hyperplane, and the
    one-cord extensions that restore full rank are exactly the extensions
    that break bipartiteness.  Those structural consequences are recomputed
    here and cross-checked against the rank oracle.
    """
    cords = frozenset(cords)
    report = analyze(tree.leaves, cords)
    if any(not comp.bipartite for comp in report.components):
        raise ValueError("cord set is not bipartite")
    full = len(tree.edge_ids)
    r = matroid.rank_of(tree, cords)
    if r > full - 1:
        raise AssertionError("bipartite cord set reached full rank")
    every = all_cords(tree.leaves)
    extensions = frozenset(c for c in every - cords
                           if matroid.rank_of(tree, cords | {c}) == full)
    if r < full - 1:
        return BipartiteReport(rank=r, hyperplane_rank=False, bipartition=None,
                               side_weighting=None, closure=None,
                               is_hyperplane=False, lasso_extensions=extensions)
    split = _connected_bipartition(tree, cords)
    if split is None:
        raise AssertionError("rank |E|-1 bipartite set must be connected on the leaves")
    side_a, side_b = split
    weighting = side_weighting(tree, side_a, side_b)
    closed = matroid.closure(tree, cords)
    two_sided = cross_cords(side_a, side_b)
    if closed != two_sided:
        raise AssertionError("closure differs from the two-sided cord set")
    nonbipartite_ext = frozenset(c for c in every - cords if c not in two_sided)
    if extensions != nonbipartite_ext:
        raise AssertionError("lasso extensions differ from the non-bipartite extensions")
    return BipartiteReport(rank=r, hyperplane_rank=True, bipartition=(side_a, side_b),
                           side_weighting=weighting, closure=closed,
                           is_hyperplane=True, lasso_extensions=extensions)


@dataclass(frozen=True)
class TopologicalRankReport:
    rank: int
    topological: bool | None
    conclusions_checked: bool
    all_cherries_proper: bool
    exists_bipartite_topological: bool | None
    exists_rank_deficient_topological: bool | None
    exists_hyperplane_rank_topological: bool | None


def topological_rank_structure(tree, cords, max_leaves=6, pendant_strict=False):
    """Verify the structure forced on rank-deficient topological lassos.

    When the given set is a topological lasso of less-than-full rank, checks
    that it is bipartite of rank exactly |E|-1, that every cherry of the tree
    is proper, and that every bipartiteness-breaking one-cord extension is a
    strong lasso.  Also evaluates, for the tree itself, the four equivalent
    existence conditions: a bipartite topological lasso exists / one of
    deficient rank exists / one of rank exactly |E|-1 exists / every cherry
    is proper.  The existence searches range over the full two-sided sets of
    all leaf bipartitions, which is exhaustive because any bipartite
    topological lasso extends to such a set and supersets of topological
    lassos stay topological.
    """
    cords = frozenset(cords)
    full = len(tree.edge_ids)
    r = matroid.rank_of(tree, cords)
    try:
        topological = is_topological_lasso(tree, cords, max_leaves=max_leaves,
                                           pendant_strict=pendant_strict)
    except ScaleBoundError:
        topological = None
    all_proper = all(proper for _c, proper in tree.cherries())

    conclusions_checked = False
    if topological and r < full:
        report = analyze(tree.leaves, cords)
        if any(not comp.bipartite for comp in report.components):
            raise AssertionError("rank-deficient topological lasso is not bipartite")
        if r != full - 1:
            raise AssertionError("rank-deficient topological lasso misses |E|-1")
        if not all_proper:
            raise AssertionError("tree with a rank-deficient topological lasso has an improper cherry")
        analysis = bipartite_analysis(tree, cords)
        for c in sorted(analysis.lasso_extensions):
            bigger = cords | {c}
            if matroid.rank_of(tree, bigger) != full:
                raise AssertionError("non-bipartite extension is not an edge-weight lasso")
            if not is_topological_lasso(tree, bigger, max_leaves=max_leaves,
                                        pendant_strict=pendant_strict):
                raise AssertionError("non-bipartite extension is not a topological lasso")
        conclusions_checked = True

    if len(tree.leaves) < 4:
        exists_bip = exists_deficient = exists_hyper = None
    else:
        exists_bip = exists_deficient = exists_hyper = False
        try:
            for side_a, side_b in leaf_bipartitions(tree.leaves):
                two_sided = cross_cords(side_a, side_b)
                if not is_topological_lasso(tree, two_sided, max_leaves=max_leaves,
                                            pendant_strict=pendant_strict):
                    continue
                exists_bip = True
                rr = matroid.rank_of(tree, two_sided)
                if rr < full:
                    exists_deficient = True
                if rr == full - 1:
                    exists_hyper = True
        except ScaleBoundError:
            exists_bip = exists_deficient = exists_hyper = None

    return TopologicalRankReport(
        rank=r, topological=topological, conclusions_checked=conclusions_checked,
        all_cherries_proper=all_proper,
        exists_bipartite_topological=exists_bip,
        exists_rank_deficient_topological=exists_deficient,
        exists_hyperplane_rank_topological=exists_hyper,
    )