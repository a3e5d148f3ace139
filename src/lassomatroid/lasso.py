"""Deciders for the three lasso notions and their structure theory.

A cord set is an edge-weight lasso when its distances pin down every edge
weight (a spanning set of the cord matroid), a topological lasso when
agreement of distances on it forces the tree shape itself, and a strong
lasso when it is both.  The topological decider here is exact.  From four
leaves on a topological lasso must be a t-cover, so it rejects any other cord
set in one pass; for a t-cover it grows competing shapes leaf by leaf as
cluster sets, building no tree, pruned by exact linear feasibility.
The paper's weightings are positive on interior edges and non-negative on
pendant edges.  The decider asks only whether weightings positive on every
edge agree, which gives the same verdicts.  The pendant weights enter only
through one free difference per leaf, and the integer combinations of the
cords whose leaf parts cancel take those differences out: each combination
leaves one equality over the interior edges of both shapes.  A competing
shape with an equality of one sign is rejected at once; any other shape's
system goes to Fourier-Motzkin over the interior edges alone (all three
facts proven in ``_agreement_system``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import gcd

from . import matroid
from .errors import ScaleBoundError
from .exact import LinearSystem, RowSpace, feasible
from .stargraph import analyze
from .tree import _clusters, _hangings, all_cords, cord, cross_cords

_topological_memo = {}


def is_t_cover(tree, cords):
    """Every pair of edges meeting at an interior vertex lies on some cord's path.

    T-covers are the central notion of Dress, Huber & Steel, "'Lassoing' a
    phylogenetic tree I" (J. Math. Biol. 65, 2012).  From four leaves on a
    t-cover is necessary for a topological lasso, so ``is_topological_lasso``
    rejects every non-cover with this test; its docstring has the proof.
    """
    column = tree.edge_column
    needed = {(column[e1], column[e2]) for v in tree.interior_vertices
              for (_, e1), (_, e2) in itertools.combinations(tree.neighbors(v), 2)}
    for c in cords:
        if not needed:
            break
        vec = tree.path_vector(c)
        needed = {(i, j) for i, j in needed if not (vec[i] and vec[j])}
    return not needed


def split_check(tree, side_a, side_b):
    """Both sides of the bipartition must meet every cherry of the tree.

    This is exactly when the two-sided cord set is a t-cover.  At an interior
    vertex v, two edges leading to the leaf sets A and B lie on a two-sided
    cord's path unless A and B sit inside one side.  A cherry is such a pair
    of single leaves at its vertex.  Conversely, if A and B sit inside one
    side, then so does a cherry: a single leaf in each of A and B is one,
    and a branch of two leaves or more holds one.
    """
    side_a, side_b = frozenset(side_a), frozenset(side_b)
    leaves = set(tree.leaves)
    if side_a & side_b or (side_a | side_b) != leaves or not side_a or not side_b:
        raise ValueError("the two sides must partition the leaf set")
    if len(leaves) < 4:
        raise ValueError("the split characterization needs at least 4 leaves")
    return all((set(c) & side_a) and (set(c) & side_b) for c, _proper in tree.cherries())


def pointed_covers(tree, leaf):
    """All pointed covers anchored at one leaf of a binary tree.

    Such a cover joins the anchor to every other leaf, and adds, for each
    interior vertex, one cord with ends in the two components away from the
    anchor.  The cord at v avoids the anchor, and v is where the paths
    between its ends and the anchor meet, so the cords are distinct: n-1
    through the anchor and one for each of the n-2 interior vertices of a
    binary tree, 2n-3 in all, the rank of the cord matroid.  Each set is a
    basis; the tests check this by rank.  The order depends on the splits
    alone, not on vertex numbers: vertices by their sorted leaves away from
    the anchor, the two sides at a vertex by their sorted leaves.
    """
    if not tree.is_binary():
        raise ValueError("pointed covers are defined for binary trees")
    anchor = leaf
    tree.leaf_vertex(anchor)  # ValueError for a label that is not a leaf
    pendant = frozenset(cord(anchor, other) for other in tree.leaves if other != anchor)
    per_vertex = []
    for v in tree.interior_vertices:
        sides = sorted(sorted(tree.side(eid, w)) for w, eid in tree.neighbors(v))
        sides = [side for side in sides if anchor not in side]
        per_vertex.append((sorted(sides[0] + sides[1]),
                           [cord(a, b) for a in sides[0] for b in sides[1]]))
    per_vertex.sort()
    for picks in itertools.product(*(choices for _, choices in per_vertex)):
        yield pendant | frozenset(picks)


def _cancelling_combinations(n, cords):
    """A basis of the integer combinations of the cords whose leaf parts cancel.

    ``cords`` are pairs of the leaves 0..n-1.  Cord x-y has the leaf part
    e_x + e_y, the row of the cord-leaf incidence D, and a combination y of
    the cords cancels when yᵀD = 0.  One pass puts each leaf part into a
    ``RowSpace`` with a unit tail at its cord, as ``coloops`` does.  A leaf
    part that reduces to zero leaves in its tail a combination that cancels,
    nonzero at its own cord and zero at every later one, so the combinations
    are independent, and there are |cords| - rank D of them: a basis of the
    left kernel of D.  Each is a list of ``(a, b, y)`` for the cords a-b
    with a nonzero coefficient y, divided by the common factor of those.
    """
    m = len(cords)
    space = RowSpace(n, tail=m)
    combinations = []
    for i, (a, b) in enumerate(cords):
        row = [0] * (n + m)
        row[a] = row[b] = row[n + i] = 1
        residual, divisor = space.reduce(row)
        if not space.add(residual, divisor):
            tail = space.unpack(residual)[n:]
            g = gcd(*tail)
            combinations.append([(*c, y // g) for c, y in zip(cords, tail) if y])
    return combinations


def _edge_column(combinations, split):
    """An interior edge's coefficient in each combination: the sum of the
    coefficients of the cords whose path crosses the edge's ``split`` (a
    bitmask over the leaves, either side)."""
    return [sum(y for a, b, y in combo if (split >> a ^ split >> b) & 1)
            for combo in combinations]


def _agreement_system(columns):
    """Feasibility system: positive weightings of two shapes agree on the cords.

    ``columns`` holds one column per interior edge, a competing shape's
    edges by ``_edge_column`` and then the tree's edges negated, each over
    the cords' cancelling combinations (``_cancelling_combinations``).  The
    system has one equality per combination, the row across the columns,
    and a strict sign row for every edge.

    The paper lets pendant edges weigh 0.  That changes no verdict: positive
    weightings are among the paper's, and adding a constant c > 0 to every
    pendant edge of both trees keeps the interior weights and makes every
    pendant weight positive; since every leaf-to-leaf path crosses exactly
    two pendant edges, every cord's distance grows by 2c in both trees, so
    agreement is kept.

    By the same fact the pendant edge p_x of the shape and q_x of the tree
    enter the cord x-y only through d_x = p_x - q_x, and any real d_x is
    p_x - q_x for some p_x, q_x > 0 (p_x = |d_x| + 1, q_x = p_x - d_x).  So
    weightings positive on every edge agree exactly when positive interior
    weights s of the shape and t of the tree leave some real d with
    D d = -r, where D is the cord-leaf incidence and r holds each cord's
    interior path sum in the shape minus that in the tree.

    Such a d exists exactly when -r lies in the column space of D, the
    orthogonal complement of its left kernel {y : yᵀD = 0}: exactly when
    y.r = 0 for each y of a basis of that kernel.  And y.r is the sum over
    the interior edges of y's coefficient on the edge (``_edge_column``)
    times its weight, negated for the tree's edges.  So the leaf differences
    leave the system, each combination is one equality over the interior
    edges, and Fourier-Motzkin runs over at most 2(n - 3) variables for n
    leaves.

    A row of this system that is nonzero and has no two entries of opposite
    sign can never vanish at weights that are all positive, so
    ``_can_agree`` rejects such a shape without building the system.
    """
    nvars = len(columns)
    strict = [([int(i == j) for i in range(nvars)], 0) for j in range(nvars)]
    return LinearSystem(equalities=[(row, 0) for row in zip(*columns)],
                        strict_inequalities=strict)


def _can_agree(combinations, tree_columns, shape, max_variables):
    """Whether positive weightings of a competing shape, given by its interior
    splits, agree with the tree's on the cords.

    ``tree_columns`` are the tree's interior edges' columns, negated.  A
    shape one of whose equalities has one sign is refused on the spot (the
    proof is in ``_agreement_system``); any other goes to ``feasible``.
    """
    columns = [_edge_column(combinations, m) for m in shape] + tree_columns
    for row in zip(*columns):
        if any(row) and (min(row) >= 0 or max(row) <= 0):
            return False
    return feasible(_agreement_system(columns), max_variables=max_variables)


def is_topological_lasso(tree, cords, max_leaves=6):
    """Exact decision of the topological-lasso property.

    No other shape on the leaves may have a positive weighting agreeing
    with one of the tree's on the cords.  Three leaves allow one shape, so
    everything passes.  From four leaves on, a cord set that is not a t-cover
    fails, at any number of leaves; ``max_leaves`` bounds only the search
    that follows this test.

    A t-cover is necessary, by weight shifting.  Say the edges e1, e2 at the
    interior vertex v, leading to the leaf sets A and B, lie on no cord's
    path; then no cord joins A and B.  Give the tree T unit weights.  In
    each case below, a shape other than T, weighted positively on every
    edge, has the distances of T on every leaf pair except the A-B pairs,
    so it agrees with T on the cords:

    - deg v >= 4: refine v by a new edge g that separates the branches
      towards A and B from the other branches, with w(g) = 1/2, and take
      1/2 off e1 and off e2;
    - deg v = 3 and the third edge e3 is interior: contract e3 and add
      w(e3) to e1 and to e2;
    - deg v = 3 and e3 is pendant: with four leaves or more one of e1, e2,
      say e1, is interior.  Start from w(e2) = 2, contract e1, take w(e1)
      off e2 and add it to e3.

    A t-cover's cord graph is connected, so the test also rejects every
    disconnected cord graph.  Take a vertex whose branches are the leaves
    x1..xm and at most one other branch R.  A t-cover holds every cord
    xi-xj and, when R exists, a cord from each xi into R.  Putting x1 in
    place of xi in the cords into R gives a t-cover of the tree restricted
    to R and x1, and so on down to three leaves, where a t-cover holds all
    three cords.

    A t-cover goes to the search: competing shapes grow one leaf at a
    time, most cords first, each kept as its clusters (``tree._hangings``)
    and built as no tree.  A prefix on the leaves Y is kept only while it
    can agree with the tree restricted to Y on the cords inside Y, since
    restricting agreeing weightings (summing along condensed chains) keeps
    them positive and agreeing.  The restriction's clusters are the tree's
    clusters cut down to Y, the empty one dropped, so a prefix is that
    restriction itself exactly when its clusters are those.  The cords'
    cancelling combinations and the tree's columns (``_agreement_system``)
    depend only on Y, so each level computes them once, on its first visit.
    """
    labels = tree.leaves
    cords = frozenset(cords)
    for c in cords:
        if c[0] not in labels or c[1] not in labels:
            raise ValueError(f"cord {c} is not over the leaf set")
    if len(labels) < 4:
        return True
    if not is_t_cover(tree, cords):
        return False
    if len(labels) > max_leaves:
        raise ScaleBoundError(
            f"{len(labels)} leaves exceeds the topological-decider bound of {max_leaves}")
    key = (tree.canonical_form(), cords)
    cached = _topological_memo.get(key)
    if cached is not None:
        return cached
    ends = Counter(x for c in cords for x in c)
    order = sorted(labels, key=lambda x: (-ends[x], x))
    n = len(order)
    # Leaf i is order[i]; the tree's clusters are turned away from leaf 0.
    full = (1 << n) - 1
    clusters = [c ^ full if c & 1 else c for c in _clusters(tree, order)]
    position = {x: i for i, x in enumerate(order)}
    pairs = [(position[x], position[y]) for x, y in sorted(cords)]

    def interior(cut, k):   # neither a leaf's nor leaf 0's own edge
        return [c for c in cut if c & (c - 1) and c != (1 << k) - 2]

    levels = {}   # leaf count k -> the tree's clusters on leaves 0..k-1, combinations, columns

    def level(k):
        """Computed once per level: the search reaches it from many prefixes."""
        if k not in levels:
            cut = dict.fromkeys(c & ((1 << k) - 1) for c in clusters if c & ((1 << k) - 1))
            combinations = _cancelling_combinations(
                k, [(a, b) for a, b in pairs if a < k and b < k])
            levels[k] = (frozenset(cut), combinations,
                         [[-y for y in _edge_column(combinations, m)] for m in interior(cut, k)])
        return levels[k]

    def can_agree(prefix, k):
        restricted, combinations, tree_columns = level(k)
        if restricted == set(prefix):
            return k < n   # the tree itself is no competitor
        # each tree has at most max_leaves - 3 interior edges
        return _can_agree(combinations, tree_columns, interior(prefix, k),
                          max_variables=2 * max_leaves - 6)

    def competes(prefix, k):
        """Whether some shape grown from this prefix on k leaves competes."""
        return k == n or any(can_agree(grown, k + 1) and competes(grown, k + 1)
                             for grown in _hangings(prefix, 1 << k))

    result = not competes([0b110, 0b010, 0b100], 3)   # the star on leaves 0, 1, 2
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


def lasso_report(tree, cords, max_leaves=6):
    """Combined verdicts: edge-weight, topological (when in scale), strong."""
    cords = frozenset(cords)
    v = matroid.verdict(tree, cords)
    try:
        topological = is_topological_lasso(tree, cords, max_leaves=max_leaves)
    except ScaleBoundError:
        topological = None
    if topological is None:
        strong = False if not v.lasso else None
    else:
        strong = v.lasso and topological
    return LassoReport(rank=v.rank, edge_weight=v.lasso, topological=topological,
                       strong=strong, bipartition=_connected_bipartition(tree, cords))


def is_minimal_strong_lasso(tree, cords, max_leaves=6):
    """Strong lasso such that no single-cord deletion stays one."""
    cords = frozenset(cords)
    v = matroid.verdict(tree, cords)
    if not v.lasso:
        return False
    if not is_topological_lasso(tree, cords, max_leaves=max_leaves):
        return False
    full = len(tree.edge_ids)
    for c in sorted(cords):
        smaller = cords - {c}
        if matroid.rank_of(tree, smaller) < full:
            continue
        if is_topological_lasso(tree, smaller, max_leaves=max_leaves):
            return False
    return True


@dataclass(frozen=True)
class BipartiteReport:
    rank: int
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
    """Rank picture of a bipartite cord set, answered by its structure theorem.

    For any 2-colouring of the leaves, ``side_weighting`` is orthogonal to
    every two-sided cord's path and gives +-2 on a same-side cord's path.  A
    bipartite cord graph has one such colouring per choice of colours on
    each component, isolated leaves included, so its paths all lie in the
    orthogonal complement of one nonzero weighting: the rank is at most
    |E|-1.  A disconnected one has two independent such weightings (flip the
    colours of one component), which bounds its rank at |E|-2.

    So at rank |E|-1 the cord graph is connected with one bipartition, and
    the cords span the whole complement of its weighting.  A cord lies in
    that span exactly when the weighting vanishes on its path: the closure is
    the two-sided cord set, and every cord outside it reaches full rank.
    Below rank |E|-1 no cord does, as one cord raises the rank by at most 1.
    """
    cords = frozenset(cords)
    report = analyze(tree.leaves, cords)
    if any(not comp.bipartite for comp in report.components):
        raise ValueError("cord set is not bipartite")
    r = matroid.rank_of(tree, cords)
    if r < len(tree.edge_ids) - 1:
        return BipartiteReport(rank=r, bipartition=None, side_weighting=None, closure=None,
                               is_hyperplane=False, lasso_extensions=frozenset())
    side_a, side_b = report.components[0].sides   # the only component
    two_sided = cross_cords(side_a, side_b)
    return BipartiteReport(rank=r, bipartition=(side_a, side_b),
                           side_weighting=side_weighting(tree, side_a, side_b),
                           closure=two_sided, is_hyperplane=True,
                           lasso_extensions=all_cords(tree.leaves) - two_sided)


@dataclass(frozen=True)
class TopologicalRankReport:
    rank: int
    topological: bool | None
    all_cherries_proper: bool
    exists_bipartite_topological: bool | None
    exists_rank_deficient_topological: bool | None
    exists_hyperplane_rank_topological: bool | None


def topological_rank_structure(tree, cords, max_leaves=6):
    """The cord set's rank and topological verdict, whether every cherry of
    the tree is proper, and whether the tree has a bipartite topological
    lasso, one of less than full rank, and one of rank exactly |E|-1.

    ``max_leaves`` bounds only the ``topological`` verdict, which is None
    above it.  Below four leaves the three existence conditions are None.
    From four leaves on they all hold exactly when no interior vertex is
    adjacent to three or more leaves.  A topological lasso of rank |E|-1 is
    one of less than full rank, and the paper's structure result makes
    that one bipartite.  So it suffices to show that the rule is necessary
    for a bipartite one and gives one of rank |E|-1:

    - Only if.  A bipartite topological lasso lies inside the two-sided set
      of a bipartition that extends its colouring, and a superset of a
      topological lasso is still one.  From four leaves on that set is a
      t-cover (proof in ``is_topological_lasso``), so both sides meet every
      cherry (proof in ``split_check``).  Three leaves at one vertex form
      three cherries, and two sides cannot split all three.
    - If.  Put the leaves of each vertex, at most two, on opposite sides.
      A vertex at an end of the tree's interior has two, so neither side is
      empty.  Both sides meet every cherry, so by the split theorem of
      Dress, Huber & Steel ("'Lassoing' a phylogenetic tree I", J. Math.
      Biol. 65, 2012) the two-sided set is a topological lasso.  It is
      bipartite, so its rank is at most |E|-1 (proof in
      ``bipartite_analysis``), and the paper's structure result makes it
      exactly |E|-1.

    A cherry is proper when its vertex has degree 3, the co-loop condition.
    The existence conditions do not need it: on ``((b,c),(d,e),a,f)`` the
    cherry a-f sits on a vertex of degree 4, and the two-sided set of
    abd|cef is a topological lasso of rank |E|-1.
    """
    cords = frozenset(cords)
    r = matroid.rank_of(tree, cords)
    try:
        topological = is_topological_lasso(tree, cords, max_leaves=max_leaves)
    except ScaleBoundError:
        topological = None
    exists = None
    if len(tree.leaves) >= 4:
        leaves_at = Counter(tree.neighbors(tree.leaf_vertex(x))[0][0] for x in tree.leaves)
        exists = max(leaves_at.values()) < 3
    return TopologicalRankReport(
        rank=r, topological=topological,
        all_cherries_proper=all(proper for _c, proper in tree.cherries()),
        exists_bipartite_topological=exists,
        exists_rank_deficient_topological=exists,
        exists_hyperplane_rank_topological=exists,
    )
