"""Recovering the tree from rank queries alone, and binary-matroid checks.

For any four leaves, the three 4-cycles through them have a sharp rank
signature: the cycle whose two missing (diagonal) cords are the separated
pairs of the displayed quartet is dependent, the other two are independent,
and all three are dependent exactly when the four leaves attach at a single
vertex.  Reading that signature off the rank oracle yields the set of
displayed quartets, which pins the tree down up to equivalence; the tree is
then built from the clusters those quartets give, in one pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import matroid
from .errors import ScaleBoundError
from .tree import XTree, are_equivalent, cord, quartet_topology


def _cycle_with_diagonals(pair1, pair2):
    """The 4-cycle on {pair1, pair2} whose missing cords are exactly those pairs."""
    (x1, x2), (x3, x4) = pair1, pair2
    return frozenset((cord(x1, x3), cord(x3, x2), cord(x2, x4), cord(x4, x1)))


def _pairings(four):
    a, b, c, d = sorted(four)
    return (
        (cord(a, b), cord(c, d)),
        (cord(a, c), cord(b, d)),
        (cord(a, d), cord(b, c)),
    )


@dataclass(frozen=True)
class QuartetSet:
    """Resolved quartets: one separated pairing per 4-subset, stars omitted."""

    resolved: frozenset

    def entry_for(self, four):
        four = frozenset(four)
        for pair1, pair2 in self.resolved:
            if frozenset(pair1) | frozenset(pair2) == four:
                return (pair1, pair2)
        return None


def quartet_set_of_tree(tree):
    """Displayed quartets computed directly on the tree (restriction shapes)."""
    resolved = set()
    for four in itertools.combinations(tree.leaves, 4):
        topo = quartet_topology(tree, four)
        if topo is not None:
            resolved.add(topo)
    return QuartetSet(resolved=frozenset(resolved))


def quartet_set_from_oracle(rank_oracle, labels):
    """Displayed quartets recovered from rank queries only.

    For each 4-subset, the pairing whose diagonal 4-cycle is dependent is the
    displayed quartet; when all three 4-cycles are dependent the subset is a
    star and stays unresolved.  Any other signature cannot come from a tree.
    """
    labels = sorted(labels)
    resolved = set()
    for four in itertools.combinations(labels, 4):
        dependent = []
        for pairing in _pairings(four):
            cycle = _cycle_with_diagonals(*pairing)
            if rank_oracle(cycle) < 4:
                dependent.append(pairing)
        if len(dependent) == 1:
            resolved.add(dependent[0])
        elif len(dependent) != 3:
            raise ValueError(f"rank oracle is not tree-like on {four}")
    return QuartetSet(resolved=frozenset(resolved))


def tree_from_oracle(rank_oracle, labels, max_leaves=24):
    """The unique tree whose displayed quartets match the oracle's.

    Reads the oracle's quartets once, then roots the tree at the first label
    r.  For leaves x, y other than r, a leaf z lies below the last common
    ancestor of x and y iff {r,x,y,z} is not rz|xy: if z branches off above
    that ancestor, the edge above it separates xy from rz, and any edge
    separating xy from rz has that ancestor, so all below it, on the side
    away from r.  So the cluster {x, y} + {z : {r,x,y,z} is not rz|xy} is the
    leaf set below that ancestor, and the distinct clusters with 2 to n-2
    leaves are the tree's interior splits, each on the side without r.  The
    splits of a tree nest or are disjoint, so the ``XTree`` constructor
    refuses clusters that cross; nested sets of 2 to n-2 of the n-1 leaves
    other than r number at most n-3, so no count needs checking.  The
    clusters read only the quartets through r, so the tree built from them
    must still display exactly the oracle's quartets: an oracle that is
    wrong on a quartet without r is refused there.
    """
    labels = sorted(labels)
    n = len(labels)
    if n > max_leaves:
        raise ScaleBoundError(
            f"{n} leaves exceeds the recovery bound of {max_leaves}")
    want = quartet_set_from_oracle(rank_oracle, labels)
    r = labels[0]
    clusters = set()
    for x, y in itertools.combinations(labels[1:], 2):
        # x and y pass too, as no quartet repeats a leaf; bit k is labels[k]
        mask = sum(1 << k for k, z in enumerate(labels)
                   if k and ((r, z), (x, y)) not in want.resolved)
        if mask.bit_count() <= n - 2:
            clusters.add(mask)
    splits = [1 << i for i in range(n)] + sorted(clusters)
    try:
        tree = XTree(labels, dict(enumerate(splits)))
    except ValueError:
        raise ValueError(f"no tree displays the oracle's quartets: "
                         f"their clusters below {r!r} cross") from None
    if quartet_set_of_tree(tree) != want:
        raise ValueError("no tree displays the oracle's quartets: "
                         "the tree their clusters give displays others")
    return tree


def matroids_equal(tree1, tree2):
    """Whether the two trees' cord matroids are equal, at any size.

    The rank oracle fixes the displayed quartets (``quartet_set_from_oracle``)
    and the quartets fix the tree up to equivalence (``tree_from_oracle``).
    So equal matroids, which have equal rank functions, give equivalent
    trees, and equivalent trees have equal path vectors on every cord, so
    equal matroids: the matroids are equal exactly when the trees are
    equivalent.  Trees on different leaf sets are refused with ValueError.
    """
    return are_equivalent(tree1, tree2)


@dataclass(frozen=True)
class NonbinaryWitness:
    """Two circuits whose symmetric difference is independent.

    ``leaves`` lists x1..x6 where the pairs (x1,x4), (x2,x5), (x3,x6) are
    disjoint cherries; ``hexagon`` is the 6-cycle x1x2..x6x1, ``quad`` the
    4-cycle on x1,x3,x4,x6, and ``triangles`` their symmetric difference.
    """

    leaves: tuple
    hexagon: frozenset
    quad: frozenset
    triangles: frozenset


def nonbinary_witness(tree):
    """A certificate that the cord matroid is not binary, or None.

    Needs three pairwise-disjoint cherries x1x4, x2x5 and x3x6; the
    construction then produces two circuits whose symmetric difference is
    independent, which no binary matroid allows.  Let u1, u2, u3 be the
    cherries' vertices.  A cord xi-xj's path is the two pendant edges of its
    ends plus the interior path between their vertices, and around the
    hexagon x1x2..x6x1, as around the quad x1x3x4x6, each pendant edge and
    each interior path between two of u1, u2, u3 appears as often with each
    sign of the alternating sum: the sum cancels, so both are dependent.
    On the six pendant coordinates each cord xi-xj is e_i + e_j.  Dropping
    a cord leaves a path on distinct leaves, 5 cords of the hexagon or 3 of
    the quad, and the vectors e_i + e_j along a path are independent (peel
    off an end), so both are circuits.  Their symmetric difference is the
    triangles x1x2x3 and x4x5x6 on disjoint leaves, and e_i + e_j around an
    odd cycle is independent, so the triangles are.
    """
    cherry_pairs = [c for c, _proper in tree.cherries()]
    for trio in itertools.combinations(cherry_pairs, 3):
        support = set()
        for c in trio:
            support |= set(c)
        if len(support) == 6:
            ordered = sorted(trio)
            x = [ordered[0][0], ordered[1][0], ordered[2][0],
                 ordered[0][1], ordered[1][1], ordered[2][1]]
            hexagon = frozenset(cord(x[i], x[(i + 1) % 6]) for i in range(6))
            quad = frozenset((cord(x[0], x[2]), cord(x[2], x[3]),
                              cord(x[3], x[5]), cord(x[5], x[0])))
            triangles = hexagon ^ quad
            return NonbinaryWitness(leaves=tuple(x), hexagon=hexagon, quad=quad,
                                    triangles=triangles)
    return None


@dataclass(frozen=True)
class BinaryMatroidVerdict:
    is_binary: bool
    violation: tuple | None   # (circuit, circuit) whose difference has no decomposition


def _decomposes_into_circuits(cord_set, circuit_list, memo):
    if not cord_set:
        return True
    if cord_set in memo:
        return memo[cord_set]
    out = False
    for circ in circuit_list:
        if circ <= cord_set and _decomposes_into_circuits(cord_set - circ, circuit_list, memo):
            out = True
            break
    memo[cord_set] = out
    return out


def is_binary_matroid(tree, max_leaves=6):
    """Exhaustive binary-matroid test over the fully enumerated circuits.

    A matroid is binary exactly when the symmetric difference of any two
    distinct circuits is a disjoint union of circuits; the first failing
    pair, if any, is reported.
    """
    circuit_list = list(matroid.circuits(tree, max_leaves=max_leaves))
    memo = {}
    for c1, c2 in itertools.combinations(circuit_list, 2):
        diff = c1 ^ c2
        if not _decomposes_into_circuits(diff, circuit_list, memo):
            return BinaryMatroidVerdict(is_binary=False, violation=(c1, c2))
    return BinaryMatroidVerdict(is_binary=True, violation=None)


def near_caterpillar_shape(tree):
    """Star with at most five leaves, or interior vertices on one path with
    degree 3 strictly inside and degree 3 or 4 at the two path ends.

    A plain shape predicate; its agreement with ``is_binary_matroid`` is
    checked in the tests at desk scale and assumed nowhere.
    """
    interior = tree.interior_vertices
    if len(interior) == 1:
        return tree.n_leaves <= 5
    ends = []
    for v in interior:
        interior_nbrs = sum(1 for w, _ in tree.neighbors(v) if w in interior)
        if interior_nbrs > 2:
            return False
        if interior_nbrs == 1:
            ends.append(v)
        if interior_nbrs == 2 and tree.degree(v) != 3:
            return False
    return len(ends) == 2 and all(tree.degree(v) in (3, 4) for v in ends)