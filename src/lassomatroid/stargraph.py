"""Pure graph rules for the cord matroid of a star tree.

On a star tree every cord's path uses exactly the two pendant edges at its
ends, so the cord matroid is the even-cycle matroid of the graph whose
vertices are the leaves and whose edges are the cords.  Spanning sets,
independence, circuits, rank and closure then have purely combinatorial
descriptions in terms of connected components, cycles and parity; each rule
here is cross-checked against the linear-algebra oracle in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .tree import cord


@dataclass(frozen=True)
class Component:
    vertices: frozenset
    edges: frozenset
    bipartite: bool
    cycle_count: int
    sides: tuple | None   # the two colour classes of a bipartite component


@dataclass(frozen=True)
class ComponentReport:
    components: tuple

    @property
    def bipartite_count(self):
        return sum(1 for c in self.components if c.bipartite)


def analyze(labels, cords):
    """Component decomposition of the cord graph on the given vertex set.

    Isolated vertices count as singleton components (bipartite, no cycles).
    Each component records its cyclomatic number and a 2-coloring verdict;
    a bipartite one keeps its two colour classes, the one holding its
    smallest vertex first.
    """
    labels = set(labels)
    cords = frozenset(cords)
    for a, b in cords:
        if a not in labels or b not in labels:
            raise ValueError(f"cord ({a},{b}) leaves the vertex set")
    adjacency = {v: [] for v in labels}
    for a, b in cords:
        adjacency[a].append(b)
        adjacency[b].append(a)
    unvisited = set(labels)
    components = []
    while unvisited:
        start = min(unvisited)
        color = {start: False}
        queue = [start]
        bipartite = True
        while queue:
            v = queue.pop()
            for w in adjacency[v]:
                if w not in color:
                    color[w] = not color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    bipartite = False
        verts = frozenset(color)
        unvisited -= verts
        edges = frozenset(c for c in cords if c[0] in verts)
        cycle_count = len(edges) - len(verts) + 1
        sides = None
        if bipartite:
            sides = (frozenset(v for v in verts if not color[v]),
                     frozenset(v for v in verts if color[v]))
        components.append(Component(vertices=verts, edges=edges, bipartite=bipartite,
                                    cycle_count=cycle_count, sides=sides))
    components.sort(key=lambda c: min(c.vertices))
    return ComponentReport(components=tuple(components))


def star_is_lasso(labels, cords):
    """Spanning test: no connected component may be bipartite.

    A component with a 2-coloring (singletons included) admits a nonzero
    weighting annihilated by all its cords, so any such component kills the
    spanning property.
    """
    return all(not c.bipartite for c in analyze(labels, cords).components)


def star_is_independent(labels, cords):
    """Each component is a tree, or carries exactly one cycle of odd length."""
    for c in analyze(labels, cords).components:
        if c.cycle_count == 0:
            continue
        if c.cycle_count == 1 and not c.bipartite:
            continue
        return False
    return True


def star_is_basis(labels, cords):
    """Every component carries exactly one cycle, of odd length."""
    return all(c.cycle_count == 1 and not c.bipartite
               for c in analyze(labels, cords).components)


def star_rank(labels, cords):
    """Vertex count minus the number of bipartite components (singletons count)."""
    report = analyze(labels, cords)
    return len(set(labels)) - report.bipartite_count


def star_closure(labels, cords):
    """Complete graph over the non-bipartite part, plus each bipartite component's
    full two-sided cord set."""
    report = analyze(labels, cords)
    odd_support = set()
    out = set()
    for comp in report.components:
        if not comp.bipartite:
            odd_support |= comp.vertices
        else:
            side_a, side_b = comp.sides
            out |= {cord(a, b) for a in side_a for b in side_b}
    out |= {cord(a, b) for a, b in itertools.combinations(sorted(odd_support), 2)}
    return frozenset(out)


def _trace_cycle(adjacency, start, first):
    """Walk from ``start`` through ``first`` along degree-2 vertices; return the
    vertex walk, ending at the first revisit of ``start`` or at a branch vertex."""
    walk = [start, first]
    prev, cur = start, first
    while cur != start and len(adjacency[cur]) == 2:
        nxt = next(w for w in adjacency[cur] if w != prev)
        walk.append(nxt)
        prev, cur = cur, nxt
    return walk


def star_is_circuit(labels, cords):
    """Minimal dependent sets of the star matroid, recognized structurally.

    Exactly the even cycles, the pairs of odd cycles sharing one vertex, and
    the pairs of disjoint odd cycles joined by a simple path meeting each
    cycle in a single end.
    """
    cords = frozenset(cords)
    if not cords:
        return False
    support = set()
    for a, b in cords:
        support.add(a)
        support.add(b)
    report = analyze(support, cords)
    if len(report.components) != 1:
        return False
    adjacency = {v: [] for v in support}
    for a, b in cords:
        adjacency[a].append(b)
        adjacency[b].append(a)
    degrees = sorted(len(adjacency[v]) for v in support)
    if degrees[0] < 2:
        return False
    if all(d == 2 for d in degrees):
        # one single cycle; minimal-dependent iff even
        return len(cords) % 2 == 0
    if degrees[-1] == 4 and degrees[-2] == 2:
        # two cycles glued at one vertex: both must be odd
        hub = next(v for v in support if len(adjacency[v]) == 4)
        nbrs = list(adjacency[hub])
        first_walk = _trace_cycle(adjacency, hub, nbrs[0])
        if first_walk[-1] != hub:
            return False
        len1 = len(first_walk) - 1
        len2 = len(cords) - len1
        return len1 % 2 == 1 and len2 % 2 == 1
    if degrees[-1] == 3 and degrees[-2] == 3 and all(d == 2 for d in degrees[:-2]):
        # candidate: two cycles joined by a path (ends degree 3) or a theta graph
        u, v = sorted(x for x in support if len(adjacency[x]) == 3)
        cycle_lengths = []
        path_found = False
        for first in adjacency[u]:
            walk = _trace_cycle(adjacency, u, first)
            if walk[-1] == u:
                # each cycle at u is traced once from each side
                cycle_lengths.append(len(walk) - 1)
            elif walk[-1] == v:
                path_found = True
        if not path_found or not cycle_lengths:
            return False  # a theta graph: every walk from u reaches v
        len1 = cycle_lengths[0]
        for first in adjacency[v]:
            walk = _trace_cycle(adjacency, v, first)
            if walk[-1] == v:
                len2 = len(walk) - 1
                return len1 % 2 == 1 and len2 % 2 == 1
        return False
    return False