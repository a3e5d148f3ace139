"""Pure graph rules for the cord matroid of a star tree.

On a star tree every cord's path uses exactly the two pendant edges at its
ends, so the cord matroid is the even-cycle matroid of the graph whose
vertices are the leaves and whose edges are the cords.  Spanning sets,
independence, rank and closure then have purely combinatorial descriptions
in terms of connected components, cycles and parity, and circuits are read
off the rank and independence rules; each rule here is cross-checked
against the linear-algebra oracle in the tests.
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
    """The components of a cord graph, and the star rules read off them."""

    components: tuple

    @property
    def bipartite_count(self):
        return sum(1 for c in self.components if c.bipartite)

    @property
    def rank(self):
        """Vertex count minus the number of bipartite components (singletons count)."""
        return sum(len(c.vertices) for c in self.components) - self.bipartite_count

    @property
    def lasso(self):
        """Spanning test: no connected component may be bipartite.

        A component with a 2-coloring (singletons included) admits a nonzero
        weighting annihilated by all its cords, so any such component kills
        the spanning property.
        """
        return all(not c.bipartite for c in self.components)

    @property
    def independent(self):
        """Each component is a tree, or carries exactly one cycle of odd length."""
        return all(c.cycle_count == 0 or (c.cycle_count == 1 and not c.bipartite)
                   for c in self.components)

    @property
    def basis(self):
        """Every component carries exactly one cycle, of odd length."""
        return all(c.cycle_count == 1 and not c.bipartite for c in self.components)

    @property
    def closure(self):
        """Complete graph over the non-bipartite part, plus each bipartite
        component's full two-sided cord set."""
        odd_support = set()
        out = set()
        for comp in self.components:
            if not comp.bipartite:
                odd_support |= comp.vertices
            else:
                side_a, side_b = comp.sides
                out |= {cord(a, b) for a in side_a for b in side_b}
        out |= {cord(a, b) for a, b in itertools.combinations(sorted(odd_support), 2)}
        return frozenset(out)

    @property
    def circuit(self):
        """Minimal dependence by the definition: the rank is one below the
        size, and dropping any one cord leaves the rest independent.  Only
        once the rank test passes is the graph analysed again, once per
        dropped cord."""
        labels = frozenset().union(*(c.vertices for c in self.components))
        cords = frozenset().union(*(c.edges for c in self.components))
        return (self.rank == len(cords) - 1
                and all(analyze(labels, cords - {c}).independent for c in sorted(cords)))


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
    """Whether the cords span: ``ComponentReport.lasso``."""
    return analyze(labels, cords).lasso


def star_is_independent(labels, cords):
    """``ComponentReport.independent``."""
    return analyze(labels, cords).independent


def star_is_basis(labels, cords):
    """``ComponentReport.basis``."""
    return analyze(labels, cords).basis


def star_rank(labels, cords):
    """``ComponentReport.rank``."""
    return analyze(labels, cords).rank


def star_closure(labels, cords):
    """``ComponentReport.closure``."""
    return analyze(labels, cords).closure


def star_is_circuit(labels, cords):
    """Minimal dependent sets of the star matroid (``ComponentReport.circuit``).

    These are the circuits of the all-negative signed graph (Zaslavsky,
    "Signed graphs", Discrete Appl. Math. 4, 1982): the even cycles, the
    pairs of odd cycles sharing one vertex, and the pairs of disjoint odd
    cycles joined by a simple path meeting each cycle in a single end.
    """
    return analyze(labels, cords).circuit
