"""Seeded input generation, independent of the package under test.

Trees are built here as plain adjacency maps, so the benchmark knows every
input's shape and path vectors without asking the program.  The program only
ever receives the Newick text and cord lists made from them.
"""

from __future__ import annotations

import itertools


class Shape:
    """Unrooted leaf-labelled tree: vertices are ints, leaves carry labels."""

    def __init__(self, edges, leaf_vertex):
        self.edges = [tuple(e) for e in edges]
        self.leaf_vertex = dict(leaf_vertex)
        self.leaves = tuple(sorted(self.leaf_vertex))
        self.adjacency = {}
        self._vectors = {}
        for eid, (u, v) in enumerate(self.edges):
            self.adjacency.setdefault(u, []).append((v, eid))
            self.adjacency.setdefault(v, []).append((u, eid))

    def interior_edges(self):
        leafs = set(self.leaf_vertex.values())
        return [eid for eid, (u, v) in enumerate(self.edges)
                if u not in leafs and v not in leafs]

    def path_vector(self, a, b):
        """0/1 incidence over this shape's edge list for the a-b path."""
        key = cord(a, b)
        if key in self._vectors:
            return self._vectors[key]
        start, goal = self.leaf_vertex[a], self.leaf_vertex[b]
        parent = {start: None}
        stack = [start]
        while stack:
            u = stack.pop()
            for w, eid in self.adjacency[u]:
                if w not in parent:
                    parent[w] = (u, eid)
                    stack.append(w)
        vec = [0] * len(self.edges)
        u = goal
        while parent[u] is not None:
            u, eid = parent[u]
            vec[eid] = 1
        self._vectors[key] = vec = tuple(vec)
        return vec

    def splits(self):
        """The shape's splits, each as the side without the smallest leaf."""
        first = self.leaves[0]
        out = set()
        for u, v in self.edges:
            seen, stack, side = {u, v}, [v], []
            while stack:
                w = stack.pop()
                for x, _ in self.adjacency[w]:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            labels = {x for x, w in self.leaf_vertex.items() if w in seen - {u}}
            if first in labels:
                labels = set(self.leaves) - labels
            out.add(frozenset(labels))
        return frozenset(out)

    def newick(self):
        """Newick text rooted at an interior vertex (every one has degree >= 3)."""
        labels = {v: x for x, v in self.leaf_vertex.items()}
        root = next(v for v in self.adjacency if v not in labels)

        def render(v, parent):
            if v in labels:
                return labels[v]
            return "(" + ",".join(render(w, v) for w, _ in self.adjacency[v] if w != parent) + ")"

        return render(root, None) + ";"

    def collapse(self, eid):
        """The shape with interior edge ``eid`` contracted."""
        keep, drop = self.edges[eid]
        edges = []
        for i, (u, v) in enumerate(self.edges):
            if i != eid:
                edges.append((keep if u == drop else u, keep if v == drop else v))
        return Shape(edges, self.leaf_vertex)


def side_sizes(edges, leaf_vertices):
    """Leaves on the smaller side of each interior edge.

    ``edges`` maps an edge id to its two end vertices; works on a ``Shape``'s
    enumerated edges and on the edge map of a parsed tree alike.
    """
    adjacency = {}
    for eid, (u, v) in edges.items():
        adjacency.setdefault(u, []).append((v, eid))
        adjacency.setdefault(v, []).append((u, eid))
    out = {}
    for eid, (u, v) in edges.items():
        if u in leaf_vertices or v in leaf_vertices:
            continue
        seen, stack = {u, v}, [v]
        while stack:
            for w, _ in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        k = len(leaf_vertices & seen)
        out[eid] = min(k, len(leaf_vertices) - k)
    return out


def signature(shape):
    """The unlabelled shape class: sorted smaller-side sizes of the interior splits.

    It tells apart every unlabelled shape on six leaves.
    """
    sizes = side_sizes(dict(enumerate(shape.edges)), set(shape.leaf_vertex.values()))
    return tuple(sorted(sizes.values()))


def shape_of_class(rng, labels, sig):
    """Random labelled shape whose ``signature`` is ``sig``."""
    while True:
        shape = random_shape_with(rng, labels, len(sig))
        if signature(shape) == sig:
            return shape


def caterpillar(rng, labels):
    """Caterpillar on a random ordering of the labels."""
    labels = list(labels)
    rng.shuffle(labels)
    n = len(labels)
    spine = list(range(n, 2 * n - 2))        # n - 2 interior vertices
    edges = [(spine[i], spine[i + 1]) for i in range(n - 3)]
    edges += [(0, spine[0]), (n - 1, spine[-1])]
    edges += [(i, spine[i - 1]) for i in range(1, n - 1)]
    return Shape(edges, {x: i for i, x in enumerate(labels)})


def cord(a, b):
    return (a, b) if a < b else (b, a)


def all_cords(labels):
    return [cord(a, b) for a, b in itertools.combinations(sorted(labels), 2)]


def star(labels):
    labels = list(labels)
    hub = len(labels)
    return Shape([(i, hub) for i in range(len(labels))], {x: i for i, x in enumerate(labels)})


def random_binary(rng, labels):
    """Uniform random binary shape: each new leaf subdivides a uniform random edge."""
    labels = list(labels)
    rng.shuffle(labels)
    edges = [(0, 3), (1, 3), (2, 3)]
    leaf_vertex = {labels[0]: 0, labels[1]: 1, labels[2]: 2}
    nxt = 4
    for x in labels[3:]:
        i = rng.randrange(len(edges))
        u, v = edges[i]
        mid, tip = nxt, nxt + 1
        nxt += 2
        edges[i] = (u, mid)
        edges += [(mid, v), (mid, tip)]
        leaf_vertex[x] = tip
    return Shape(edges, leaf_vertex)


def random_shape(rng, labels, collapse_prob):
    """Random binary shape with each interior edge collapsed with the given odds."""
    shape = random_binary(rng, labels)
    picks = [e for e in shape.interior_edges() if rng.random() < collapse_prob]
    for eid in sorted(picks, reverse=True):  # descending keeps lower edge ids valid
        shape = shape.collapse(eid)
    return shape


def random_shape_with(rng, labels, interior):
    """Random shape with exactly the given number of interior edges."""
    shape = random_binary(rng, labels)
    while len(shape.interior_edges()) > interior:
        shape = shape.collapse(rng.choice(shape.interior_edges()))
    return shape


def random_cords(rng, labels, k):
    pool = all_cords(labels)
    return sorted(rng.sample(pool, min(k, len(pool))))


def random_bipartition(rng, labels):
    labels = sorted(labels)
    while True:
        side = {x for x in labels if rng.random() < 0.5}
        if 0 < len(side) < len(labels):
            return sorted(side), sorted(set(labels) - side)


def cross_cords(side_a, side_b):
    return sorted(cord(a, b) for a in side_a for b in side_b)
