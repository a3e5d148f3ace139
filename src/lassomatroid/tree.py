"""Leaf-labeled trees without degree-2 vertices.

An ``XTree`` is a finite unrooted tree whose degree-1 vertices carry distinct
labels (the leaves) and whose interior vertices all have degree at least 3.
Edges carry stable integer ids so that contraction preserves the identity of
surviving edges and weightings restrict canonically.  Instances are immutable
and safe to share between threads.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .errors import NewickError, ScaleBoundError

LABEL_RE = re.compile(r"[A-Za-z0-9_]+")
WEIGHT_RE = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")

Cord = tuple  # unordered pair of leaf labels, stored sorted


def cord(a, b):
    """Canonical unordered pair of two distinct leaf labels."""
    if a == b:
        raise ValueError(f"a cord needs two distinct labels, got {a!r} twice")
    return (a, b) if a < b else (b, a)


def all_cords(labels):
    """Every unordered pair over the given labels."""
    return frozenset(cord(a, b) for a, b in itertools.combinations(sorted(labels), 2))


def cross_cords(side_a, side_b):
    """All cords with one end in each side (the complete bipartite cord set)."""
    side_a, side_b = set(side_a), set(side_b)
    if side_a & side_b:
        raise ValueError("sides overlap")
    return frozenset(cord(a, b) for a in side_a for b in side_b)


class XTree:
    """Unrooted leaf-labeled tree, no degree-2 vertices, at least 3 leaves.

    Construction walks the tree once, breadth-first from the first leaf's
    neighbour.  The walk keeps the order in which it took the edges and, per
    edge column, the edge's upper and lower end and the leaves below it as a
    bitmask over the sorted labels: the edge's split of the leaves.  Paths,
    sides, distances and quartets are read off those splits.
    """

    __slots__ = ("_edges", "_leaf_vertex", "_vertex_leaf", "_adjacency",
                 "_edge_ids", "_edge_column", "_leaves", "_walk", "_upper",
                 "_lower", "_below", "_canonical", "_vectors")

    def __init__(self, edges, leaves):
        self._edges = {eid: frozenset(pair) for eid, pair in dict(edges).items()}
        self._leaf_vertex = dict(leaves)
        self._vertex_leaf = {v: x for x, v in self._leaf_vertex.items()}
        if len(self._vertex_leaf) != len(self._leaf_vertex):
            raise ValueError("leaf labels do not map to distinct vertices")
        adjacency = {}
        for eid, pair in self._edges.items():
            if len(pair) != 2:
                raise ValueError(f"edge {eid} is not a 2-set")
            u, v = tuple(pair)
            adjacency.setdefault(u, []).append((v, eid))
            adjacency.setdefault(v, []).append((u, eid))
        self._adjacency = {v: tuple(nbrs) for v, nbrs in adjacency.items()}
        self._edge_ids = tuple(sorted(self._edges))
        self._edge_column = {eid: i for i, eid in enumerate(self._edge_ids)}
        self._leaves = tuple(sorted(self._leaf_vertex))
        self._canonical = None
        self._vectors = {}
        self._validate()

    def _validate(self):
        """Check the tree, then store its split table from the one walk."""
        adjacency = self._adjacency
        if len(self._leaves) < 3:
            raise ValueError("an X-tree needs at least 3 leaves")
        if len(self._edges) != len(adjacency) - 1:
            raise ValueError("edge count does not match a tree")
        if {v for v, nbrs in adjacency.items() if len(nbrs) == 1} != self._vertex_leaf.keys():
            raise ValueError("degree-1 vertices must be exactly the labeled leaves")
        for v, nbrs in adjacency.items():
            if len(nbrs) == 2:
                raise ValueError(f"vertex {v!r} has degree 2")
        root = adjacency[self._leaf_vertex[self._leaves[0]]][0][0]
        column = self._edge_column
        walk = []   # edge columns in the order the walk takes them
        upper, lower = [None] * len(column), [None] * len(column)
        below = {root: 0}   # vertex -> leaves below it; also the walk's visited set
        queue = [root]
        for v in queue:
            for w, eid in adjacency[v]:
                if w not in below:
                    below[w] = 0
                    queue.append(w)
                    col = column[eid]
                    walk.append(col)
                    upper[col], lower[col] = v, w
        if len(below) != len(adjacency):
            raise ValueError("tree is not connected")
        for i, x in enumerate(self._leaves):
            below[self._leaf_vertex[x]] = 1 << i
        masks = [0] * len(column)
        for col in reversed(walk):
            masks[col] = below[lower[col]]
            below[upper[col]] |= masks[col]
        self._walk = tuple(walk)
        self._upper, self._lower, self._below = tuple(upper), tuple(lower), tuple(masks)

    # -- basic structure ---------------------------------------------------

    @property
    def vertices(self):
        return frozenset(self._adjacency)

    @property
    def edges(self):
        """Mapping edge id -> frozenset of its two endpoints."""
        return dict(self._edges)

    @property
    def edge_ids(self):
        return self._edge_ids

    @property
    def edge_column(self):
        """Mapping edge id -> column index in incidence vectors (its place in edge_ids)."""
        return dict(self._edge_column)

    @property
    def leaves(self):
        return self._leaves

    @property
    def n_leaves(self):
        return len(self._leaf_vertex)

    def leaf_vertex(self, label):
        try:
            return self._leaf_vertex[label]
        except KeyError:
            raise ValueError(f"unknown leaf label {label!r}") from None

    def leaf_of_vertex(self, v):
        return self._vertex_leaf.get(v)

    def degree(self, v):
        try:
            return len(self._adjacency[v])
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def neighbors(self, v):
        """Tuple of (neighbor vertex, edge id) pairs at a vertex."""
        try:
            return self._adjacency[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    @property
    def interior_vertices(self):
        return frozenset(v for v in self._adjacency if v not in self._vertex_leaf)

    def is_interior_edge(self, eid):
        """Neither end is a leaf; a leaf is always the lower end of its edge."""
        return self._lower[self._edge_column[eid]] not in self._vertex_leaf

    @property
    def interior_edge_ids(self):
        return tuple(eid for eid in self._edge_ids if self.is_interior_edge(eid))

    def pendant_edge(self, label):
        """Edge id of the unique edge at the given leaf."""
        v = self.leaf_vertex(label)
        return self._adjacency[v][0][1]

    def is_binary(self):
        return all(self.degree(v) == 3 for v in self.interior_vertices)

    # -- splits, paths and distances -----------------------------------------

    def _position_of(self, label):
        """Place of a leaf in the sorted labels: its bit in the split masks."""
        try:
            return self._leaves.index(label)
        except ValueError:
            raise ValueError(f"unknown leaf label {label!r}") from None

    def side(self, eid, vertex):
        """Leaf labels on ``vertex``'s side of edge ``eid``.

        These are the leaves of the component containing ``vertex`` once the
        edge is removed; the other side is their complement.
        """
        if vertex not in self._edges[eid]:
            raise ValueError(f"vertex {vertex!r} is not an end of edge {eid}")
        col = self._edge_column[eid]
        mask = self._below[col]
        if vertex != self._lower[col]:
            mask ^= (1 << len(self._leaves)) - 1
        return frozenset(x for i, x in enumerate(self._leaves) if mask >> i & 1)

    def path_vector(self, c):
        """0/1 incidence tuple over edge columns: 1 iff the edge's split separates a from b."""
        vec = self._vectors.get(c)
        if vec is None:
            a, b = (self._position_of(x) for x in c)
            vec = tuple((mask >> a ^ mask >> b) & 1 for mask in self._below)
            self._vectors[c] = vec
        return vec

    @property
    def interior_splits(self):
        """The splits of the interior edges, in column order.

        Each is the bitmask, over the sorted labels, of the edge's side away
        from the first leaf.  The split table holds every edge's side below
        it; a pendant edge's is its one leaf, a power of two, and an interior
        edge's holds at least two leaves.
        """
        return tuple(mask for mask in self._below if mask & (mask - 1))

    def distance(self, weighting, c):
        """Path sum of edge weights between the two leaves of the cord."""
        if set(weighting) != set(self._edges):
            raise ValueError("weighting domain must be exactly the edge set")
        on_path = zip(self._edge_ids, self.path_vector(c))
        return sum((weighting[eid] for eid, on in on_path if on), Fraction(0))

    # -- cherries and shape ------------------------------------------------

    def cherries(self):
        """All leaf pairs whose pendant edges share a vertex, with a properness flag.

        The pair is proper when the shared vertex has degree 3.
        """
        by_neighbor = {}
        for label, v in sorted(self._leaf_vertex.items()):
            nbr = self._adjacency[v][0][0]
            by_neighbor.setdefault(nbr, []).append(label)
        out = []
        for nbr, labels in sorted(by_neighbor.items(), key=lambda kv: kv[1]):
            proper = self.degree(nbr) == 3
            for a, b in itertools.combinations(labels, 2):
                out.append((cord(a, b), proper))
        return out

    def is_caterpillar(self):
        """Binary, with all interior vertices lying on one path."""
        if not self.is_binary():
            return False
        interior = self.interior_vertices
        if len(interior) <= 2:
            return True
        for v in interior:
            interior_nbrs = sum(1 for w, _ in self._adjacency[v] if w in interior)
            if interior_nbrs > 2:
                return False
        return True

    # -- equivalence and serialization --------------------------------------

    def _fold(self, make):
        """Bottom-up value of the tree rooted next to its first leaf.

        ``make(v, via_edge, child_values)`` gives a vertex's value from its
        children's; the construction walk is replayed backwards, without
        recursion, so depth is unbounded.
        """
        children = {}
        for col in reversed(self._walk):
            v = self._lower[col]
            value = make(v, self._edge_ids[col], children.pop(v, []))
            children.setdefault(self._upper[col], []).append(value)
        root = self._upper[self._walk[0]]
        return make(root, None, children[root])

    def canonical_form(self):
        """Canonical string; equal strings == leaf-fixing isomorphism."""
        if self._canonical is None:
            def make(v, _via, children):
                label = self._vertex_leaf.get(v)
                return label if label is not None else "(" + ",".join(sorted(children)) + ")"

            self._canonical = self._fold(make)
        return self._canonical

    def to_newick(self, weighting=None):
        """Canonical Newick text; optional exact weights rendered as p/q."""
        if weighting is not None and set(weighting) != set(self._edges):
            raise ValueError("weighting domain must be exactly the edge set")

        def make(v, via_edge, children):
            label = self._vertex_leaf.get(v)
            if label is not None:
                key, text = label, label
            else:
                parts = sorted(children)
                key = "(" + ",".join(p[0] for p in parts) + ")"
                text = "(" + ",".join(p[1] for p in parts) + ")"
            if weighting is not None and via_edge is not None:
                w = Fraction(weighting[via_edge])
                text += ":" + (str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}")
            return key, text

        return self._fold(make)[1] + ";"

    def __repr__(self):
        return f"XTree({self.canonical_form()!r})"

    # -- surgery -------------------------------------------------------------

    def contract(self, edge_ids):
        """Collapse a set of interior edges; surviving edges keep their ids."""
        F = set(edge_ids)
        if not F:
            return self
        for eid in F:
            if eid not in self._edges:
                raise ValueError(f"unknown edge id {eid}")
            if not self.is_interior_edge(eid):
                raise ValueError(f"edge {eid} is pendant; only interior edges can be collapsed")
        surviving = {eid: mask for eid, mask in zip(self._edge_ids, self._below) if eid not in F}
        return _tree_from_splits(self._leaves, surviving)

    def restrict(self, labels):
        """Minimal subtree spanning the given leaves, degree-2 vertices suppressed.

        Returns ``(subtree, condensed)`` where ``condensed`` maps each new edge
        id to the increasing tuple of original edge ids it replaces: the edges
        whose splits restrict to the same split of the kept leaves.  New ids
        follow the chains' smallest original ids, and an edge weighting of the
        full tree restricts by summation.
        """
        Y = set(labels)
        if not Y <= set(self._leaf_vertex):
            raise ValueError("labels are not a subset of the leaves")
        if len(Y) < 3:
            raise ValueError("a restriction needs at least 3 leaves")
        kept = [i for i, x in enumerate(self._leaves) if x in Y]
        full = (1 << len(kept)) - 1
        chains = {}   # restricted split, turned away from the first kept leaf -> edge ids
        for eid, mask in zip(self._edge_ids, self._below):
            split = sum((mask >> i & 1) << j for j, i in enumerate(kept))
            if split & 1:
                split ^= full
            if split:
                chains.setdefault(split, []).append(eid)
        sub = _tree_from_splits(tuple(sorted(Y)), dict(enumerate(chains)))
        return sub, {new_id: tuple(chain) for new_id, chain in enumerate(chains.values())}


def restrict_weighting(weighting, condensed):
    """Induced weighting on a restriction: each condensed edge gets the chain sum."""
    return {new_id: sum((Fraction(weighting[e]) for e in chain), Fraction(0))
            for new_id, chain in condensed.items()}


def are_equivalent(t1, t2):
    """Leaf-fixing isomorphism test via canonical forms."""
    if t1.leaves != t2.leaves:
        raise ValueError("trees have different leaf sets")
    return t1.canonical_form() == t2.canonical_form()


def quartet_topology(tree, four):
    """Shape of the tree restricted to four leaves.

    Returns the separated pair of cords ``(xy, zw)`` when some edge's split
    puts {x,y} on one side and {z,w} on the other, or None when no edge
    splits the four two against two (the restriction is a star).  At most
    one of the three pairings is separated.
    """
    labels = sorted(set(four))
    if len(labels) != 4:
        raise ValueError("need four distinct leaves")
    a, b, c, d = labels
    bit = {x: 1 << tree._position_of(x) for x in labels}
    pairing_of = {bit[p] | bit[q]: pairing
                  for pairing in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
                  for p, q in pairing}
    four_bits = sum(bit.values())
    for mask in tree._below:
        pairing = pairing_of.get(mask & four_bits)
        if pairing is not None:
            return pairing
    return None


# -- parsing ----------------------------------------------------------------


def _parse_rational(token, position):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise NewickError(f"invalid rational weight {token!r}", position) from None


def parse_newick(text):
    """Parse Newick text into ``(XTree, weighting-or-None)``.

    Weights, when present, must be given on every edge and are parsed as
    exact rationals ("3/2", "0.25", "-1").  A two-child outer grouping is
    read as an unrooted tree (its two top edges fuse into one); any other
    degree-2 vertex is an error, as are duplicate labels and fewer than
    three leaves.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def finish(children, label, start):
        # the optional ':weight' after a node; returns the parsed node
        nonlocal pos
        skip_ws()
        weight = None
        if pos < n and text[pos] == ":":
            pos += 1
            m = WEIGHT_RE.match(text, pos)
            if not m:
                raise NewickError("expected a rational weight after ':'", pos)
            weight = _parse_rational(m.group(0), pos)
            pos = m.end()
        return (children, label, weight, start)

    # Nodes are (children, label, weight, position).  Open groups wait on an
    # explicit stack, so nesting depth is bounded by memory, not recursion.
    groups = []
    root = None
    while root is None:
        skip_ws()
        if pos >= n:
            raise NewickError("unexpected end of input", pos)
        start = pos
        if text[pos] == "(":
            pos += 1
            groups.append(([], start))
            continue
        m = LABEL_RE.match(text, pos)
        if not m:
            raise NewickError(f"expected a leaf label, found {text[pos]!r}", pos)
        pos = m.end()
        node = finish([], m.group(0), start)
        while groups:
            children, group_start = groups[-1]
            children.append(node)
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
                break
            if pos >= n or text[pos] != ")":
                raise NewickError("expected ',' or ')'", pos)
            pos += 1
            skip_ws()
            if pos < n and LABEL_RE.match(text[pos]):
                raise NewickError("labels on interior vertices are not supported", pos)
            groups.pop()
            node = finish(children, None, group_start)
        else:
            root = node

    skip_ws()
    if pos >= n or text[pos] != ";":
        raise NewickError("expected ';'", pos)
    pos += 1
    skip_ws()
    if pos != n:
        raise NewickError("trailing text after ';'", pos)
    if root[2] is not None:
        raise NewickError("a weight on the outer grouping has no edge", root[3])
    if not root[0]:
        raise NewickError("a single label is not a tree", root[3])
    if len(root[0]) == 1:
        raise NewickError("outer parentheses enclose a single subtree", root[3])

    counter = itertools.count()
    edges = {}
    leaf_map = {}
    weights = {}
    label_pos = {}

    # vertices and edges are numbered in preorder, children left to right
    stack = [(root, None)]
    while stack:
        (children, label, weight, position), parent_vertex = stack.pop()
        vid = next(counter)
        if label is not None:
            if label in leaf_map:
                raise NewickError(f"duplicate leaf label {label!r}", position)
            leaf_map[label] = vid
            label_pos[label] = position
        if parent_vertex is not None:
            eid = len(edges)
            edges[eid] = frozenset((parent_vertex, vid))
            if weight is not None:
                weights[eid] = weight
        stack.extend((child, vid) for child in reversed(children))
    root_vertex = 0

    if len(root[0]) == 2:
        # unrooted convention: fuse the two edges at the outer grouping
        (e1, e2) = [eid for eid, pair in edges.items() if root_vertex in pair]
        (v1,) = edges[e1] - {root_vertex}
        (v2,) = edges[e2] - {root_vertex}
        del edges[e2]
        edges[e1] = frozenset((v1, v2))
        if e1 in weights or e2 in weights:
            if not (e1 in weights and e2 in weights):
                raise NewickError("weights must be given on all edges or none", root[3])
            weights[e1] = weights[e1] + weights.pop(e2)

    if weights and len(weights) != len(edges):
        raise NewickError("weights must be given on all edges or none", root[3])

    if len(leaf_map) < 3:
        raise NewickError("an X-tree needs at least 3 leaves", root[3])
    # degree check with positions where possible
    degree = {}
    for pair in edges.values():
        for v in pair:
            degree[v] = degree.get(v, 0) + 1
    for label, vid in leaf_map.items():
        if degree.get(vid, 0) != 1:
            raise NewickError(f"leaf label {label!r} sits on a non-leaf vertex", label_pos[label])
    for v, d in degree.items():
        if d == 2:
            raise NewickError("input contains a degree-2 vertex", root[3])
    tree = XTree(edges, leaf_map)
    return tree, (weights or None)


def tree_from_newick(text):
    """Parse and drop any weighting."""
    return parse_newick(text)[0]


# -- builders ----------------------------------------------------------------


def _tree_from_splits(labels, splits):
    """The X-tree on the sorted ``labels`` whose edge ``eid`` has split ``splits[eid]``.

    A split is a bitmask over the labels of either side; it is turned to the
    side without the first label, and each edge hangs below the smallest split
    that strictly contains its own (the largest hangs below the first leaf).
    Leaves are vertices 0..n-1 in label order and interior vertices follow by
    increasing split size.  The constructor validates the result.
    """
    n = len(labels)
    if n < 3:
        raise ValueError("an X-tree needs at least 3 leaves")
    full = (1 << n) - 1
    order = sorted(((mask ^ full if mask & 1 else mask, eid) for eid, mask in splits.items()),
                   key=lambda split: split[0].bit_count())
    interior = itertools.count(n)
    lower = {eid: next(interior) if mask & (mask - 1) else mask.bit_length() - 1
             for mask, eid in order}
    upper = {}
    for i, (mask, eid) in enumerate(order):
        # a later, so larger, split holding any leaf of this one contains it
        leaf = mask & -mask
        upper[eid] = next((lower[f] for m, f in order[i + 1:] if m & leaf), 0)
    return XTree({eid: (lower[eid], upper[eid]) for eid in splits},
                 {x: i for i, x in enumerate(labels)})


def star_tree(labels):
    """The tree with a single interior vertex adjacent to every leaf."""
    labels = sorted(labels)
    return _tree_from_splits(labels, {i: 1 << i for i in range(len(labels))})


def quartet_tree(a, b, c, d):
    """The binary 4-leaf tree whose central edge separates {a,b} from {c,d}."""
    labels = (a, b, c, d)
    if len(set(labels)) != 4:
        raise ValueError("need four distinct labels")
    return caterpillar_tree(labels)   # pendant edges 0-3, and edge 4 splits ab|cd


def caterpillar_tree(labels):
    """Binary tree whose leaves hang off a single interior path, in order."""
    labels = list(labels)
    if len(labels) < 4:
        if len(labels) == 3:
            return star_tree(labels)
        raise ValueError("need at least 3 labels")
    order = sorted(range(len(labels)), key=labels.__getitem__)
    bits = [1 << order.index(i) for i in range(len(labels))]
    # pendant edges first, then the path edges cutting off each longer prefix
    path = list(itertools.accumulate(bits))[1:-2]
    return _tree_from_splits(sorted(labels), dict(enumerate(bits + path)))


# -- growth by leaf insertion ------------------------------------------------


def hang_leaf(tree, label, binary=False):
    """Every tree made by hanging a new leaf on a vertex subdividing each edge
    in turn, then (unless ``binary``) on each interior vertex.  Removing that
    leaf, and a vertex left with degree 2, gives back ``tree``, so growth from
    a 3-leaf star reaches every shape once.  Edge ids are list positions.
    """
    if label in tree._leaf_vertex:
        raise ValueError(f"leaf label {label!r} is already in the tree")
    edge_list = [tuple(tree._edges[eid]) for eid in tree.edge_ids]
    leaves = dict(tree._leaf_vertex)
    mid = max(tree.vertices) + 1
    for i, (u, v) in enumerate(edge_list):
        grown = edge_list[:i] + edge_list[i + 1:] + [(u, mid), (mid, v), (mid, mid + 1)]
        yield XTree(dict(enumerate(grown)), {**leaves, label: mid + 1})
    if not binary:
        for v in sorted(tree.interior_vertices):
            yield XTree(dict(enumerate(edge_list + [(v, mid)])), {**leaves, label: mid})


def grow(tree, labels, binary=False, keep=None):
    """Depth-first: every tree grown from ``tree`` by hanging ``labels`` in order,
    skipping each grown tree that ``keep`` refuses and all grown from it."""
    if not labels:
        yield tree
        return
    for bigger in hang_leaf(tree, labels[0], binary):
        if keep is None or keep(bigger):
            yield from grow(bigger, labels[1:], binary, keep)


def enumerate_binary_xtrees(labels):
    """All binary trees on the labels, one per equivalence class."""
    labels = sorted(labels)
    return list(grow(star_tree(labels[:3]), labels[3:], binary=True))


def enumerate_xtrees(labels, max_leaves=8):
    """One representative per equivalence class of trees on the labels.

    Yields every shape, multifurcating ones included, grown by leaf insertion.
    Refuses leaf sets above ``max_leaves``.
    """
    labels = sorted(labels)
    if len(labels) > max_leaves:
        raise ScaleBoundError(
            f"{len(labels)} leaves exceeds the enumeration bound of {max_leaves}")
    yield from grow(star_tree(labels[:3]), labels[3:])
