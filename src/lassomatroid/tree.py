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
    three leaves.  Edges are numbered in preorder, children left to right,
    the fused edge taking the first top edge's id; the tree is built from
    each node's leaves by ``_tree_from_splits``.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    leaves = []   # (label, position) in text order; leaf i is bit i of a node's mask
    weighted = []   # per finished node, whether it has a weight; the root is last

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
        weighted.append(weight is not None)
        if label is None:
            mask = sum(child[4] for child in children)
        else:
            mask = 1 << len(leaves)
            leaves.append((label, start))
        return (children, label, weight, start, mask)

    # Nodes are (children, label, weight, position, leaves below as a mask).
    # Open groups wait on an explicit stack, so nesting depth is bounded by
    # memory, not recursion.
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
    first = {}
    for label, position in leaves:
        if first.setdefault(label, position) != position:
            raise NewickError(f"duplicate leaf label {label!r}", position)
    if any(weighted) and not all(weighted[:-1]):
        raise NewickError("weights must be given on all edges or none", root[3])
    if len(leaves) < 3:
        raise NewickError("an X-tree needs at least 3 leaves", root[3])

    # Edge ids follow the nodes below them in preorder, children left to right.
    full = (1 << len(leaves)) - 1
    edge_of, weights = {}, {}   # split -> edge id; edge id -> weight
    stack = [(child, root) for child in reversed(root[0])]
    eid = 0
    while stack:
        node, up = stack.pop()
        children, _label, weight, _position, mask = node
        split = mask ^ full if mask & 1 else mask
        if split not in edge_of:
            edge_of[split] = eid
            if weight is not None:
                weights[eid] = weight
        elif up is root:
            # the children of a two-child outer grouping: their two edges
            # fuse into the first one, and the weights add
            if weight is not None:
                weights[edge_of[split]] += weight
        else:
            # any other repeat has this node as its parent's only child
            raise NewickError("input contains a degree-2 vertex", up[3])
        eid += 1
        stack += [(child, node) for child in reversed(children)]
    splits = {eid: split for split, eid in edge_of.items()}
    return _tree_from_splits([label for label, _ in leaves], splits), (weights or None)


def tree_from_newick(text):
    """Parse and drop any weighting."""
    return parse_newick(text)[0]


# -- builders ----------------------------------------------------------------


def _tree_from_splits(labels, splits):
    """The X-tree on the distinct ``labels`` whose edge ``eid`` has split ``splits[eid]``.

    A split is a bitmask, bit i standing for labels[i], of either side; it
    is turned to the side without the first label.  A split strictly
    inside another is smaller as a number, so from the largest down each
    edge hangs below the smallest split met so far that holds any of its
    leaves (the largest hangs below the first leaf).  Leaf i is vertex i,
    and interior vertices follow from the largest split down.  The
    constructor validates the result.
    """
    n = len(labels)
    if n < 3:
        raise ValueError("an X-tree needs at least 3 leaves")
    full = (1 << n) - 1
    edges = {}
    holder = {}   # leaf bit -> lower vertex of the smallest split so far holding it
    interior = n
    for mask, eid in sorted(((mask ^ full if mask & 1 else mask, eid)
                             for eid, mask in splits.items()), reverse=True):
        upper = holder.get(mask & -mask, 0)
        if mask & (mask - 1):
            edges[eid] = (interior, upper)
            while mask:
                leaf = mask & -mask
                holder[leaf] = interior
                mask ^= leaf
            interior += 1
        else:
            edges[eid] = (mask.bit_length() - 1, upper)
    return XTree(edges, {x: i for i, x in enumerate(labels)})


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


def _clusters(tree, labels):
    """Each edge's side away from the tree's first leaf, in column order, as
    a bitmask in which bit i stands for labels[i]: the split table, but
    with the first leaf's own edge holding all the other leaves."""
    bits = [1 << labels.index(x) for x in tree.leaves]
    return [sum(bits) - bits[0] if mask == 1 else
            sum(b for i, b in enumerate(bits) if mask >> i & 1) for mask in tree._below]


def _hangings(clusters, x, binary=False):
    """Every cluster list made by hanging the new leaf bit ``x`` in one place.

    Rooted at a leaf, a tree is fixed by its clusters, each edge's side away
    from the root (Buneman 1971).  Hanging x on the edge of cluster C adds x
    to every cluster strictly containing C, keeps C in place (the lower
    half) and appends C|x and {x}.  Hanging it on the interior vertex below
    a cluster C of two leaves or more, one per vertex, adds x to every
    cluster containing C and appends {x}.  Edges come first, then (unless
    ``binary``) vertices.  Removing x, and a vertex left with degree 2,
    gives back the tree, so growth from a 3-leaf star meets each shape once.
    """
    for C in clusters:
        yield [c | x if c & C == C and c != C else c for c in clusters] + [C | x, x]
    if not binary:
        for C in clusters:
            if C & (C - 1):
                yield [c | x if c & C == C else c for c in clusters] + [x]


def hang_leaf(tree, label, binary=False):
    """Every tree made by hanging a new leaf on each edge of ``tree``, then
    (unless ``binary``) on each interior vertex, by ``_hangings``.  Each edge
    keeps its id, a subdivided one for its half away from the first leaf,
    and the new edges take the next ids.
    """
    if label in tree._leaf_vertex:
        raise ValueError(f"leaf label {label!r} is already in the tree")
    labels = sorted([*tree.leaves, label])
    last = tree.edge_ids[-1]
    ids = [*tree.edge_ids, last + 1, last + 2]
    for clusters in _hangings(_clusters(tree, labels), 1 << labels.index(label), binary):
        yield _tree_from_splits(labels, dict(zip(ids, clusters)))


def grow(labels, binary=False):
    """Depth-first: every tree on the distinct ``labels``, grown from the star
    on the first three by hanging the others in order (``_hangings``).  Only
    the grown trees are built, with their list positions as edge ids."""
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")

    def walk(clusters, k):
        if k >= len(labels):
            yield _tree_from_splits(labels, dict(enumerate(clusters)))
            return
        for grown in _hangings(clusters, 1 << k, binary):
            yield from walk(grown, k + 1)

    yield from walk([0b110, 0b010, 0b100], 3)   # the star, rooted at leaf 0


def enumerate_binary_xtrees(labels):
    """All binary trees on the labels, one per equivalence class."""
    return list(grow(sorted(labels), binary=True))


def enumerate_xtrees(labels, max_leaves=8):
    """One representative per equivalence class of trees on the labels.

    Yields every shape, multifurcating ones included, grown by leaf insertion.
    Refuses leaf sets above ``max_leaves``.
    """
    labels = sorted(labels)
    if len(labels) > max_leaves:
        raise ScaleBoundError(
            f"{len(labels)} leaves exceeds the enumeration bound of {max_leaves}")
    yield from grow(labels)
