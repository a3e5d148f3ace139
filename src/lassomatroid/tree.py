"""Leaf-labeled trees without degree-2 vertices.

An ``XTree`` is a finite unrooted tree whose degree-1 vertices carry distinct
labels (the leaves) and whose interior vertices all have degree at least 3.
It is built from its split table, one split of the leaves per edge:
``XTree(labels, splits)`` is the one constructor, and parsing, contraction,
restriction, growth and the named shapes all hand it splits.  Edges carry
stable integer ids so that contraction preserves the identity of surviving
edges and weightings restrict canonically.  Instances are immutable and safe
to share between threads.
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

    A tree on X is fixed by its splits (Buneman 1971), so an ``XTree`` is
    built from them.  ``labels`` are the sorted, distinct leaf labels, and
    ``splits[eid]`` is edge ``eid``'s split as a bitmask of either side, bit
    i standing for ``labels[i]``.  Leaf i is vertex i.

    The constructor turns each split away from ``labels[0]`` and takes them
    from the largest down, in one pass.  A split strictly inside another is
    smaller as a number, so each edge hangs below its leaves' holder: the
    vertex of the smallest split met so far that holds them.  The largest
    split is the first leaf's edge, holding every other leaf; the root,
    vertex n, holds them, and the first leaf hangs below it.  Each later
    split of two leaves or more gets the next interior vertex, and a split
    of one leaf ends at that leaf.  Per edge column the tree keeps the
    edge's upper and lower end and the leaves below it, its split; paths,
    sides, distances and quartets are read off those splits.

    Each of these is refused with its own ``ValueError``: fewer than 3
    leaves, labels not strictly increasing, a split that is 0 or every leaf,
    a repeated split, a split whose leaves have different holders (it
    crosses a split met before) and a leaf with no edge of its own.  Nothing
    more needs checking.  The children of the vertex of a split S are the
    largest splits strictly inside S.  Each leaf of S lies in one of them,
    as its own edge does, and one child cannot hold them all, as it would
    equal S.  So every interior vertex has its parent edge and at least two
    children, and the n leaves are exactly the vertices of degree 1.
    """

    __slots__ = ("_leaves", "_leaf_vertex", "_adjacency", "_edge_ids", "_edge_column",
                 "_walk", "_upper", "_lower", "_below", "_canonical", "_vectors", "_columns")

    def __init__(self, labels, splits):
        labels = tuple(labels)
        n = len(labels)
        if n < 3:
            raise ValueError("an X-tree needs at least 3 leaves")
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise ValueError("leaf labels must be strictly increasing")
        full = (1 << n) - 1
        order = []
        for eid, mask in splits.items():
            if not 0 < mask < full:
                raise ValueError(f"the split of edge {eid} must hold some leaves but not all")
            order.append((mask ^ full if mask & 1 else mask, eid))
        order.sort(reverse=True)
        edge_ids = tuple(sorted(splits))
        column = {eid: col for col, eid in enumerate(edge_ids)}
        walk = []   # edge columns from the largest split down
        upper, lower, below = [0] * len(order), [0] * len(order), [0] * len(order)
        adjacency = {n: []}
        holder = {}   # leaf bit -> its holder, when that is not the root
        vertex, previous = n + 1, (None, None)
        for mask, eid in order:
            if mask == previous[0]:
                raise ValueError(f"edges {eid} and {previous[1]} have the same split")
            previous = mask, eid
            up = holder.get(mask & -mask, n)
            if mask == full ^ 1:
                v = 0   # the first leaf hangs below the root; its edge stores mask 1
            elif mask & (mask - 1):
                v, vertex, rest = vertex, vertex + 1, mask
                while rest:
                    leaf = rest & -rest
                    if holder.get(leaf, n) != up:
                        raise ValueError(f"the split of edge {eid} crosses another split")
                    holder[leaf] = v
                    rest ^= leaf
            else:
                v = mask.bit_length() - 1
            col = column[eid]
            walk.append(col)
            upper[col], lower[col], below[col] = up, v, (mask if v else 1)
            adjacency[up].append((v, eid))
            adjacency[v] = [(up, eid)]
        for i, x in enumerate(labels):
            if i not in adjacency:
                raise ValueError(f"leaf {x!r} has no edge of its own")
        self._leaves = labels
        self._leaf_vertex = {x: i for i, x in enumerate(labels)}
        self._adjacency = {v: tuple(nbrs) for v, nbrs in adjacency.items()}
        self._edge_ids, self._edge_column = edge_ids, column
        self._walk = tuple(walk)
        self._upper, self._lower, self._below = tuple(upper), tuple(lower), tuple(below)
        self._canonical = None
        self._vectors = {}
        self._columns = None

    # -- basic structure ---------------------------------------------------

    @property
    def vertices(self):
        return frozenset(self._adjacency)

    @property
    def edges(self):
        """Mapping edge id -> frozenset of its two endpoints."""
        return {eid: frozenset((self._upper[col], self._lower[col]))
                for col, eid in enumerate(self._edge_ids)}

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
        return len(self._leaves)

    def leaf_vertex(self, label):
        """Leaf i of the sorted labels is vertex i and bit i of the split masks."""
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
        return frozenset(range(len(self._leaves), len(self._adjacency)))

    def is_interior_edge(self, eid):
        """Neither end is a leaf; a leaf is always the lower end of its edge."""
        return self._lower[self._edge_column[eid]] >= len(self._leaves)

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

    def side(self, eid, vertex):
        """Leaf labels on ``vertex``'s side of edge ``eid``.

        These are the leaves of the component containing ``vertex`` once the
        edge is removed; the other side is their complement.
        """
        col = self._edge_column[eid]
        if vertex not in (self._upper[col], self._lower[col]):
            raise ValueError(f"vertex {vertex!r} is not an end of edge {eid}")
        mask = self._below[col]
        if vertex != self._lower[col]:
            mask ^= (1 << len(self._leaves)) - 1
        return frozenset(x for i, x in enumerate(self._leaves) if mask >> i & 1)

    def path_vector(self, c):
        """0/1 incidence tuple over edge columns: 1 iff the edge's split separates a from b."""
        vec = self._vectors.get(c)
        if vec is None:
            a, b = (self.leaf_vertex(x) for x in c)
            vec = tuple((mask >> a ^ mask >> b) & 1 for mask in self._below)
            self._vectors[c] = vec
        return vec

    @property
    def leaf_columns(self):
        """Per leaf, in label order, the int whose bit j is 1 iff the leaf
        lies below the split of edge column j: the columns on its path up to
        the root.  A cord's path vector is 1 where exactly one of its leaves
        lies below, so its bits are the XOR of its two leaves' ints."""
        if self._columns is None:
            above = {len(self._leaves): 0}   # vertex -> columns on its path to the root
            for col in self._walk:   # each edge after the edge above it
                above[self._lower[col]] = above[self._upper[col]] | 1 << col
            self._columns = tuple(above[i] for i in range(len(self._leaves)))
        return self._columns

    def distance(self, weighting, c):
        """Path sum of edge weights between the two leaves of the cord."""
        if set(weighting) != set(self._edge_ids):
            raise ValueError("weighting domain must be exactly the edge set")
        on_path = zip(self._edge_ids, self.path_vector(c))
        return sum((weighting[eid] for eid, on in on_path if on), Fraction(0))

    # -- cherries and shape ------------------------------------------------

    def cherries(self):
        """All leaf pairs whose pendant edges share a vertex, with a properness flag.

        The pair is proper when the shared vertex has degree 3, the co-loop
        condition: the cord of a cherry is a co-loop of the cord matroid
        exactly when the cherry is proper.
        """
        by_neighbor = {}
        for v, label in enumerate(self._leaves):
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
            n = len(self._leaves)

            def make(v, _via, children):
                return self._leaves[v] if v < n else "(" + ",".join(sorted(children)) + ")"

            self._canonical = self._fold(make)
        return self._canonical

    def to_newick(self, weighting=None):
        """Canonical Newick text; optional exact weights rendered as p/q."""
        if weighting is not None and set(weighting) != set(self._edge_ids):
            raise ValueError("weighting domain must be exactly the edge set")

        def make(v, via_edge, children):
            if v < len(self._leaves):
                key = text = self._leaves[v]
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
            if eid not in self._edge_column:
                raise ValueError(f"unknown edge id {eid}")
            if not self.is_interior_edge(eid):
                raise ValueError(f"edge {eid} is pendant; only interior edges can be collapsed")
        surviving = {eid: mask for eid, mask in zip(self._edge_ids, self._below) if eid not in F}
        return XTree(self._leaves, surviving)

    def restrict(self, labels):
        """Minimal subtree spanning the given leaves, degree-2 vertices suppressed.

        Returns ``(subtree, condensed)`` where ``condensed`` maps each new edge
        id to the increasing tuple of original edge ids it replaces: the edges
        whose splits restrict to the same split of the kept leaves.  New ids
        follow the chains' smallest original ids, and an edge weighting of the
        full tree restricts by summation.
        """
        Y = set(labels)
        if not Y <= self._leaf_vertex.keys():
            raise ValueError("labels are not a subset of the leaves")
        kept = [i for i, x in enumerate(self._leaves) if x in Y]
        full = (1 << len(kept)) - 1
        chains = {}   # restricted split, turned away from the first kept leaf -> edge ids
        for eid, mask in zip(self._edge_ids, self._below):
            split = sum((mask >> i & 1) << j for j, i in enumerate(kept))
            if split & 1:
                split ^= full
            if split:
                chains.setdefault(split, []).append(eid)
        sub = XTree(sorted(Y), dict(enumerate(chains)))
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
    bit = {x: 1 << tree.leaf_vertex(x) for x in labels}
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
    the fused edge taking the first top edge's id; each node's leaves, as
    bits over the sorted labels, are its edge's split.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    leaves = []   # (label, position) in text order
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
        if label is not None:
            leaves.append((label, start))
        return [children, label, weight, start, 0]

    # Nodes are [children, label, weight, position, leaves below as a mask],
    # the mask filled in after the parse.  Open groups wait on an explicit
    # stack, so nesting depth is bounded by memory, not recursion.
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
    order = []   # (node, parent) in preorder
    stack = [(child, root) for child in reversed(root[0])]
    while stack:
        node, up = stack.pop()
        order.append((node, up))
        stack += [(child, node) for child in reversed(node[0])]
    labels = sorted(first)
    bit = {label: 1 << i for i, label in enumerate(labels)}
    for node, _up in reversed(order):   # children before parents
        node[4] = bit[node[1]] if node[1] is not None else sum(child[4] for child in node[0])
    full = (1 << len(labels)) - 1
    edge_of, weights = {}, {}   # split -> edge id; edge id -> weight
    for eid, (node, up) in enumerate(order):
        _children, _label, weight, _position, mask = node
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
    splits = {eid: split for split, eid in edge_of.items()}
    return XTree(labels, splits), (weights or None)


def tree_from_newick(text):
    """Parse and drop any weighting."""
    return parse_newick(text)[0]


# -- builders ----------------------------------------------------------------


def star_tree(labels):
    """The tree with a single interior vertex adjacent to every leaf."""
    labels = sorted(labels)
    return XTree(labels, {i: 1 << i for i in range(len(labels))})


def quartet_tree(a, b, c, d):
    """The binary 4-leaf tree whose central edge separates {a,b} from {c,d}."""
    labels = (a, b, c, d)
    if len(set(labels)) != 4:
        raise ValueError("need four distinct labels")
    return caterpillar_tree(labels)   # pendant edges 0-3, and edge 4 splits ab|cd


def caterpillar_tree(labels):
    """Binary tree whose leaves hang off a single interior path, in order."""
    labels = list(labels)
    order = sorted(range(len(labels)), key=labels.__getitem__)
    bits = [1 << order.index(i) for i in range(len(labels))]
    # pendant edges first, then the path edges cutting off each longer prefix
    path = list(itertools.accumulate(bits))[1:-2]
    return XTree(sorted(labels), dict(enumerate(bits + path)))


# -- growth by leaf insertion ------------------------------------------------


def _clusters(tree, labels):
    """Each edge's side away from the tree's first leaf, in column order, as
    a bitmask in which bit i stands for labels[i]: the split table, but
    with the first leaf's own edge holding all the other leaves."""
    bits = [1 << labels.index(x) for x in tree.leaves]
    return [sum(bits) - bits[0] if mask == 1 else
            sum(b for i, b in enumerate(bits) if mask >> i & 1) for mask in tree._below]


def _hangings(clusters, x):
    """Every cluster list made by hanging the new leaf bit ``x`` in one place.

    Rooted at a leaf, a tree is fixed by its clusters, each edge's side away
    from the root (Buneman 1971).  Hanging x on the edge of cluster C adds x
    to every cluster strictly containing C, keeps C in place (the lower
    half) and appends C|x and {x}.  Hanging it on the interior vertex below
    a cluster C of two leaves or more, one per vertex, adds x to every
    cluster containing C and appends {x}.  Edges come first, then vertices.
    Removing x, and a vertex left with degree 2, gives back the tree, so
    growth from a 3-leaf star meets each shape once.
    """
    for C in clusters:
        yield [c | x if c & C == C and c != C else c for c in clusters] + [C | x, x]
    for C in clusters:
        if C & (C - 1):
            yield [c | x if c & C == C else c for c in clusters] + [x]


def hang_leaf(tree, label):
    """Every tree made by hanging a new leaf on each edge of ``tree``, then
    on each interior vertex, by ``_hangings``.  Each edge keeps its id, a
    subdivided one for its half away from the first leaf, and the new edges
    take the next ids.
    """
    if label in tree._leaf_vertex:
        raise ValueError(f"leaf label {label!r} is already in the tree")
    labels = sorted([*tree.leaves, label])
    last = tree.edge_ids[-1]
    ids = [*tree.edge_ids, last + 1, last + 2]
    for clusters in _hangings(_clusters(tree, labels), 1 << labels.index(label)):
        yield XTree(labels, dict(zip(ids, clusters)))


def grow(labels):
    """Depth-first: every tree on the sorted, distinct ``labels``, grown from
    the star on the first three by hanging the others in order
    (``_hangings``).  Only the grown trees are built, with their list
    positions as edge ids."""

    def walk(clusters, k):
        if k >= len(labels):
            yield XTree(labels, dict(enumerate(clusters)))
            return
        for grown in _hangings(clusters, 1 << k):
            yield from walk(grown, k + 1)

    yield from walk([0b110, 0b010, 0b100], 3)   # the star, rooted at leaf 0


def enumerate_binary_xtrees(labels):
    """All binary trees on the labels, one per equivalence class, in
    ``grow``'s order: a binary tree grows only from binary trees, by edge
    hangings."""
    return [t for t in grow(sorted(labels)) if t.is_binary()]


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
