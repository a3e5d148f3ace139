"""The matroid of leaf-pair path vectors on a tree.

Every cord (unordered leaf pair) of a tree yields the 0/1 vector of edges on
the path between its ends.  Rank, independence, spanning, closure, circuits
and bases of these vectors form a matroid on the cord set; a cord set spans
the whole edge space exactly when the pairwise distances it carries pin down
every edge weight, so "spanning set" and "edge-weight lasso" coincide and
the bases are the tight edge-weight lassos.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ScaleBoundError
from .exact import RowSpace
from .tree import all_cords


class _LeafRows(dict):
    """Leaf label -> the leaf's 0/1 row over the edge columns, 1 where the
    leaf lies below the column's split, packed with a zero tail in the
    space given, on first use.  A cord's path vector is 1 where exactly one
    of its leaves lies below, so its packed row is the XOR of its two
    leaves' rows.  An unknown label is refused with ValueError."""

    __slots__ = ("tree", "space")

    def __init__(self, tree, space):
        super().__init__()
        self.tree, self.space = tree, space

    def __missing__(self, label):
        bits = self.tree.leaf_columns[self.tree.leaf_vertex(label)]
        row = self[label] = self.space.pack_bits(bits)
        return row


def rank_of(tree, cords, packed=None):
    """Rank of the stacked path vectors of the given cords.

    ``packed``, when given, keeps each leaf's packed row between calls on
    the same tree (``rank_oracle`` passes one), and its space is cleared and
    reused, so no row is packed twice and no space is built per call.
    """
    if packed is None:
        packed = _LeafRows(tree, RowSpace(len(tree.edge_ids)))
    space = packed.space
    space.clear()
    for a, b in cords:
        space.add(packed[a] ^ packed[b])
    return space.rank


def rank_oracle(tree):
    """The rank function of the tree's cord matroid, as a plain callable.

    The callable packs each leaf's row once and holds one mutable
    ``RowSpace``, cleared at the start of every query, for all its queries;
    so one oracle must not be shared across threads.
    """
    packed = _LeafRows(tree, RowSpace(len(tree.edge_ids)))
    return lambda cords: rank_of(tree, cords, packed)


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
    """All cords whose path vector lies in the span of the given ones.

    When the given cords span the edge space every cord does, so nothing is
    reduced.  Short of that, the residual over the given cords at the full
    Bareiss scale (``RowSpace.residual``) is linear, and a cord lies in the
    span exactly when its residual is zero (the space has no tail).  Let
    ``L_x`` be leaf x's row in ``tree.leaf_columns``, 1 on the edges from x
    up to the root.  Both leaves of a cord a-b lie below an edge exactly
    when it is above their last common ancestor, so ``L_a & L_b`` is that
    ancestor's row, and the cord's path vector is ``L_a + L_b - 2*(L_a &
    L_b)``.  Its residual is therefore the same combination of the three
    rows' residuals: the cord is in the span exactly when its leaves'
    residuals add up to twice its ancestor's.  So only the distinct leaf and
    ancestor rows, at most 2n - 2 of them, are reduced, each once.
    """
    cords = frozenset(cords)
    space = RowSpace(len(tree.edge_ids))
    rows = _LeafRows(tree, space)
    for a, b in cords:
        space.add(rows[a] ^ rows[b])
    if space.rank == space.ncols:
        return all_cords(tree.leaves)
    columns, labels = tree.leaf_columns, tree.leaves
    leaf = [space.residual(rows[x]) for x in labels]
    doubled = {}   # ancestor row -> twice its residual
    out = []
    for j, (bits_j, res_j) in enumerate(zip(columns, leaf)):
        for i in range(j):
            bits = columns[i] & bits_j
            twice = doubled.get(bits)
            if twice is None:
                twice = doubled[bits] = space.residual(space.pack_bits(bits)) << 1
            if leaf[i] + res_j == twice:
                out.append((labels[i], labels[j]))   # the labels are sorted
    return frozenset(out)


def circuits(tree, max_size=None, max_leaves=7):
    """All minimal dependent cord sets of size up to ``max_size``.

    Depth-first walk over the independent sets of the sorted cords in index
    order.  A row enters with a unit tail at its depth, so a later cord's
    residual carries its coordinates over the chosen set: it closes a
    circuit when its main residual vanishes and every coordinate is nonzero.
    Each circuit arises once; all are yielded by size, then sorted cords.
    Refuses trees above ``max_leaves``.
    """
    if tree.n_leaves > max_leaves:
        raise ScaleBoundError(
            f"{tree.n_leaves} leaves exceeds the circuit-enumeration bound of {max_leaves}")
    ncols = len(tree.edge_ids)
    if max_size is None:
        max_size = ncols + 1
    if max_size > ncols + 1:
        raise ValueError(f"circuits never exceed {ncols + 1} cords on this tree")
    if max_size < 1:
        return
    cords = sorted(all_cords(tree.leaves))
    space = RowSpace(ncols, tail=max_size)
    leaf = _LeafRows(tree, space)
    rows = [leaf[a] ^ leaf[b] for a, b in cords]
    units = [space.pack_bits(1 << ncols + depth) for depth in range(max_size)]
    found = []

    def walk(start, chosen):
        depth = len(chosen)
        for j in range(start, len(cords)):
            residual, divisor = space.reduce(rows[j] + units[depth])
            if space.add(residual, divisor):
                if depth + 1 < max_size:
                    walk(j + 1, (*chosen, j))
                space.pop()
            elif all(space.unpack(residual)[ncols:ncols + depth]):
                found.append((depth + 1, (*chosen, j)))

    walk(0, ())
    for _, circuit in sorted(found):
        yield frozenset(cords[i] for i in circuit)


def _basis_dfs(rows, tail=0):
    """Depth-first search for the bases among ``rows``, which must span.

    A row holds main entries, then ``tail`` carried ones, and its main part
    must be nonzero; a basis is a set of rows whose main parts are a basis
    of their span.  The rows are packed once.  Each node hands its children
    the residual of every later candidate over the chosen rows, so storing
    a chosen row costs each candidate one Bareiss step
    (``RowSpace.advance``), not a full ``reduce``, and a candidate whose
    main part vanishes is dropped.  When one row is lacking and there is no
    tail, every candidate completes a basis, and each is yielded in one
    pass without being stored.

    At each basis C the search has the indices ``i``, increasing, for which
    C + i spans the full rows and the search meets C + i here first.  These
    are the candidates dropped on the path to C with a nonzero tail
    residual:

    - The search meets bases in lexicographic order of their index lists,
      so of the bases inside B = C + i it meets the lexicographically least
      first, and that is the greedy basis of B (Gale 1968).
    - The greedy basis of C + i is C exactly when the main part of row i
      lies in the span of the rows of C before it, that is, when the
      search drops candidate i on the path to C.
    - A dropped residual is zero at every main column, so no later pivot
      changes it, and C + i spans the full rows iff its tail is nonzero.

    Without a tail that list is always empty, and the search yields every
    basis.  With a tail it yields only the bases whose list is nonempty.
    Each yield is the chosen indices (a list, increasing, valid only until
    the generator is resumed) and the list.

    Two prunings skip only subtrees that yield nothing, so the yield order
    is that of the plain search.  A node stops when fewer candidates are
    left than the rows it lacks.  And once a child yields nothing, the node
    skips that child's later siblings.  Without a tail this holds because a
    later sibling's rows are a subset of the child's.  With a tail, let W
    be the span of the full rows of the child's chosen rows and candidates,
    H_C that of a basis C, and m the number of main columns, so that
    dim H_C = m.  A row dropped on the path to C has a nonzero tail
    residual iff its full row lies outside H_C.  A node's list likewise
    holds the rows dropped on the path to it with a nonzero tail residual.

    - If a basis lies below the child, its leftmost descent reaches a basis
      C0 at which every candidate of the child was chosen or dropped.  So
      C0's list is empty only if the node's list is empty and W = H_C0,
      of dimension m.
    - A later sibling's rows are among the child's, so for every basis C
      below it H_C lies in W, and as both have dimension m, H_C = W.
    - Every row dropped on the path from the node to such a C is a
      candidate of the node after the child's row.  Each of those is a
      candidate of the child or was dropped entering it with a zero
      residual, so it lies in W = H_C and its tail residual is zero.  With
      the node's list empty, C's list is empty too.

    So the first basis below a node decides its whole subtree.
    """
    space = RowSpace(len(rows[0]) - tail, tail=tail)
    # The search walks its tree with an explicit path, so a basis is yielded
    # from this frame, not passed up through one generator per level.  Per
    # ancestor, the path keeps its candidates, the position of the next one
    # to try, the length of ``joins`` and the count of yields so far.
    chosen, path = [], []
    # Dropped candidates with a nonzero tail on the current path.
    joins = []
    carried = [(i, space.pack(row), 1) for i, row in enumerate(rows)]
    found = p = 0
    while True:
        need = space.ncols - len(chosen)
        if not need:
            if joins or not tail:
                found += 1
                yield chosen, sorted(joins)
        elif need == 1 and not tail:
            for i, _, _ in carried[p:]:
                chosen.append(i)
                yield chosen, []
                chosen.pop()
            found += len(carried) - p
        elif len(carried) - p >= need:
            i, residual, divisor = carried[p]
            space.add(residual, divisor)
            chosen.append(i)
            path.append((carried, p + 1, len(joins), found))
            carried, vanished = space.advance(carried[p + 1:])
            joins += [j for j, res, _ in vanished if res]
            p = 0
            continue
        if not path:
            return
        carried, p, depth, before = path.pop()
        if found == before:   # a dead child: so are its later siblings
            p = len(carried)
        del joins[depth:]
        chosen.pop()
        space.pop()


def bases(tree, max_leaves=7):
    """All maximal independent cord sets, i.e. the tight edge-weight lassos,
    found by ``_basis_dfs``; each has exactly one cord per edge of the tree."""
    if tree.n_leaves > max_leaves:
        raise ScaleBoundError(
            f"{tree.n_leaves} leaves exceeds the basis-enumeration bound of {max_leaves}")
    cords = sorted(all_cords(tree.leaves))
    for chosen, _ in _basis_dfs([tree.path_vector(c) for c in cords]):
        yield frozenset([cords[i] for i in chosen])


def coloops(tree):
    """Cords contained in every basis: those on no fundamental circuit.

    One greedy pass over the sorted cords.  A cord that enlarges the span
    joins the basis with a unit tail at its basis index; any other cord's
    tail residual is nonzero exactly at the basis cords of its fundamental
    circuit.  A basis cord is a co-loop iff no such circuit uses it.
    """
    m = len(tree.edge_ids)
    space = RowSpace(m, tail=m)
    rows = _LeafRows(tree, space)
    # once the basis is full, every later cord goes in with a zero tail
    units = [space.pack_bits(1 << m + k) for k in range(m)] + [0]
    basis, used = [], set()
    for c in sorted(all_cords(tree.leaves)):
        k = len(basis)
        residual, divisor = space.reduce(rows[c[0]] ^ rows[c[1]] | units[k])
        if space.add(residual, divisor):
            basis.append(c)
        else:
            tail = space.unpack(residual)[m:m + k]
            used.update(i for i in range(k) if tail[i])
    return frozenset(c for i, c in enumerate(basis) if i not in used)


def _collapse_rows(tree, f, cords):
    """Each cord's path vector with the column of edge ``f`` moved to a
    one-wide tail.  Collapsing f keeps every other edge's id and split, so
    the main part is the cord's path vector in ``tree.contract({f})``."""
    fcol = tree.edge_column[f]
    return [v[:fcol] + v[fcol + 1:] + v[fcol:fcol + 1] for v in map(tree.path_vector, cords)]


def contraction_extends(tree, f, base_cords, c):
    """Whether a basis of the collapsed tree extends by ``c`` to one of the tree.

    ``f`` must be an interior edge and ``base_cords`` a basis of
    ``tree.contract({f})`` (else ValueError).  Its collapsed rows with their
    f-tails span a hyperplane; the extension is a basis of the tree iff the
    row of ``c`` leaves it.  Its residual over them is zero at every main
    column, so that holds iff the residual, its f-tail, is nonzero.
    """
    if f not in tree.interior_edge_ids:
        raise ValueError(f"edge {f} is not an interior edge; only those can be collapsed")
    *rows, row = _collapse_rows(tree, f, [*sorted(base_cords), c])
    space = RowSpace(len(row) - 1, tail=1)
    for b in rows:
        if not space.add(b):
            raise ValueError("cord set is not independent in the collapsed tree")
    if space.rank != space.ncols:
        raise ValueError("cord set does not span the collapsed tree")
    return space.reduce(row)[0] != 0


def contraction_bases(tree, f, max_leaves=7):
    """Bases of the tree, generated from the bases of the tree with ``f`` collapsed.

    The basis search runs on the collapsed tree's rows with their f-tails
    (see ``contraction_extends``).  It yields each collapsed basis C that
    extends, with the cords i, increasing, for which C + i is a basis of
    the tree met there first: i's collapsed row lies in the span of the
    cords of C before it, so C is the greedy (lexicographically least)
    collapsed basis inside C + i, and i's residual over C has a nonzero
    f-tail.  It skips every collapsed subtree whose bases extend to nothing
    (proofs at ``_basis_dfs``).  Every basis of the tree holds a collapsed
    basis, so each is yielded exactly once, and together they are
    ``bases(tree)``.
    """
    if not tree.is_interior_edge(f):
        raise ValueError(f"edge {f} is pendant; collapse needs an interior edge")
    if tree.n_leaves > max_leaves:
        raise ScaleBoundError(
            f"{tree.n_leaves} leaves exceeds the basis-enumeration bound of {max_leaves}")
    cords = sorted(all_cords(tree.leaves))
    for chosen, joins in _basis_dfs(_collapse_rows(tree, f, cords), tail=1):
        base = [cords[i] for i in chosen]
        for i in joins:
            yield frozenset([*base, cords[i]])


def contract_rank_decomposition(tree, edge_ids, cords):
    """Rank of a cord set in the tree, in the collapsed tree, and the gap.

    Returns ``(rank_full, rank_collapsed, vanishing_dim)``, where the last
    term is the dimension of the span members vanishing on every surviving
    edge.  Collapsing the edges F keeps every other edge's split, so a
    cord's path vector in the collapsed tree is its path vector in the tree
    with F's columns deleted: the projection P onto the surviving edges.
    By rank-nullity on P restricted to the span V of the cords, rank_full =
    rank_collapsed + dim(V ∩ ker P), and the last term is the gap; it is
    at most |F|, the dimension of ker P.
    """
    cords = sorted(cords)
    rank_full = rank_of(tree, cords)
    rank_collapsed = rank_of(tree.contract(edge_ids), cords)
    return rank_full, rank_collapsed, rank_full - rank_collapsed
