"""Reference answers computed by the benchmark itself, outside timed regions.

One exact routine, integer Gauss-Jordan elimination with every row divided
by the gcd of its entries, serves every check: rank, closure membership and
co-loops.  Each of those is invariant under scaling a row, so no division
that leaves the integers is ever needed.  The routine shares no code with
the package's kernel, so an error in either shows as a mismatch.
"""

from __future__ import annotations

from math import gcd

from inputs import all_cords


def _primitive(row, p):
    """The row divided by its content, with a positive entry at column p."""
    g = gcd(*row)
    if row[p] < 0:
        g = -g
    return [x // g for x in row] if g != 1 else row


def rref(rows):
    """Reduced row echelon form up to row scaling: (pivot rows, pivot columns)."""
    out, pivots = [], []
    for raw in rows:
        row = list(raw)
        for r, p in zip(out, pivots):
            c = row[p]
            if c:
                a = r[p]
                row = [a * x - c * y for x, y in zip(row, r)]
        p = next((i for i, x in enumerate(row) if x), None)
        if p is None:
            continue
        row = _primitive(row, p)
        a = row[p]
        for i, (r, q) in enumerate(zip(out, pivots)):
            c = r[p]
            if c:
                out[i] = _primitive([a * x - c * y for x, y in zip(r, row)], q)
        out.append(row)
        pivots.append(p)
    return out, pivots


def in_span(echelon, vector):
    res = list(vector)
    for r, p in zip(*echelon):
        c = res[p]
        if c:
            a = r[p]
            res = [a * x - c * y for x, y in zip(res, r)]
    return not any(res)


def rank(shape, cords):
    return len(rref(shape.path_vector(a, b) for a, b in cords)[1])


def verdict(shape, cords):
    r = rank(shape, cords)
    independent = r == len(cords)
    lasso = r == len(shape.edges)
    return {"rank": r, "independent": independent, "lasso": lasso,
            "basis": independent and lasso}


def closure(shape, cords):
    echelon = rref(shape.path_vector(a, b) for a, b in cords)
    return [c for c in all_cords(shape.leaves) if in_span(echelon, shape.path_vector(*c))]


def coloops(shape):
    """Cords on which every linear dependency among all cords vanishes.

    In the reduced echelon form of the transposed cord matrix, those are the
    pivot columns whose row has no other non-zero entry.
    """
    cords = all_cords(shape.leaves)
    columns = [shape.path_vector(a, b) for a, b in cords]
    rows, pivots = rref(list(zip(*columns)))
    return [cords[p] for r, p in zip(rows, pivots) if sum(1 for x in r if x) == 1]


def is_circuit(shape, cords):
    """Minimally dependent: rank one short, and every single deletion independent."""
    if rank(shape, cords) != len(cords) - 1:
        return False
    return all(rank(shape, cords[:i] + cords[i + 1:]) == len(cords) - 1
               for i in range(len(cords)))


def connected(labels, cords):
    """Whether the cord graph on the labels is connected."""
    parent = {x: x for x in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in cords:
        parent[find(a)] = find(b)
    return len({find(x) for x in labels}) == 1


def cherries(shape):
    """Leaf pairs whose pendant edges meet at one vertex."""
    by_vertex = {}
    for x, v in shape.leaf_vertex.items():
        (nbr, _eid), = shape.adjacency[v]
        by_vertex.setdefault(nbr, []).append(x)
    return [(a, b) for group in by_vertex.values()
            for i, a in enumerate(sorted(group)) for b in sorted(group)[i + 1:]]


def splits_every_cherry(shape, side_a):
    side_a = set(side_a)
    return all((a in side_a) != (b in side_a) for a, b in cherries(shape))


def is_cover(shape, cords):
    """Every pair of edges meeting at an interior vertex lies on one cord's path."""
    vectors = [shape.path_vector(a, b) for a, b in cords]
    leaf_vertices = set(shape.leaf_vertex.values())
    for v, nbrs in shape.adjacency.items():
        if v in leaf_vertices:
            continue
        for i, (_, e1) in enumerate(nbrs):
            for _, e2 in nbrs[i + 1:]:
                if not any(vec[e1] and vec[e2] for vec in vectors):
                    return False
    return True
