"""Independent oracles used to cross-check the package.

Everything here is deliberately written from scratch against the raw
definitions (set partitions, Prufer sequences, minors, bases and minimal
dependent sets, vanishing subspaces, vertex enumeration, breadth-first
distances and edge sides) so that it shares no code path with the modules
it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, gcd


# -- counting leaf-labeled trees -------------------------------------------------


def rooted_multifurcating_count(n, _memo={1: 1}):
    """Rooted trees with n labeled leaves, every internal node >= 2 children.

    Counted by summing over the set partition induced at the root: for each
    integer partition of n with at least two parts, the number of set
    partitions with those block sizes times the product of subtree counts.
    """
    if n in _memo:
        return _memo[n]

    def partitions(total, maximum):
        if total == 0:
            yield ()
            return
        for part in range(min(total, maximum), 0, -1):
            for rest in partitions(total - part, part):
                yield (part,) + rest

    total = 0
    for shape in partitions(n, n - 1):
        if len(shape) < 2:
            continue
        # set partitions with these block sizes: n! / (prod s! * prod mult!)
        ways = factorial(n)
        mult = {}
        for size in shape:
            ways //= factorial(size)
            mult[size] = mult.get(size, 0) + 1
        for m in mult.values():
            ways //= factorial(m)
        prod = 1
        for size in shape:
            prod *= rooted_multifurcating_count(size)
        total += ways * prod
    _memo[n] = total
    return total


def unrooted_xtree_count(n):
    """Leaf-labeled trees on n leaves without degree-2 vertices.

    Suppressing one fixed leaf is a bijection onto the rooted shapes on the
    remaining n-1 leaves.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    return rooted_multifurcating_count(n - 1)


def _decode_prufer(seq, nverts):
    degree = [1] * nverts
    for v in seq:
        degree[v] += 1
    edges = []
    leaf_heap = sorted(v for v in range(nverts) if degree[v] == 1)
    import heapq
    heapq.heapify(leaf_heap)
    for v in seq:
        u = heapq.heappop(leaf_heap)
        edges.append((u, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaf_heap, v)
    u = heapq.heappop(leaf_heap)
    w = heapq.heappop(leaf_heap)
    edges.append((u, w))
    return edges


def _canonical_key(adjacency, leaves):
    """Canonical string of a leaf-labeled tree given as an adjacency dict."""
    root = adjacency[leaves[0]][0] if len(adjacency[leaves[0]]) == 1 else leaves[0]
    leafset = set(leaves)

    def sub(v, parent):
        if v in leafset:
            return str(v)
        parts = sorted(sub(w, v) for w in adjacency[v] if w != parent)
        return "(" + ",".join(parts) + ")"

    return sub(root, None)


def xtree_count_by_prufer(n):
    """Brute-force count of leaf-labeled no-degree-2 trees via Prufer decoding.

    Enumerates every labeled tree on n leaf vertices plus m interior
    vertices (m = 1 .. n-2), keeps those where the leaf vertices have degree
    exactly 1 and the interior ones degree >= 3, and deduplicates by a
    canonical form that forgets interior labels.  Exponential; use n <= 5.
    """
    keys = set()
    for m in range(1, n - 1):
        nverts = n + m
        for seq in itertools.product(range(nverts), repeat=nverts - 2):
            edges = _decode_prufer(seq, nverts)
            degree = [0] * nverts
            for u, v in edges:
                degree[u] += 1
                degree[v] += 1
            if any(degree[v] != 1 for v in range(n)):
                continue
            if any(degree[v] < 3 for v in range(n, nverts)):
                continue
            adjacency = {}
            for u, v in edges:
                adjacency.setdefault(u, []).append(v)
                adjacency.setdefault(v, []).append(u)
            keys.add(_canonical_key(adjacency, list(range(n))))
    return len(keys)


# -- exact linear algebra ---------------------------------------------------------


def determinant(rows):
    """Laplace expansion along the first row; exact."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(k):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * determinant(minor)
    return total


def minor_rank(rows):
    """Rank as the size of the largest nonzero square minor."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for ri in itertools.combinations(range(nrows), k):
            for ci in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if determinant(sub) != 0:
                    return k
    return 0


def _solve_square(rows, rhs):
    """Solve a square exact system; None when singular."""
    k = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(k):
        pivot = next((i for i in range(col, k) if m[i][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for i in range(k):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][k] for i in range(k)]


def vertex_feasible(equalities, strict, weak, box=1000):
    """Complete feasibility decision by vertex enumeration of a lifted polytope.

    Solves the equalities by Gauss-Jordan elimination and substitutes each
    pivot variable out, leaving inequalities over the free variables.  Then
    adds a slack variable bounding how far every strict constraint is from
    equality, boxes the free variables, and maximizes the slack over the
    polytope vertices; the original system is feasible exactly when the
    maximum is positive.  Only suitable for small systems whose solutions,
    when any exist, have free coordinates inside the box.  With ``box=None``
    no box is added, and the constraints themselves must bound the free
    variables (as ``x >= 0`` with ``sum(x) == 1`` does).
    """
    dims = {len(r) for r, _ in itertools.chain(equalities, strict, weak)}
    if not dims:
        return True
    (d,) = dims
    # reduced row echelon form of the equalities: drop dependent rows, catch
    # contradictions; each kept row reads x_pivot + row . x_free == rhs
    reduced = []
    for row, rhs in equalities:
        row = [Fraction(c) for c in row]
        rhs = Fraction(rhs)
        for prow, prhs, pivot in reduced:
            c = row[pivot]
            if c:
                row = [x - c * y for x, y in zip(row, prow)]
                rhs = rhs - c * prhs
        pivot = next((i for i, c in enumerate(row) if c), None)
        if pivot is None:
            if rhs != 0:
                return False
            continue
        pv = row[pivot]
        row, rhs = [x / pv for x in row], rhs / pv
        for j, (prow, prhs, ppivot) in enumerate(reduced):
            c = prow[pivot]
            if c:
                reduced[j] = ([x - c * y for x, y in zip(prow, row)], prhs - c * rhs, ppivot)
        reduced.append((row, rhs, pivot))
    pivots = {pivot for _, _, pivot in reduced}
    free = [i for i in range(d) if i not in pivots]
    k = len(free)

    def over_free(row, rhs, slack):
        """row . x >= rhs as a row over (x_free, eps), pivots substituted out."""
        row = [Fraction(c) for c in row]
        rhs = Fraction(rhs)
        for prow, prhs, pivot in reduced:
            c = row[pivot]
            if c:
                row = [x - c * y for x, y in zip(row, prow)]
                rhs = rhs - c * prhs
        return [row[i] for i in free] + [Fraction(slack)], rhs

    # constraints as rows over (x_free, eps): row . z >= rhs
    ge_rows = [over_free(row, rhs, 0) for row, rhs in weak]
    ge_rows += [over_free(row, rhs, -1) for row, rhs in strict]
    for i in range(k + 1):
        unit = [Fraction(0)] * (k + 1)
        unit[i] = Fraction(1)
        neg = [-x for x in unit]
        if i == k:
            ge_rows.append((neg, Fraction(-1)))   # eps <= 1
        elif box is not None:
            ge_rows += [(unit, Fraction(-box)), (neg, Fraction(-box))]

    # The maximum is positive exactly when some vertex has eps > 0, and
    # eps >= 0 is not active at such a vertex, so it is left out of the rows.
    for active in itertools.combinations(ge_rows, k + 1):
        point = _solve_square([r for r, _ in active], [b for _, b in active])
        if point is None or point[k] <= 0:
            continue
        if all(sum(c * z for c, z in zip(row, point)) >= b for row, b in ge_rows):
            return True
    return False


def gauss_jordan_rank(rows):
    """Rank by Gauss-Jordan elimination over the integers, pivoting column
    by column.

    Each pivot's column is cleared from every other row by integer
    cross-multiplication, and a changed row is divided by the gcd of its
    entries, which keeps the entries small; no entry is ever a fraction.
    The rows must hold integers.
    """
    m = [list(row) for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for i in range(len(m)):
            f = m[i][col]
            if i != rank and f:
                row = [x * p - f * y for x, y in zip(m[i], top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def basis_set(vectors):
    """Bases of the vector matroid on the keys of ``vectors``, brute force:
    every key subset of the full rank's size whose rank is that size."""
    keys = sorted(vectors)
    r = gauss_jordan_rank([vectors[k] for k in keys])
    return {frozenset(subset) for subset in itertools.combinations(keys, r)
            if gauss_jordan_rank([vectors[k] for k in subset]) == r}


def vanishing_dimension(rows, columns):
    """Dimension of the span members of ``rows`` that vanish on ``columns``.

    Gauss-Jordan elimination pivots on the given columns only, clearing a
    pivot's column from every other row by integer cross-multiplication.
    The rows it leaves zero there span exactly those members (the pivot rows
    are independent on their pivot columns, where every other row is zero),
    and their rank, by ``gauss_jordan_rank``, is the dimension.
    """
    m = [list(row) for row in rows]
    rank = 0
    for col in columns:
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for i in range(len(m)):
            f = m[i][col]
            if i != rank and f:
                m[i] = [x * p - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return gauss_jordan_rank(m[rank:])


def minimal_dependent_sets(vectors, max_size):
    """Circuits of the vector matroid on the keys of ``vectors``, brute force.

    Ranks every key subset of size up to ``max_size`` once, then keeps the
    dependent subsets whose single deletions are all independent.  Returned
    by size, then by sorted keys, as frozensets.
    """
    keys = sorted(vectors)
    independent = {}
    for size in range(max_size + 1):
        for subset in itertools.combinations(keys, size):
            rank = gauss_jordan_rank([vectors[k] for k in subset])
            independent[subset] = rank == size
    return [frozenset(subset) for subset, ok in independent.items()
            if not ok and all(independent[subset[:i] + subset[i + 1:]]
                              for i in range(len(subset)))]


# -- the topological decider's agreement systems ------------------------------------


def leaf_difference_system(n, cords, shape, tree):
    """Agreement of two shapes' positive weightings on the cords, with one free
    difference per leaf: ``(equalities, strict)`` as (row, rhs) pairs.

    Both shapes are on the leaves 0..n-1, ``cords`` are pairs of leaves, and
    ``shape`` and ``tree`` list each shape's interior splits as bitmasks over
    the leaves (either side).  The variables are one free difference d_x per
    leaf x, standing for the shape's pendant weight at x minus the tree's,
    then the interior edges of ``shape``, then those of ``tree``.  A cord x-y
    gives the row d_x + d_y + (shape's interior path) - (tree's interior
    path) = 0, and only the interior variables get strict sign rows.
    """
    nvars = n + len(shape) + len(tree)
    equalities = []
    for a, b in cords:
        row = [0] * n
        row[a] = row[b] = 1
        row += [(m >> a ^ m >> b) & 1 for m in shape]
        row += [-((m >> a ^ m >> b) & 1) for m in tree]
        equalities.append((row, 0))
    strict = [([int(i == col) for i in range(nvars)], 0) for col in range(n, nvars)]
    return equalities, strict


# -- distances on raw trees ---------------------------------------------------------


def bfs_distances(edge_weights, source):
    """Single-source path sums on a tree given as {frozenset((u,v)): weight}."""
    adjacency = {}
    for pair, w in edge_weights.items():
        u, v = tuple(pair)
        adjacency.setdefault(u, []).append((v, w))
        adjacency.setdefault(v, []).append((u, w))
    dist = {source: Fraction(0)}
    queue = [source]
    while queue:
        x = queue.pop()
        for y, w in adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + w
                queue.append(y)
    return dist


def leaf_side(edge_pairs, vertex_label, removed, start):
    """Labels of the leaves in ``start``'s component once edge ``removed`` is gone.

    ``edge_pairs`` maps edge id -> pair of vertices, ``vertex_label`` maps each
    leaf vertex to its label.
    """
    adjacency = {}
    for eid, pair in edge_pairs.items():
        if eid != removed:
            u, v = tuple(pair)
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
    seen = {start}
    queue = [start]
    for x in queue:
        for y in adjacency.get(x, ()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(vertex_label[v] for v in seen if v in vertex_label)


def quartet_from_distances(dist):
    """Resolve {a,b,c,d} from its six distances via the four-point sums.

    dist maps frozenset pairs to values.  The separated pairing is the one
    with the strictly smallest pair-sum; returns None when the sums tie.
    """
    a, b, c, d = sorted({x for pair in dist for x in pair})
    pairings = [((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))]
    sums = [dist[frozenset(p)] + dist[frozenset(q)] for p, q in pairings]
    low = min(sums)
    if sums.count(low) != 1:
        return None
    return pairings[sums.index(low)]