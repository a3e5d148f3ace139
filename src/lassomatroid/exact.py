"""Exact rational linear algebra and linear feasibility.

Everything here is exact: scalars are integers or ``fractions.Fraction``.
Every row elimination (rank, coordinates, kernels, the equality step of
feasibility) runs through ``RowSpace`` and its fraction-free
cross-multiplication; the feasibility decider then runs Fourier-Motzkin
elimination on primitive integer rows, with strict/weak flags carried
through each step.  There is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ScaleBoundError

# Entries this large trigger a gcd renormalisation of the row; keeps the
# fraction-free elimination from growing integers without bound.
_GROWTH_LIMIT = 1 << 64


def _integerize(row):
    """Scale a rational row by a positive factor to an integer list.

    Rank, span and the solutions and direction of an inequality are all
    invariant under it.  An integer row is only copied: no Fraction is built.
    """
    if all(isinstance(x, int) for x in row):
        return list(row)
    row = [Fraction(x) for x in row]
    denom = lcm(*(x.denominator for x in row))
    return [int(x * denom) for x in row]


class RowSpace:
    """Incrementally built row space: the one exact elimination kernel.

    A row holds ``ncols`` main entries followed by ``tail`` carried entries.
    Rows are reduced against the stored echelon by cross-multiplication, so
    integer rows stay integer; pivots are chosen among the main columns
    only, and the tail rides along through every step.  A tail therefore
    records what a residual is made of: with identity tails it holds the
    combination of inserted rows, with a right-hand side it holds the
    reduced constant.  ``add`` appends a new pivot row when the rank of the
    main part grows and ``pop`` undoes it for depth-first backtracking.
    Rows are used as given, not copied; a row of any other length than
    ``ncols + tail`` is refused with ValueError.
    """

    def __init__(self, ncols, tail=0):
        self.ncols = ncols
        self.width = ncols + tail
        self._rows = []
        self._pivots = []

    @property
    def rank(self):
        return len(self._rows)

    @property
    def pivots(self):
        """The pivot column of each stored row, in insertion order."""
        return tuple(self._pivots)

    def reduce(self, row):
        """Residual of ``row`` (main entries, then tail) over the stored rows.

        The residual is zero at every pivot column, and equals a nonzero
        multiple of ``row`` minus a combination of the stored rows.
        """
        if len(row) != self.width:
            raise ValueError(f"row of length {len(row)}, expected {self.width}")
        for r, p in zip(self._rows, self._pivots):
            c = row[p]
            if c:
                a = r[p]
                row = [a * x - c * y for x, y in zip(row, r)]
        return row

    def contains(self, row):
        """Whether the main part of ``row`` lies in the span of the stored rows."""
        return not any(self.reduce(row)[:self.ncols])

    def add(self, row):
        """Insert a row; returns True when it enlarged the span.

        A stored integer row whose entries pass ``_GROWTH_LIMIT`` is divided
        by its gcd, tail included, so later reductions stay small.
        """
        row = self.reduce(row)
        for p in range(self.ncols):
            if row[p]:
                if (max(row) > _GROWTH_LIMIT or min(row) < -_GROWTH_LIMIT) \
                        and all(isinstance(x, int) for x in row):
                    g = 0
                    for x in row:
                        g = gcd(g, x)
                    row = [x // g for x in row]
                self._rows.append(row)
                self._pivots.append(p)
                return True
        return False

    def pop(self):
        """Drop the most recently added pivot row (for DFS backtracking)."""
        self._rows.pop()
        self._pivots.pop()


def rank(matrix):
    """Exact rank via fraction-free elimination."""
    rows = [_integerize(row) for row in matrix]
    if not rows:
        return 0
    space = RowSpace(len(rows[0]))
    for row in rows:
        space.add(row)
    return space.rank


def _unit(k, i):
    return [0] * i + [1] + [0] * (k - i - 1)


def solve_coordinates(basis_rows, target):
    """Coefficients of ``target`` as the unique combination of ``basis_rows``.

    Returns the coefficient tuple, or None when the target is outside the
    span.  Raises ValueError when the given rows are not independent, since
    then the coefficients are not unique and the caller holds a bug.

    Each basis row carries a unit tail and the target carries one more, so
    the target's residual ``s * target + sum(t_i * row_i)`` reads off the
    coordinates ``-t_i / s`` once its main part vanishes.
    """
    rows = [list(row) for row in basis_rows]
    if not rows:
        return None if any(target) else ()
    k = len(rows)
    space = RowSpace(len(rows[0]), tail=k + 1)
    for i, row in enumerate(rows):
        if not space.add(row + _unit(k + 1, i)):
            raise ValueError("basis rows are rank-deficient")
    res = space.reduce(list(target) + _unit(k + 1, k))
    if any(res[:space.ncols]):
        return None
    s = res[-1]
    return tuple(Fraction(-t, s) for t in res[space.ncols:-1])


def kernel_basis(matrix):
    """Basis of the right null space {x : Mx = 0}, as Fraction tuples.

    The columns of M go in one by one with unit tails; a column that
    reduces to zero leaves a kernel vector in its tail, scaled here so the
    column's own entry is 1 (the reduced-row-echelon basis vector of that
    free column).
    """
    rows = [_integerize(row) for row in matrix]
    if not rows:
        return []
    ncols = len(rows[0])
    space = RowSpace(len(rows), tail=ncols)
    basis = []
    for j, column in enumerate(zip(*rows)):
        res = space.reduce(list(column) + _unit(ncols, j))
        if not space.add(res):
            tail = res[len(rows):]
            basis.append(tuple(Fraction(x, tail[j]) for x in tail))
    return basis


class LinearSystem:
    """Conjunction of exact linear constraints over one variable vector.

    equalities:          row . x == rhs
    weak_inequalities:   row . x >= rhs
    strict_inequalities: row . x >  rhs

    Each ``(row, rhs)`` pair is stored once, as the integer list
    ``[*row, rhs]`` scaled by a positive factor, which keeps the solutions
    and the direction and strictness of every inequality.
    """

    def __init__(self, equalities=(), strict_inequalities=(), weak_inequalities=()):
        self.equalities = [_integerize([*row, rhs]) for row, rhs in equalities]
        self.strict_inequalities = [_integerize([*row, rhs]) for row, rhs in strict_inequalities]
        self.weak_inequalities = [_integerize([*row, rhs]) for row, rhs in weak_inequalities]
        widths = {len(row) for row in
                  self.equalities + self.strict_inequalities + self.weak_inequalities}
        if len(widths) > 1:
            raise ValueError("constraints disagree on variable count")
        self.nvars = widths.pop() - 1 if widths else 0


# One Fourier-Motzkin step may build at most this many candidate
# inequalities.  The agreement systems of the topological decider need a few
# dozen; a general system can grow doubly exponentially, and one step at the
# limit takes well under a second.
_FM_ROW_LIMIT = 100_000


def _primitive(row):
    """Divide an integer row by the gcd of its entries (a positive factor)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _settle(ineqs, nvars):
    """Merge positive multiples and drop constant inequalities.

    ``ineqs`` holds ``(row, strict)`` pairs of primitive rows, so positive
    multiples of one inequality have equal rows: after sorting, the last
    copy of a row is strict when any copy is.  Returns the remaining
    pairs, or None when a constant inequality is false.
    """
    ineqs.sort()
    kept = []
    for row, strict in ineqs:
        if not any(row[:nvars]):
            if row[-1] > 0 or (strict and row[-1] == 0):
                return None
        elif kept and kept[-1][0] == row:
            kept[-1] = (row, strict)
        else:
            kept.append((row, strict))
    return kept


def feasible(system, max_variables=24):
    """Exact decision of whether the system has a solution over the rationals.

    Equalities are eliminated first by substitution; the remaining variables
    are eliminated in ascending index order by Fourier-Motzkin, combining a
    lower and an upper bound into a strict inequality whenever either side
    is strict.  All arithmetic is on integers, and every inequality is kept
    primitive (its entries share no factor), which keeps them small.
    Raises ScaleBoundError when a step would build more than
    ``_FM_ROW_LIMIT`` inequalities.
    """
    nvars = system.nvars
    if nvars > max_variables:
        raise ScaleBoundError(f"{nvars} variables exceeds the bound of {max_variables}")

    # Echelon of the equalities [row | rhs]; a row that reduces to 0 = rhs
    # with rhs nonzero is a contradiction.  Pivot entries are made positive,
    # so reducing an inequality [row | rhs] against the echelon scales it by
    # a positive factor and never flips its direction.
    eqs = RowSpace(nvars, tail=1)
    for row in system.equalities:
        res = eqs.reduce(row)
        lead = next((x for x in res[:nvars] if x), None)
        if lead is None:
            if res[-1]:
                return False
            continue
        eqs.add([-x for x in res] if lead < 0 else res)

    # Substitute the pivot variables out of the inequalities.
    ineqs = [(_primitive(eqs.reduce(row)), True) for row in system.strict_inequalities]
    ineqs += [(_primitive(eqs.reduce(row)), False) for row in system.weak_inequalities]
    ineqs = _settle(ineqs, nvars)
    pivot_cols = set(eqs.pivots)

    # Fourier-Motzkin on the remaining variables.
    for var in range(nvars):
        if ineqs is None:
            return False
        if var in pivot_cols:
            continue
        lowers, uppers, others = [], [], []
        for ineq in ineqs:
            c = ineq[0][var]
            if c > 0:
                lowers.append(ineq)   # x_var >= (rhs - rest) / c
            elif c < 0:
                uppers.append(ineq)
            else:
                others.append(ineq)
        candidates = len(lowers) * len(uppers) + len(others)
        if candidates > _FM_ROW_LIMIT:
            raise ScaleBoundError(
                f"eliminating variable {var} builds {candidates} inequalities, "
                f"above the Fourier-Motzkin limit of {_FM_ROW_LIMIT}")
        for lrow, lstrict in lowers:
            lc = lrow[var]
            for urow, ustrict in uppers:
                # lc > 0 > uc: a positive combination with var's entry 0
                uc = urow[var]
                others.append((_primitive([lc * u - uc * l for l, u in zip(lrow, urow)]),
                               lstrict or ustrict))
        ineqs = _settle(others, nvars)
    return ineqs is not None
