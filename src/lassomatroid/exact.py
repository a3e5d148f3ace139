"""Exact rational linear algebra and linear feasibility.

Everything here is exact: scalars are integers or ``fractions.Fraction``.
Every row elimination (rank, coordinates, kernels, the equality step of
feasibility) runs through ``RowSpace`` and its fraction-free
cross-multiplication; the feasibility decider then runs Fourier-Motzkin
elimination with strict/weak flags carried through each step.  There is no
floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import ScaleBoundError

# Entries this large trigger a gcd renormalisation of the row; keeps the
# fraction-free elimination from growing integers without bound.
_GROWTH_LIMIT = 1 << 64


def _integerize(row):
    """Scale a rational row to integers (rank and span are scale-invariant)."""
    denom = 1
    for x in row:
        if isinstance(x, Fraction):
            denom = denom * x.denominator // gcd(denom, x.denominator)
    if denom == 1:
        return [int(x) for x in row]
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


@dataclass(frozen=True)
class LinearSystem:
    """Conjunction of exact linear constraints over one variable vector.

    equalities:          row . x == rhs
    weak_inequalities:   row . x >= rhs
    strict_inequalities: row . x >  rhs
    """

    equalities: tuple = field(default=())
    strict_inequalities: tuple = field(default=())
    weak_inequalities: tuple = field(default=())

    def __init__(self, equalities=(), strict_inequalities=(), weak_inequalities=()):
        def norm(constraints):
            return tuple((tuple(Fraction(c) for c in row), Fraction(rhs)) for row, rhs in constraints)

        object.__setattr__(self, "equalities", norm(equalities))
        object.__setattr__(self, "strict_inequalities", norm(strict_inequalities))
        object.__setattr__(self, "weak_inequalities", norm(weak_inequalities))
        widths = {len(row) for row, _ in self.equalities + self.strict_inequalities + self.weak_inequalities}
        if len(widths) > 1:
            raise ValueError("constraints disagree on variable count")

    @property
    def nvars(self):
        for row, _ in self.equalities + self.strict_inequalities + self.weak_inequalities:
            return len(row)
        return 0


def _normalize_ineq(row, rhs, strict):
    """Scale so the first nonzero coefficient is +-1; canonical for dedup."""
    lead = next((c for c in row if c), None)
    if lead is None:
        return row, rhs, strict
    scale = abs(lead)
    if scale != 1:
        row = tuple(c / scale for c in row)
        rhs = rhs / scale
    return row, rhs, strict


def feasible(system, max_variables=24):
    """Exact decision of whether the system has a solution over the rationals.

    Equalities are eliminated first by substitution; the remaining variables
    are eliminated in ascending index order by Fourier-Motzkin, combining a
    lower and an upper bound into a strict inequality whenever either side
    is strict.
    """
    nvars = system.nvars
    if nvars > max_variables:
        raise ScaleBoundError(f"{nvars} variables exceeds the bound of {max_variables}")

    # Echelon of the equalities [row | rhs]; a row that reduces to 0 = rhs
    # with rhs nonzero is a contradiction.  Pivot entries are made positive,
    # so reducing an inequality [row | rhs] against the echelon scales it by
    # a positive factor and never flips its direction.
    eqs = RowSpace(nvars, tail=1)
    for row, rhs in system.equalities:
        res = eqs.reduce(_integerize(row + (rhs,)))
        lead = next((x for x in res[:nvars] if x), None)
        if lead is None:
            if res[-1]:
                return False
            continue
        eqs.add([-x for x in res] if lead < 0 else res)

    # Substitute the pivot variables out of the inequalities.
    ineqs = []
    for constraints, strict in ((system.strict_inequalities, True),
                                (system.weak_inequalities, False)):
        for row, rhs in constraints:
            res = eqs.reduce(list(row) + [rhs])
            ineqs.append((res[:nvars], res[-1], strict))
    pivot_cols = set(eqs.pivots)

    # Fourier-Motzkin on the remaining variables.
    remaining = [v for v in range(nvars) if v not in pivot_cols]
    for var in remaining:
        lowers, uppers, others = [], [], []
        for row, rhs, strict in ineqs:
            c = row[var]
            if c > 0:
                lowers.append((row, rhs, strict, c))   # x_var >= (rhs - rest)/c
            elif c < 0:
                uppers.append((row, rhs, strict, c))
            else:
                others.append((row, rhs, strict))
        new_ineqs = {}
        for row, rhs, strict in others:
            key = _normalize_ineq(tuple(row), rhs, strict)
            prev = new_ineqs.get(key[:2])
            new_ineqs[key[:2]] = (key[2] or prev) if prev is not None else key[2]
        for lrow, lrhs, lstrict, lc in lowers:
            for urow, urhs, ustrict, uc in uppers:
                # lc > 0 >= uc: combine to eliminate var exactly
                row = [lc * u - uc * l for l, u in zip(lrow, urow)]
                rhs = lc * urhs - uc * lrhs
                row[var] = Fraction(0)
                strict = lstrict or ustrict
                key = _normalize_ineq(tuple(row), rhs, strict)
                prev = new_ineqs.get(key[:2])
                new_ineqs[key[:2]] = (key[2] or prev) if prev is not None else key[2]
        ineqs = []
        for (row, rhs), strict in new_ineqs.items():
            if any(row):
                ineqs.append((list(row), rhs, strict))
            else:
                if rhs > 0 or (strict and rhs == 0):
                    return False
    for row, rhs, strict in ineqs:
        if any(row):
            continue
        if rhs > 0 or (strict and rhs == 0):
            return False
    return True
