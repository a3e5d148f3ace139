"""Exact rational linear algebra and linear feasibility.

Everything here is exact: scalars are integers or ``fractions.Fraction``,
and there is no floating point anywhere.  Every row elimination (rank,
coordinates, kernels, the equality step of feasibility) runs through
``RowSpace``, the one kernel:

- Packed rows.  A row is one Python int with a signed W-bit field per
  column, so a reduction step, a pivot lookup and the test for a zero main
  part are each a few whole-int operations instead of a loop over entries.
- Incremental Bareiss elimination.  Each step divides exactly by the pivot
  of the previous step applied, so every entry stored or returned is a
  minor of the rows put in.
- Field width from Hadamard's bound.  Those minors are bounded in advance,
  which fixes W when the space is built; a row with an entry beyond the
  space's bound is refused, never wrapped.

``feasible`` substitutes its equalities out of its inequalities through the
same kernel, which scales each inequality by a positive factor, and then
runs Fourier-Motzkin elimination on primitive integer lists, with
strict/weak flags carried through each step.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm
from struct import pack as pack_fields, unpack as unpack_fields

from .errors import ScaleBoundError


def _integerize(row):
    """Scale a rational row by a positive factor to integers.

    Rank, span and the solutions and direction of an inequality are all
    invariant under it.  A row of integers is returned as it is: no
    Fraction is built.
    """
    if all(map(isinstance, row, repeat(int))):
        return row
    row = [Fraction(x) for x in row]
    denom = lcm(*(x.denominator for x in row))
    return [int(x * denom) for x in row]


def _entry_bound(rows):
    """The largest absolute entry of integer rows, at least 1."""
    values = set().union(*rows)
    return max(1, max(values, default=0), -min(values, default=0))


class RowSpace:
    """Incrementally built row space: the one exact elimination kernel.

    A row holds ``ncols`` main entries followed by ``tail`` carried entries,
    all integers of absolute value at most ``bound``.  Pivots are chosen
    among the main columns only, and the tail rides along through every
    step.  A tail therefore records what a residual is made of: with
    identity tails it holds the combination of inserted rows, with a
    right-hand side it holds the reduced constant.  ``add`` appends a new
    pivot row when the rank of the main part grows and ``pop`` undoes it for
    depth-first backtracking; ``advance`` brings a search's carried
    residuals over the newest row by one step each.

    Packed layout.  A row is the int ``sum(e[j] << W*j)``: column ``j``
    (main columns first, then the tail) is a signed W-bit field.  Packing
    is linear, so ``a*x - c*r`` on packed rows is the packed row of the
    entrywise combination, whatever carries pass between fields.  Adding
    the bias ``sum(2**(W-1) << W*j)`` makes every field nonnegative, so a
    field of the biased int is read from the bits below it alone, and its
    bytes are the fields in two's complement with their top bits flipped,
    which is how ``pack`` and ``unpack`` convert a whole row at once.  The
    lowest nonzero column of a row is its lowest set bit over W, and the
    main part is zero exactly when the low ``W*ncols`` bits are.

    Bareiss divisor.  Stored rows ``r_1 .. r_k`` have pivot entries
    ``a_1 .. a_k``, and ``r_i`` is zero at every earlier pivot.  A row is
    reduced by ``x <- (a_i*x - x[p_i]*r_i) / d`` for each ``i`` in turn
    whose pivot entry in ``x`` is nonzero, where ``d`` is the pivot entry of
    the last row applied (1 before any).  The division is exact (Bareiss
    1968, "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 22), and a power-of-two part of ``d`` is
    divided out by a shift.  ``reduce`` returns the residual with that
    divisor ``d``; the residual is ``d`` times the row minus a combination
    of the stored rows.  ``add`` takes the pair and stores the residual
    scaled by ``a_k / d``, which makes it the full Bareiss row.  Every entry
    of a residual or a stored row is then a minor of the inserted rows.

    Field width.  Such a minor has order at most ``m = min(ncols + 1,
    ncols + tail)``, so Hadamard's bound caps it at ``bound**m * m**(m/2)``
    in absolute value.  W is that bound's bit length plus a sign bit,
    rounded up to whole bytes, and up to 64 bits to a power of two.
    ``pack`` refuses a row of the wrong length or with an entry beyond
    ``bound`` with ValueError, so no field is ever taken modulo ``2**W``.
    """

    __slots__ = ("ncols", "width", "bound", "_w", "_bytes", "_format", "_field", "_half",
                 "_bias", "_main", "_stack")

    def __init__(self, ncols, tail=0, bound=1):
        width = ncols + tail
        m = min(ncols + 1, width)
        bits = (bound ** m * (isqrt(m ** m) + 1)).bit_length() + 1
        w = max(8, 1 << (bits - 1).bit_length()) if bits <= 64 else -(-bits // 8) * 8
        size = w // 8
        half = 1 << (w - 1)
        self.ncols = ncols
        self.width = width
        self.bound = bound
        self._w = w
        self._bytes = size * width
        # Up to 64 bits, pack and unpack convert every field in one struct call.
        self._format = f"<{width}{'bhiq'[size.bit_length() - 1]}" if w <= 64 else None
        self._field = (1 << w) - 1
        self._half = half
        self._bias = int.from_bytes(half.to_bytes(size, "little") * width, "little")
        self._main = (1 << (w * ncols)) - 1
        # Per stored row: (packed row, bit offset s of its pivot field, the
        # mask of the bits below s + W, pivot entry a, then k and q with
        # a == q * 2**k and q odd).
        self._stack = []

    @property
    def rank(self):
        return len(self._stack)

    @property
    def pivots(self):
        """The pivot column of each stored row, in insertion order."""
        return tuple(entry[1] // self._w for entry in self._stack)

    def pack(self, row):
        """The packed int of a row of ``ncols + tail`` integer entries.

        A row of another length, or with an entry beyond ``bound``, is
        refused with ValueError.
        """
        if row and (max(row) > self.bound or min(row) < -self.bound):
            raise ValueError(f"row entry beyond this space's bound of {self.bound}")
        return self._pack(row)

    def pack_bits(self, bits):
        """The packed row whose entry at column ``j`` is bit ``j`` of ``bits``.

        In hexadecimal, a packed row of entries 0 and 1 is its entries from
        the highest column down, each padded to W/4 digits; so the binary
        digits of ``bits``, joined by W/4 - 1 zeros, read as hex are the row.
        Bits beyond the row's width are refused with ValueError.
        """
        if bits < 0 or bits >> self.width:
            raise ValueError(f"bits beyond this space's {self.width} columns")
        return int(("0" * (self._w // 4 - 1)).join(format(bits, "b")), 16)

    def _pack(self, row):
        """``pack`` for a row already known to lie within the bound.

        Fields in two's complement, each with its top bit flipped, are the
        packed row plus the bias, since ``e + 2**(W-1)`` never borrows.
        Fields wider than 64 bits take entries that fit a byte in their
        first byte.
        """
        if len(row) != self.width:
            raise ValueError(f"row of length {len(row)}, expected {self.width}")
        if self._format is not None:
            return (int.from_bytes(pack_fields(self._format, *row), "little") ^ self._bias) - self._bias
        try:
            entries = bytes(row)
        except ValueError:   # an entry below 0 or above 255
            x, w = 0, self._w
            for e in reversed(row):
                x = (x << w) + e
            return x
        data = bytearray(self._bytes)
        data[::self._w // 8] = entries
        return int.from_bytes(data, "little")

    def unpack(self, x):
        """The entries of a packed row or residual, main columns first."""
        data = ((x + self._bias) ^ self._bias).to_bytes(self._bytes, "little")
        if self._format is not None:
            return list(unpack_fields(self._format, data))
        k = self._w // 8
        return [int.from_bytes(data[i:i + k], "little", signed=True)
                for i in range(0, self._bytes, k)]

    def reduce(self, row):
        """Residual of ``row`` over the stored rows, with its Bareiss divisor.

        ``row`` is a sequence of entries or a row packed by ``pack``.
        Returns ``(residual, divisor)``: the packed residual is zero at every
        pivot column and equals ``divisor`` times ``row`` minus a combination
        of the stored rows; pass both to ``add`` to insert it.
        """
        x = row if type(row) is int else self.pack(row)
        # The loop holds x + bias, so a field is read from the bits below it;
        # the divisor d = q * 2**k divides by a shift, then by its odd part.
        bias, half = self._bias, self._half
        x += bias
        d, k, q = 1, 0, 1
        for r, s, low, a, ak, aq in self._stack:
            c = (x & low) >> s
            if c != half:
                x = a * (x - bias) - (c - half) * r
                if k:
                    x >>= k
                if q != 1:
                    x //= q
                x += bias
                d, k, q = a, ak, aq
        return x - bias, d

    def advance(self, carried):
        """Bring carried residuals over the newest stored row by one step.

        ``carried`` holds ``(key, residual, divisor)`` triples, each pair as
        ``reduce`` returned it before the last ``add``, with a nonzero main
        part.  One Bareiss step with the newest row, whose division by the
        pair's divisor is exact, makes each pair the one ``reduce`` returns
        now, reached by the same steps in the same order, so its entries are
        still minors.  Returns ``(kept, vanished)``: the triples, in order,
        whose main part is still nonzero, and those whose main part is now
        zero.  A vanished residual never changes again, since every pivot is
        a main column.
        """
        r, s, low, a, _, _ = self._stack[-1]
        bias, half, main = self._bias, self._half, self._main
        kept, vanished = [], []
        for entry in carried:
            key, x, d = entry
            c = ((x + bias) & low) >> s
            if c != half:
                x = (a * x - (c - half) * r) // d
                entry = key, x, a
                if not x & main:
                    vanished.append(entry)
                    continue
            kept.append(entry)
        return kept, vanished

    def contains(self, row):
        """Whether the main part of ``row`` lies in the span of the stored rows."""
        return not self.reduce(row)[0] & self._main

    def add(self, row, divisor=None):
        """Insert a row; returns True when it enlarged the span.

        ``row`` is a sequence of entries or a packed row, or else a residual
        returned by ``reduce`` since the last change to the space, passed
        with its ``divisor``.
        """
        if divisor is None:
            row, divisor = self.reduce(row)
        if not row & self._main:
            return False
        stack = self._stack
        last = stack[-1][3] if stack else 1
        if divisor != last:
            row = row * last // divisor
        s = (row & -row).bit_length() - 1
        s -= s % self._w
        lead = ((row >> s) + self._half & self._field) - self._half
        k = (lead & -lead).bit_length() - 1
        stack.append((row, s, (1 << (s + self._w)) - 1, lead, k, lead >> k))
        return True

    def pop(self):
        """Drop the most recently added pivot row (for DFS backtracking)."""
        self._stack.pop()


def rank(matrix):
    """Exact rank via fraction-free elimination."""
    rows = [_integerize(row) for row in matrix]
    if not rows:
        return 0
    space = RowSpace(len(rows[0]), bound=_entry_bound(rows))
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
    target = list(target)
    if not rows:
        return None if any(target) else ()
    # One common positive factor turns every entry into an integer and
    # leaves the coordinates unchanged.
    every = [*rows, target]
    if not all(isinstance(x, int) for row in every for x in row):
        denom = lcm(*(Fraction(x).denominator for row in every for x in row))
        *rows, target = every = [[int(Fraction(x) * denom) for x in row] for row in every]
    k = len(rows)
    space = RowSpace(len(rows[0]), tail=k + 1, bound=_entry_bound(every))
    for i, row in enumerate(rows):
        if not space.add(row + _unit(k + 1, i)):
            raise ValueError("basis rows are rank-deficient")
    res = space.unpack(space.reduce(target + _unit(k + 1, k))[0])
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
    space = RowSpace(len(rows), tail=ncols, bound=_entry_bound(rows))
    basis = []
    for j, column in enumerate(zip(*rows)):
        res, divisor = space.reduce(list(column) + _unit(ncols, j))
        if not space.add(res, divisor):
            tail = space.unpack(res)[len(rows):]
            basis.append(tuple(Fraction(x, tail[j]) for x in tail))
    return basis


class LinearSystem:
    """Conjunction of exact linear constraints over one variable vector.

    equalities:          row . x == rhs
    weak_inequalities:   row . x >= rhs
    strict_inequalities: row . x >  rhs

    Each ``(row, rhs)`` pair is stored once, as the integer list
    ``[*row, rhs]`` scaled by a positive factor, which keeps the solutions
    and the direction and strictness of every inequality.  ``bound`` is the
    largest absolute entry of those lists (at least 1).
    """

    def __init__(self, equalities=(), strict_inequalities=(), weak_inequalities=()):
        self.equalities = [_integerize([*row, rhs]) for row, rhs in equalities]
        self.strict_inequalities = [_integerize([*row, rhs]) for row, rhs in strict_inequalities]
        self.weak_inequalities = [_integerize([*row, rhs]) for row, rhs in weak_inequalities]
        rows = self.equalities + self.strict_inequalities + self.weak_inequalities
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise ValueError("constraints disagree on variable count")
        self.nvars = widths.pop() - 1 if widths else 0
        self.bound = _entry_bound(rows)


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

    Equalities are eliminated first by substitution through ``RowSpace``,
    which scales each inequality by a positive factor; the remaining variables
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
    # with rhs nonzero is a contradiction.  A residual is its row times the
    # Bareiss divisor minus a combination of the equalities, so substituting
    # the pivot variables out of an inequality [row | rhs] and negating the
    # residual when the divisor is negative scales the inequality by a
    # positive factor.  The system's bound covers every row, so none needs
    # checking, and a row that is zero at every pivot column is its own
    # residual.
    eqs = RowSpace(nvars, tail=1, bound=system.bound)
    for row in system.equalities:
        res, divisor = eqs.reduce(eqs._pack(row))
        if res & eqs._main:
            eqs.add(res, divisor)
        elif res:   # 0 = rhs with rhs nonzero
            return False
    pivot_cols = eqs.pivots

    def substitute(row):
        if any(map(row.__getitem__, pivot_cols)):
            res, divisor = eqs.reduce(eqs._pack(row))
            row = eqs.unpack(-res if divisor < 0 else res)
        return _primitive(row)

    ineqs = [(substitute(row), True) for row in system.strict_inequalities]
    ineqs += [(substitute(row), False) for row in system.weak_inequalities]
    ineqs = _settle(ineqs, nvars)
    pivot_cols = set(pivot_cols)

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
                f"above the Fourier-Motzkin limit of {_FM_ROW_LIMIT}; "
                "no --max-leaves value lifts this limit")
        for lrow, lstrict in lowers:
            lc = lrow[var]
            for urow, ustrict in uppers:
                # lc > 0 > uc: a positive combination with var's entry 0
                uc = urow[var]
                others.append((_primitive([lc * u - uc * l for l, u in zip(lrow, urow)]),
                               lstrict or ustrict))
        ineqs = _settle(others, nvars)
    return ineqs is not None
