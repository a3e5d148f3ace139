import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import interior_splits
from lassomatroid import LinearSystem, ScaleBoundError, feasible, kernel_basis, rank, solve_coordinates
from lassomatroid.exact import RowSpace

entry = st.integers(min_value=-4, max_value=4)


def small_matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(st.lists(entry, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


def test_rank_identity_and_zero():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


def test_rank_star_incidence():
    # all six cords of a 4-leaf star: rank equals the edge count
    rows = [
        [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1],
        [0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1],
    ]
    assert rank(rows) == 4


def test_rank_accepts_fractions_and_matrix_type():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert rank(rows) == 2
    # any sequence of row sequences is a matrix
    assert rank(tuple(tuple(row) for row in rows)) == 2
    singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert rank(singular) == 1
    assert rank(list(zip(*singular))) == 1


@given(small_matrices())
@settings(max_examples=120, deadline=None)
def test_rank_matches_minor_oracle_and_transpose(rows):
    r = rank(rows)
    assert r == oracles.minor_rank(rows)
    assert r == rank(list(zip(*rows)))


def test_solve_coordinates_basic():
    assert solve_coordinates([[1, 0], [0, 1]], [2, 3]) == (2, 3)
    assert solve_coordinates([[1, 1]], [1, 0]) is None


def test_solve_coordinates_rejects_dependent_rows():
    with pytest.raises(ValueError):
        solve_coordinates([[1, 1], [2, 2]], [1, 1])


@given(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=1, max_size=3),
       st.lists(st.integers(-3, 3), min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_solve_coordinates_reproduces_target(rows, coeffs):
    space = RowSpace(3, bound=4)
    independent = [row for row in rows if space.add(row)]
    coeffs = coeffs[:len(independent)] + [0] * (len(independent) - len(coeffs))
    target = [sum(c * row[j] for c, row in zip(coeffs, independent)) for j in range(3)]
    got = solve_coordinates(independent, target) if independent else ()
    if independent:
        rebuilt = [sum(g * row[j] for g, row in zip(got, independent)) for j in range(3)]
        assert rebuilt == [Fraction(t) for t in target]


def test_kernel_identity_empty():
    assert kernel_basis([[1, 0], [0, 1]]) == []


@given(small_matrices(max_rows=4, max_cols=5))
@settings(max_examples=120, deadline=None)
def test_kernel_annihilates_and_dimension(rows):
    basis = kernel_basis(rows)
    ncols = len(rows[0])
    for vec in basis:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
    assert len(basis) == ncols - rank(rows)
    # kernel vectors are independent
    assert rank(basis) == len(basis)


def test_rowspace_pop_restores_state():
    space = RowSpace(3)
    assert space.add([1, 0, 0])
    assert space.add([0, 1, 0])
    space.pop()
    assert space.rank == 1
    assert space.add([0, 1, 1])
    assert not space.add([1, 1, 1])


def test_rowspace_tail_rides_along_and_width_is_checked():
    space = RowSpace(2, tail=1, bound=7)
    assert space.add([0, 2, 5])
    assert space.add([3, 1, 0])
    assert space.pivots == (1, 0)
    # pivots come from the main columns only: a row with a zero main part
    # never enlarges the span, whatever its tail
    assert not space.add([0, 0, 7])
    assert space.contains([6, 4, 1])
    residual, _divisor = space.reduce([6, 4, 1])
    *main, tail = space.unpack(residual)
    assert main == [0, 0] and tail != 0
    with pytest.raises(ValueError):
        space.add([1, 0])
    with pytest.raises(ValueError):
        space.contains([1, 0, 0, 0])


def test_rowspace_advance_gives_the_pairs_reduce_returns():
    # Carried rows stepped over each new row by ``advance`` must stay the
    # exact (residual, divisor) of ``reduce``, so their entries stay minors;
    # a row whose main part vanished must not change under later rows.
    rng = random.Random(19)
    for case in range(400):
        tail = case % 2
        ncols = rng.randint(1, 6)
        rows = [[rng.choice((-1, 0, 1)) for _ in range(ncols + tail)]
                for _ in range(rng.randint(1, 9))]
        space = RowSpace(ncols, tail=tail)
        carried = [(i, space.pack(row), 1) for i, row in enumerate(rows)
                   if not space.contains(row)]
        dropped = []
        while carried:
            _, residual, divisor = carried.pop(rng.randrange(len(carried)))
            assert space.add(residual, divisor)
            carried, vanished = space.advance(carried)
            dropped += vanished
            for i, residual, divisor in carried + dropped:
                assert (residual, divisor) == space.reduce(rows[i])
            assert not any(space.contains(rows[i]) for i, _, _ in carried)
            assert all(space.contains(rows[i]) for i, _, _ in dropped)
        assert space.rank == rank([row[:ncols] for row in rows])


def test_rowspace_residual_is_linear_and_vanishes_exactly_on_the_span():
    # At the full Bareiss scale the residual of a combination of rows is
    # that combination of their residuals; its main part is zero exactly
    # when the row is in the span, and it is the row ``add`` stores.
    rng = random.Random(30)
    for case in range(300):
        tail = case % 3
        ncols = rng.randint(1, 6)
        space = RowSpace(ncols, tail=tail, bound=48)

        def draw():
            return [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(ncols + tail)]

        for _ in range(rng.randint(0, ncols)):
            space.add(draw())
        for _ in range(4):
            x, y = draw(), draw()
            p, q = rng.randint(-6, 6), rng.randint(-6, 6)
            combined = [p * a + q * b for a, b in zip(x, y)]
            assert space.residual(combined) == p * space.residual(x) + q * space.residual(y)
            main = space.unpack(space.residual(x))[:ncols]
            assert not any(main) == space.contains(x)
            assert not any(main[c] for c in space.pivots)
        row = draw()
        expected = space.residual(row)
        if space.add(row):
            assert space._stack[-1][0] == expected


def test_rowspace_clear_empties_the_space_for_reuse():
    space = RowSpace(3, tail=1)
    assert space.add([1, 1, 0, 1]) and space.add([0, 1, 1, 0])
    space.clear()
    assert space.rank == 0 and space.pivots == ()
    assert not space.contains([1, 1, 0, 0])
    assert space.residual([1, 1, 0, 1]) == space.pack([1, 1, 0, 1])
    assert space.add([0, 0, 1, 0]) and space.pivots == (2,)


def test_rowspace_refuses_entries_beyond_its_bound_and_never_wraps_them():
    space = RowSpace(2, tail=1)
    assert space.add([1, 1, 0])
    # 2**64 + 1 is 1 modulo any field width up to 64 bits: a wrapped entry
    # would look like a valid 0/1 row
    wrapped = (1 << 64) + 1
    for row in ([2, 0, 0], [0, -2, 0], [wrapped, 0, 0], [0, 1, wrapped]):
        for method in (space.add, space.contains, space.reduce, space.pack):
            with pytest.raises(ValueError, match="bound of 1"):
                method(row)
    assert space.rank == 1 and space.pivots == (0,)
    assert space.add([0, 1, 1])
    assert RowSpace(2, tail=1, bound=wrapped).add([wrapped, 0, 0])


def test_rank_of_large_entries_matches_gauss_jordan():
    rng = random.Random(13)
    for _ in range(200):
        ncols = rng.randint(1, 6)
        big = 1 << rng.randint(1, 80)
        rows = [[rng.choice((0, big, -big, rng.randint(-big, big))) for _ in range(ncols)]
                for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.5:
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        assert rank(rows) == oracles.gauss_jordan_rank(rows)


# -- feasibility --------------------------------------------------------------


def test_feasible_trivial_cases():
    assert not feasible(LinearSystem(strict_inequalities=[([1], 0), ([-1], 0)]))
    assert feasible(LinearSystem(equalities=[([1, 1], 1)],
                                 strict_inequalities=[([1, 0], 0), ([0, 1], 0)]))


def test_feasible_equality_contradiction():
    assert not feasible(LinearSystem(equalities=[([1, 1], 1), ([2, 2], 3)]))


def test_feasible_strictness_matters():
    weak = LinearSystem(weak_inequalities=[([1], 0), ([-1], 0)])
    strict = LinearSystem(strict_inequalities=[([1], 0)], weak_inequalities=[([-1], 0)])
    assert feasible(weak)          # x == 0 works
    assert not feasible(strict)    # x > 0 and x <= 0 cannot


def test_feasible_unbounded_direction():
    assert feasible(LinearSystem(strict_inequalities=[([1, 0], 5)]))


def test_linear_system_refuses_rows_of_different_widths():
    with pytest.raises(ValueError, match="constraints disagree on variable count"):
        LinearSystem(equalities=[([1, 1], 0)], strict_inequalities=[([1], 0)])
    with pytest.raises(ValueError, match="constraints disagree on variable count"):
        LinearSystem(strict_inequalities=[([1, 0], 0)], weak_inequalities=[([1, 0, 0], 0)])
    assert LinearSystem(equalities=[([1, 1], 0)], weak_inequalities=[([0, 1], 0)]).nvars == 2


def test_feasible_variable_bound():
    wide = LinearSystem(weak_inequalities=[([0] * 25, 0)])
    with pytest.raises(ScaleBoundError):
        feasible(wide)
    assert feasible(wide, max_variables=30)


def test_feasible_agrees_with_vertex_oracle_on_random_systems():
    rng = random.Random(424242)
    for _ in range(150):
        nvars = rng.randint(1, 3)

        def row():
            return [rng.randint(-2, 2) for _ in range(nvars)]

        eqs = [(row(), rng.randint(-2, 2)) for _ in range(rng.randint(0, 1))]
        strict = [(row(), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]
        weak = [(row(), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]
        got = feasible(LinearSystem(equalities=eqs, strict_inequalities=strict,
                                    weak_inequalities=weak))
        want = oracles.vertex_feasible(eqs, strict, weak)
        assert got == want, (eqs, strict, weak)


def test_feasible_unit_quartet_distances_reject_crossed_tree():
    # distances of the unit-weighted tree with cherries ab|cd, imposed on the
    # tree with cherries ac|bd whose interior edge must stay positive
    import lassomatroid as lm

    crossed = lm.quartet_tree("a", "c", "b", "d")
    source = lm.quartet_tree("a", "b", "c", "d")
    unit = {eid: 1 for eid in source.edge_ids}
    cols = crossed.edge_column
    equalities = []
    for c in sorted(lm.all_cords("abcd")):
        equalities.append((crossed.path_vector(c), source.distance(unit, c)))
    strict = []
    weak = []
    for eid in crossed.edge_ids:
        unitvec = [0] * len(crossed.edge_ids)
        unitvec[cols[eid]] = 1
        (strict if crossed.is_interior_edge(eid) else weak).append((unitvec, 0))
    system = LinearSystem(equalities=equalities, strict_inequalities=strict,
                          weak_inequalities=weak)
    assert not feasible(system)
    assert not oracles.vertex_feasible(equalities, strict, weak)


def test_feasible_agrees_with_vertex_oracle_on_four_leaf_agreement_systems():
    # Every ordered pair of distinct 4-leaf shapes and two cord sets: all six
    # cords (never feasible) and the two-sided set of ac|bd (feasible for some
    # pairs and not for others).  The oracle decides the unreduced system, a
    # variable for every edge of both trees and all of them strict; it is a
    # cone, so it is feasible exactly when it is with sum(w) == 1, which
    # bounds it: the oracle needs no box.  ``feasible`` decides the decider's
    # system, over the interior edges alone.
    import lassomatroid as lm
    from lassomatroid import lasso

    shapes = list(lm.enumerate_xtrees("abcd"))
    cord_sets = [lm.all_cords("abcd"), lm.cross_cords("ac", "bd")]
    verdicts = set()
    for shape in shapes:
        for tree in shapes:
            if shape.canonical_form() == tree.canonical_form():
                continue
            nvars = len(shape.edge_ids) + len(tree.edge_ids)
            units = [[int(i == col) for i in range(nvars)] for col in range(nvars)]
            for cords in cord_sets:
                equalities = [([*shape.path_vector(c), *(-x for x in tree.path_vector(c))], 0)
                              for c in sorted(cords)]
                want = oracles.vertex_feasible(
                    equalities + [([1] * nvars, 1)], [(row, 0) for row in units], [], box=None)
                pairs = [("abcd".index(x), "abcd".index(y)) for x, y in sorted(cords)]
                combinations = lasso._cancelling_combinations(4, pairs)
                columns = [lasso._edge_column(combinations, m) for m in interior_splits(shape)]
                columns += [[-y for y in lasso._edge_column(combinations, m)]
                            for m in interior_splits(tree)]
                got = feasible(lasso._agreement_system(columns))
                assert got == want, (shape.to_newick(), tree.to_newick(), cords)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_feasible_verdict_is_invariant_under_positive_scaling():
    rng = random.Random(20240607)
    values = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
    for _ in range(300):
        nvars = rng.randint(1, 4)

        def constraints(count):
            return [([rng.choice(values) for _ in range(nvars)], rng.choice(values))
                    for _ in range(count)]

        def scaled(pairs):
            factors = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in pairs]
            return [([c * f for c in row], rhs * f) for (row, rhs), f in zip(pairs, factors)]

        eqs = constraints(rng.randint(0, 2))
        strict = constraints(rng.randint(0, 3))
        weak = constraints(rng.randint(0, 3))
        want = feasible(LinearSystem(eqs, strict, weak))
        got = feasible(LinearSystem(scaled(eqs), scaled(strict), scaled(weak)))
        assert got == want, (eqs, strict, weak)


def test_integer_feasibility_builds_no_fraction(monkeypatch):
    import lassomatroid as lm
    from lassomatroid import exact, lasso

    def no_fraction(*args):
        raise AssertionError("a Fraction was built on the integer path")

    monkeypatch.setattr(exact, "Fraction", no_fraction)
    monkeypatch.setattr(lasso, "_topological_memo", {})
    system = LinearSystem(equalities=[([1, -1, 0], 0)],
                          strict_inequalities=[([1, 0, 0], 0), ([0, 1, -1], 2)],
                          weak_inequalities=[([0, 0, 1], -5)])
    assert feasible(system)
    # a two-sided set splitting both cherries of a 5-leaf caterpillar is a
    # topological lasso, so every grown prefix that differs from the tree's
    # restriction gets a feasibility call
    tree = lm.tree_from_newick("((a,b),c,(d,e));")
    assert lasso.is_topological_lasso(tree, lm.cross_cords("ad", "bce"))


def test_feasible_refuses_a_fourier_motzkin_blowup():
    # Without a bound, eliminating these five variables builds inequalities
    # without end; the step that would build over the limit is refused.
    h = Fraction(1, 2)
    t = Fraction(2, 3)
    strict = [([-3, 1, h, 1, 0], 0), ([h, -t, 0, -t, 0], 0), ([-3, -3, -1, 1, 2], 0),
              ([-t, -1, -1, -t, 0], 0), ([0, 1, -1, 0, 0], Fraction(3, 2))]
    weak = [([0, 1, 2, h, 0], -1), ([-1, 2, 0, -t, 0], -1), ([-3, h, 0, 1, 2], Fraction(3, 2)),
            ([h, 1, -t, 1, -t], -1), ([2, 2, h, -1, -1], 1)]
    with pytest.raises(ScaleBoundError, match="inequalities, above the Fourier-Motzkin limit of"):
        feasible(LinearSystem(strict_inequalities=strict, weak_inequalities=weak))
