import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import lassomatroid as lm
from lassomatroid import matroid, stargraph
from helpers import cords, letters


def test_analyze_triangle_plus_isolated():
    report = stargraph.analyze("abcd", cords("ab", "bc", "ca"))
    assert len(report.components) == 2
    triangle = next(c for c in report.components if len(c.vertices) == 3)
    isolated = next(c for c in report.components if len(c.vertices) == 1)
    assert not triangle.bipartite and triangle.cycle_count == 1
    assert isolated.bipartite and isolated.cycle_count == 0 and not isolated.edges


def test_analyze_empty_and_even_cycle():
    report = stargraph.analyze("abcde", ())
    assert len(report.components) == 5
    assert all(c.bipartite for c in report.components)
    report = stargraph.analyze("abcd", cords("ab", "bc", "cd", "da"))
    assert len(report.components) == 1
    comp = report.components[0]
    assert comp.bipartite and comp.cycle_count == 1


def test_analyze_keeps_bipartite_sides():
    report = stargraph.analyze("abcdef", cords("ab", "bc", "cd", "ef", "fa", "ce"))
    (odd,) = report.components
    assert odd.sides is None
    report = stargraph.analyze("abcdef", cords("ab", "bc", "cd", "ef"))
    assert [c.sides for c in report.components] == [
        (frozenset("ac"), frozenset("bd")), (frozenset("e"), frozenset("f"))]


def test_star_is_lasso_examples():
    assert stargraph.star_is_lasso("abcd", cords("ab", "bc", "ca", "da"))
    assert not stargraph.star_is_lasso("abcd", cords("ab", "bc", "cd", "da"))
    assert not stargraph.star_is_lasso("abcd", cords("ab", "bc", "ca"))  # d isolated


def test_star_basis_and_independent_examples():
    assert stargraph.star_is_basis("abcd", cords("ab", "bc", "ca", "da"))
    assert stargraph.star_is_basis("abcd", cords("ab", "bc", "ca", "dc"))
    tree_like = cords("ab", "bc", "cd")
    assert stargraph.star_is_independent("abcd", tree_like)
    assert not stargraph.star_is_basis("abcd", tree_like)


def test_star_is_circuit_examples():
    assert stargraph.star_is_circuit("abcd", cords("ab", "bc", "cd", "da"))
    two_triangles_shared = cords("ab", "bc", "ca", "cd", "de", "ec")
    assert stargraph.star_is_circuit("abcde", two_triangles_shared)
    assert not stargraph.star_is_circuit("abc", cords("ab", "bc", "ca"))
    # triangle, connecting path, even square: not a circuit
    mixed = cords("ab", "bc", "ca", "cd", "de", "ef", "fg", "gd")
    assert not stargraph.star_is_circuit("abcdefg", mixed)
    # two triangles joined by a path
    dumbbell = cords("ab", "bc", "ca", "cd", "de", "ef", "fd")
    assert stargraph.star_is_circuit("abcdef", dumbbell)
    # a theta graph is dependent but never minimal
    theta = cords("ab", "bc", "ad", "dc", "ac")
    assert not stargraph.star_is_circuit("abcd", theta)


def test_star_is_circuit_refuses_a_cord_outside_the_labels():
    with pytest.raises(ValueError, match="leaves the vertex set"):
        stargraph.star_is_circuit("abc", cords("ab", "bd"))


def test_star_rank_examples():
    assert stargraph.star_rank("abcd", cords("ab", "bc", "ca")) == 3
    assert stargraph.star_rank("abcd", ()) == 0
    five_cycle = cords("ab", "bc", "cd", "de", "ea")
    assert stargraph.star_rank("abcde", five_cycle) == 5
    assert stargraph.star_rank("abcde", five_cycle) <= min(len(five_cycle), 5)


def test_star_closure_examples():
    got = stargraph.star_closure("abcde", cords("ab", "bc", "ca", "de"))
    assert got == cords("ab", "ac", "bc", "de")
    two_triangles = cords("ab", "bc", "ca", "de", "ef", "fd")
    assert stargraph.star_closure("abcdef", two_triangles) == lm.all_cords("abcdef")
    assert stargraph.star_closure("abcd", ()) == frozenset()


def _oracle_tree(labels):
    return lm.star_tree(labels)


@given(st.integers(4, 6).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.sets(st.sampled_from(sorted(lm.all_cords(letters(n)))),
                                max_size=n + 3))))
@settings(max_examples=250, deadline=None)
def test_rules_agree_with_rank_oracle(case):
    n, sub = case
    labels = letters(n)
    star = _oracle_tree(labels)
    sub = frozenset(sub)
    v = matroid.verdict(star, sub)
    assert stargraph.star_rank(labels, sub) == v.rank
    assert stargraph.star_is_lasso(labels, sub) == v.lasso
    assert stargraph.star_is_independent(labels, sub) == v.independent
    assert stargraph.star_is_basis(labels, sub) == v.basis
    assert stargraph.star_closure(labels, sub) == matroid.closure(star, sub)


def test_circuit_rule_equals_circuit_enumeration_exhaustively():
    for n in (4, 5):
        labels = letters(n)
        star = _oracle_tree(labels)
        from_oracle = set(matroid.circuits(star))
        pool = sorted(lm.all_cords(labels))
        structural = set()
        for size in range(1, n + 2):
            for combo in itertools.combinations(pool, size):
                if stargraph.star_is_circuit(labels, combo):
                    structural.add(frozenset(combo))
        assert structural == from_oracle


def test_circuit_rule_accepts_only_minimal_dependent_sets():
    rng = random.Random(8)
    labels = letters(6)
    star = _oracle_tree(labels)
    pool = sorted(lm.all_cords(labels))
    hits = 0
    for _ in range(4000):
        sub = frozenset(rng.sample(pool, rng.randint(3, 9)))
        if stargraph.star_is_circuit(labels, sub):
            hits += 1
            assert not matroid.verdict(star, sub).independent
            for c in sub:
                assert matroid.verdict(star, sub - {c}).independent
    assert hits > 5


def test_one_report_answers_every_rule_as_the_wrappers_do():
    rng = random.Random(30)
    labels = letters(6)
    pool = sorted(lm.all_cords(labels))
    for _ in range(300):
        sub = frozenset(rng.sample(pool, rng.randint(0, 9)))
        report = stargraph.analyze(labels, sub)
        assert (report.rank, report.lasso, report.independent, report.basis,
                report.closure, report.circuit) == (
            stargraph.star_rank(labels, sub), stargraph.star_is_lasso(labels, sub),
            stargraph.star_is_independent(labels, sub), stargraph.star_is_basis(labels, sub),
            stargraph.star_closure(labels, sub), stargraph.star_is_circuit(labels, sub))


def test_star_command_analyses_its_cord_graph_once_unless_the_circuit_rank_test_passes(
        monkeypatch, tmp_path, capsys):
    # The circuit rule analyses the graph again, once per dropped cord, only
    # when its rank is one below its size.
    from lassomatroid import cli
    calls = []
    analyze = stargraph.analyze
    monkeypatch.setattr(stargraph, "analyze",
                        lambda *a: calls.append(1) or analyze(*a))
    for text, expected in (("a b\nb c\nc a\n", 1),
                           ("a b\nb c\nc a\nc d\nd e\ne f\nf d\n", 8)):
        path = tmp_path / "cords.txt"
        path.write_text(text)
        calls.clear()
        assert cli.main(["star", "--newick", "(a,b,c,d,e,f);", "--cords", str(path),
                         "--json"]) == 0
        capsys.readouterr()
        assert len(calls) == expected
