"""Golden output of the command line.

Every case runs in-process through ``cli.main``.  One sha256 pins each
case's argv, environment bound, exit code, stdout and last stderr line, so
a rework of the command layer cannot move a byte that a user sees; a few
literal spot checks say what the digest holds.  A cord-file argument is
written ``@name`` and stands for the file ``CORDS[name]``; ``@-`` feeds
``CORDS["path"]`` on stdin.  ``star`` is run on star trees only.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import sys

import pytest

from lassomatroid import cli
from lassomatroid.tree import caterpillar_tree

QUARTET = "((a,b),(c,d));"
CAT5 = "(((a,b),c),d,e);"
HYP = "((a,b),c,(d,e));"
STAR4 = "(a,b,c,d);"
STAR6 = "(a,b,c,d,e,f);"
STAR7 = "(a,b,c,d,e,f,g);"
STAR8 = "(a,b,c,d,e,f,g,h);"
BIG25 = caterpillar_tree([f"x{i:02d}" for i in range(25)]).to_newick()

CORDS = {
    "basis": "a b\nc d\na c\na d\nb c\n",
    "path": "a b\nb c\nc d\n",
    "cover": "a c\na d\nb c\nb d\n",
    "twosided": "a b\na c\na e\nb d\nc d\nd e\n",
    "star": "a b\nb c\na c\nd a\n",
    "dumbbell": "a b\nb c\nc a\nc d\nd e\ne f\nf d\n",
    "theta": "a b\na c\nc b\na d\nd b\n",
    "full7": "".join(f"{x} {y}\n" for x, y in itertools.combinations("abcdefg", 2)),
    "comments": "a b\n# comment line\n\nc d  # trailing\n",
    "empty": "",
    "three": "a b c\n",
    "stranger": "a z\n",
    "loop": "a a\n",
}

TREES = (QUARTET, CAT5)
CORDED = (("basis", "path", "cover"), ("basis", "path", "twosided"))


def _cases():
    """(argv, environment bound) for every case, in a fixed order."""
    cases = []
    for newick, names in zip(TREES, CORDED):
        for cmd, name in itertools.product(("rank", "verdict", "closure", "lasso"), names):
            cases.append([cmd, "--newick", newick, "--cords", f"@{name}"])
        cases += [[cmd, "--newick", newick] for cmd in
                  ("coloops", "bases", "circuits", "quartets", "binary-check")]
        cases += [
            ["bases", "--newick", newick, "--count"],
            ["circuits", "--newick", newick, "--max-size", "4"],
            ["pointed-covers", "--newick", newick, "--leaf", "a"],
            ["pointed-covers", "--newick", newick, "--leaf", "d"],
            ["contract-bases", "--newick", newick, "--split", "a,b|c,d" + ",e" * (newick == CAT5)],
            ["reconstruct", "--newick", newick],
            ["reconstruct", "--oracle-from", newick],
        ]
    cases += [
        ["lasso", "--newick", HYP, "--cords", "@twosided"],
        ["binary-check", "--newick", "((a,d),(b,e),(c,f));"],
        ["binary-check", "--newick", STAR4],
        ["enumerate-trees", "--leaves", "a,b,c,d"],
        ["enumerate-trees", "--leaves", "d,c,b,a,e", "--count"],
        ["coloops", "--newick", "((a:1,b:2):1/2,c:1,d:0.5);"],
        ["rank", "--newick", QUARTET, "--cords", "@comments"],
        ["rank", "--newick", QUARTET, "--cords", "@empty"],
        ["verdict", "--newick", QUARTET, "--cords", "@-"],
    ]
    for newick, name in ((STAR4, "star"), (STAR4, "theta"), (STAR6, "dumbbell"),
                         (STAR6, "star"), ("(a,b,c);", "empty")):
        cases.append(["star", "--newick", newick, "--cords", f"@{name}"])
    cases = [(argv, None) for argv in cases]
    cases += [(argv + ["--json"], env) for argv, env in cases]

    predicates = {
        "verdict": ("independent", "lasso", "basis"),
        "lasso": ("edge-weight", "topological", "strong"),
        "star": ("lasso", "independent", "basis", "circuit"),
    }
    inputs = {
        "verdict": [(QUARTET, "basis"), (QUARTET, "comments"), (CAT5, "path")],
        "lasso": [(QUARTET, "cover"), (HYP, "twosided"), (CAT5, "path"), (STAR7, "full7")],
        "star": [(STAR4, "star"), (STAR4, "theta"), (STAR6, "dumbbell")],
    }
    for cmd, names in predicates.items():
        for (newick, cords), name in itertools.product(inputs[cmd], names):
            cases.append(([cmd, "--newick", newick, "--cords", f"@{cords}",
                           "--predicate", name], None))

    errors = [
        ["rank", "--newick", "((a,b);", "--cords", "@empty"],
        ["coloops", "--newick", "(a,b);"],
        ["coloops"],
        ["coloops", "--tree", "no-such-tree.nwk"],
        ["rank", "--newick", QUARTET],
        ["star", "--newick", STAR4],
        ["verdict", "--newick", QUARTET, "--cords", "@three"],
        ["lasso", "--newick", QUARTET, "--cords", "@stranger"],
        ["closure", "--newick", QUARTET, "--cords", "@loop"],
        ["star", "--newick", STAR4, "--cords", "@stranger"],
        ["contract-bases", "--newick", QUARTET, "--split", "a,b,c,d"],
        ["contract-bases", "--newick", QUARTET, "--split", "a,b|c"],
        ["contract-bases", "--newick", QUARTET, "--split", "a,c|b,d"],
        ["contract-bases", "--newick", QUARTET, "--split", "a|b,c,d"],
        ["pointed-covers", "--newick", QUARTET, "--leaf", "z"],
        ["enumerate-trees", "--leaves", "a,b"],
        ["enumerate-trees", "--leaves", "a,b,a"],
        ["enumerate-trees", "--leaves", "a:1,b,c"],
        ["bases", "--newick", STAR8],
        ["bases", "--newick", STAR8, "--count"],
        ["circuits", "--newick", STAR8],
        ["binary-check", "--newick", STAR7],
        ["contract-bases", "--newick", "((a,b),(c,d),(e,f),(g,h));", "--split", "a,b|c,d,e,f,g,h"],
        ["enumerate-trees", "--leaves", "a,b,c,d,e,f,g,h,i"],
        ["reconstruct", "--newick", BIG25],
        ["lasso", "--newick", STAR7, "--cords", "@full7"],
    ]
    cases += [(argv, None) for argv in errors]
    cases += [(argv + ["--json"], None) for argv in errors[:3]]

    cases += [
        (["binary-check", "--newick", STAR7, "--max-leaves", "7"], None),
        (["circuits", "--newick", QUARTET, "--max-leaves", "3"], None),
        (["circuits", "--newick", QUARTET, "--max-leaves", "4"], None),
        (["enumerate-trees", "--leaves", "a,b,c,d,e", "--max-leaves", "4"], None),
        (["lasso", "--newick", HYP, "--cords", "@twosided", "--max-leaves", "4"], None),
        (["reconstruct", "--newick", BIG25], "25"),
        (["reconstruct", "--newick", BIG25, "--max-leaves", "24"], "25"),
        (["reconstruct", "--oracle-from", QUARTET], "3"),
        (["reconstruct", "--oracle-from", QUARTET, "--max-leaves", "4"], "3"),
        (["bases", "--newick", QUARTET, "--count"], "3"),
        (["bases", "--newick", QUARTET, "--count"], "4"),
        (["bases", "--newick", QUARTET, "--count"], "seven"),
        (["bases", "--newick", QUARTET, "--count", "--max-leaves", "4"], "seven"),
        (["contract-bases", "--newick", QUARTET, "--split", "a,b|c,d"], "3"),
        (["binary-check", "--newick", STAR4], "3"),
        (["enumerate-trees", "--leaves", "a,b,c,d"], "3"),
        (["lasso", "--newick", HYP, "--cords", "@twosided"], "4"),
        (["rank", "--newick", QUARTET, "--cords", "@basis"], "seven"),
        (["star", "--newick", STAR4, "--cords", "@star"], "seven"),
    ]
    return cases


def _run(argv, env, tmp_path, monkeypatch, capsys):
    """(exit code, stdout, last stderr line) of one case."""
    args = []
    for a in argv:
        if a == "@-":
            monkeypatch.setattr(sys, "stdin", io.StringIO(CORDS["path"]))
            args.append("-")
        elif a.startswith("@"):
            path = tmp_path / a[1:]
            path.write_text(CORDS[a[1:]])
            args.append(str(path))
        else:
            args.append(a)
    if env is None:
        monkeypatch.delenv(cli.ENV_MAX_LEAVES, raising=False)
    else:
        monkeypatch.setenv(cli.ENV_MAX_LEAVES, env)
    code = cli.main(args)
    out, err = capsys.readouterr()
    lines = err.splitlines()
    return code, out, lines[-1] if lines else ""


def test_every_case_matches_its_golden_digest(tmp_path, monkeypatch, capsys):
    h = hashlib.sha256()
    for argv, env in _cases():
        code, out, err = _run(argv, env, tmp_path, monkeypatch, capsys)
        h.update(repr((argv, env, code, out, err)).encode() + b"\n")
    assert h.hexdigest() == (
        "4c80afb30a86d0a443d62672322d9f9c21e08651e8128f2674d6a9ab95fb0912")


@pytest.mark.parametrize("argv, env, code, out, err", [
    (["verdict", "--newick", QUARTET, "--cords", "@basis"], None, 0,
     "rank: 5\nindependent: true\nlasso: true\nbasis: true\n", ""),
    (["verdict", "--newick", QUARTET, "--cords", "@path", "--json"], None, 0,
     '{"basis": false, "independent": true, "lasso": false, "rank": 3}\n', ""),
    (["lasso", "--newick", HYP, "--cords", "@twosided", "--predicate", "strong"], None, 1,
     "rank: 6\nedge-weight: false\ntopological: true\nstrong: false\n"
     "bipartition: a,d | b,c,e\n", ""),
    (["lasso", "--newick", STAR7, "--cords", "@full7", "--predicate", "topological"], None, 3,
     "rank: 7\nedge-weight: true\ntopological: undecided (scale)\n"
     "strong: undecided (scale)\n",
     "scale bound: predicate 'topological' is undecided at this scale"),
    (["star", "--newick", STAR4, "--cords", "@star", "--predicate", "basis"], None, 0,
     "component: a,b,c,d [odd, cycles=1]\nrank: 4\nlasso: true\nindependent: true\n"
     "basis: true\ncircuit: false\nclosure: a-b a-c a-d b-c b-d c-d\n", ""),
    (["binary-check", "--newick", "((a,d),(b,e),(c,f));"], None, 1,
     "binary: false\nviolating circuits: a-b a-c b-d c-d / a-b a-c a-e a-f b-c e-f\n",
     ""),
    (["binary-check", "--newick", STAR4, "--json"], None, 0, '{"binary": true}\n', ""),
    (["rank", "--newick", QUARTET], None, 2, "", "error: this command needs --cords FILE"),
    (["verdict", "--newick", QUARTET, "--cords", "@three"], None, 2, "",
     "error: cord file line 1: expected two labels, got 'a b c'"),
    (["contract-bases", "--newick", QUARTET, "--split", "a|b,c,d"], None, 2, "",
     "error: --split selects a pendant edge; pick an interior split"),
    (["bases", "--newick", STAR8], None, 3, "",
     "scale bound: 8 leaves exceeds the basis-enumeration bound of 7"),
    (["bases", "--newick", QUARTET, "--count"], "seven", 2, "",
     "error: LASSO_MATROID_MAX_LEAVES must be an integer, got 'seven'"),
    (["bases", "--newick", QUARTET, "--count", "--max-leaves", "4"], "seven", 0, "4\n", ""),
    (["rank", "--newick", QUARTET, "--cords", "@basis"], "seven", 0, "rank: 5\n", ""),
])
def test_spot_checks(argv, env, code, out, err, tmp_path, monkeypatch, capsys):
    assert _run(argv, env, tmp_path, monkeypatch, capsys) == (code, out, err)
