import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lassomatroid import cli
from lassomatroid.tree import caterpillar_tree, tree_from_newick

QUARTET = "((a,b),(c,d));"
STAR4 = "(a,b,c,d);"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cords(tmp_path, text, name="cords.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_verdict_basis(tmp_path, capsys):
    path = write_cords(tmp_path, "a b\nc d\na c\na d\nb c\n")
    code, out, _ = run(capsys, "verdict", "--newick", QUARTET, "--cords", path)
    assert code == 0
    assert "basis: true" in out


def test_verdict_predicate_exit_code(tmp_path, capsys):
    path = write_cords(tmp_path, "a b\n# comment line\n\nc d\n")
    code, out, _ = run(capsys, "verdict", "--newick", QUARTET, "--cords", path,
                       "--predicate", "basis")
    assert code == 1
    assert "basis: false" in out


def test_bases_count(capsys):
    code, out, _ = run(capsys, "bases", "--newick", STAR4, "--count")
    assert code == 0
    assert out.strip() == "12"


def test_reconstruct_roundtrip(capsys):
    code, out, _ = run(capsys, "reconstruct", "--oracle-from", QUARTET)
    assert code == 0
    assert out.strip() == "((c,d),a,b);"


def test_json_records_roundtrip(tmp_path, capsys):
    path = write_cords(tmp_path, "a c\na d\nb c\n")
    code, out, _ = run(capsys, "closure", "--newick", QUARTET, "--cords", path, "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert {"cord": ["b", "d"]} in records
    code, out, _ = run(capsys, "lasso", "--newick", QUARTET, "--cords", path, "--json")
    record = json.loads(out)
    assert record["rank"] == 3
    assert record["edge_weight"] is False


def test_deterministic_output(capsys):
    first = run(capsys, "circuits", "--newick", QUARTET)
    second = run(capsys, "circuits", "--newick", QUARTET)
    assert first == second


def test_every_subcommand_emits_parseable_json(tmp_path, capsys):
    path = write_cords(tmp_path, "a b\nc d\na c\n")
    calls = [
        ("rank", "--newick", QUARTET, "--cords", path),
        ("verdict", "--newick", QUARTET, "--cords", path),
        ("closure", "--newick", QUARTET, "--cords", path),
        ("coloops", "--newick", QUARTET),
        ("bases", "--newick", QUARTET),
        ("circuits", "--newick", QUARTET),
        ("star", "--newick", STAR4, "--cords", path),
        ("contract-bases", "--newick", QUARTET, "--split", "a,b|c,d"),
        ("pointed-covers", "--newick", QUARTET, "--leaf", "a"),
        ("lasso", "--newick", QUARTET, "--cords", path),
        ("quartets", "--newick", QUARTET),
        ("reconstruct", "--oracle-from", QUARTET),
        ("binary-check", "--newick", QUARTET),
        ("enumerate-trees", "--leaves", "a,b,c,d"),
    ]
    for argv in calls:
        code, out, err = run(capsys, *argv, "--json")
        assert code in (0, 1), (argv, err)
        records = [json.loads(line) for line in out.splitlines()]
        assert all(isinstance(r, dict) for r in records)
        assert records, argv


def test_parse_error_exit_2(capsys):
    code, _out, err = run(capsys, "rank", "--newick", "((a,b);", "--cords", "/dev/null")
    assert code == 2
    assert "parse error" in err


def test_missing_tree_exit_2(capsys):
    code, _out, err = run(capsys, "coloops")
    assert code == 2
    assert "tree is required" in err


def test_scale_bound_exit_3(capsys):
    code, _out, err = run(capsys, "bases", "--newick", "(a,b,c,d,e,f,g,h);")
    assert code == 3
    assert "bound" in err


def test_circuits_scale_bound_exit_3(capsys):
    code, _out, err = run(capsys, "circuits", "--newick", "(a,b,c,d,e,f,g,h);")
    assert code == 3
    assert "circuit-enumeration bound of 7" in err
    code, _out, err = run(capsys, "circuits", "--newick", QUARTET, "--max-leaves", "3")
    assert code == 3
    code, out, _err = run(capsys, "circuits", "--newick", QUARTET, "--max-leaves", "4")
    assert code == 0 and out.strip()


def test_lasso_noncover_decided_beyond_the_scale_bound(tmp_path, capsys):
    # the leaf path of the 9-leaf caterpillar is connected but no t-cover
    path = write_cords(tmp_path, "".join(f"{x} {y}\n" for x, y in zip("abcdefgh", "bcdefghi")))
    code, out, _err = run(capsys, "lasso", "--newick", "((((((((a,b),c),d),e),f),g),h),i);",
                          "--cords", path, "--predicate", "topological")
    assert code == 1
    assert "topological: false" in out and "strong: false" in out
    star7 = write_cords(tmp_path, "".join(f"{x} {y}\n" for x, y in
                                          itertools.combinations("abcdefg", 2)), "star7.txt")
    code, out, err = run(capsys, "lasso", "--newick", "(a,b,c,d,e,f,g);", "--cords", star7,
                         "--predicate", "topological")
    assert code == 3
    assert "undecided at this scale" in err


def test_lasso_rejects_the_removed_pendant_flag(tmp_path, capsys):
    # positive and non-negative pendant weights give the same verdicts, so
    # the decider has no pendant rule to choose
    path = write_cords(tmp_path, "a c\na d\nb c\nb d\n")
    code, out, err = run(capsys, "lasso", "--newick", QUARTET, "--cords", path,
                         "--pendant-strict")
    assert code == 2
    assert out == ""
    assert "--pendant-strict" in err


def test_enumeration_bounds_exit_3_until_max_leaves_lifts_them(capsys):
    star7 = "(a,b,c,d,e,f,g);"
    code, _out, err = run(capsys, "binary-check", "--newick", star7)
    assert code == 3
    assert "circuit-enumeration bound of 6" in err
    code, out, _err = run(capsys, "binary-check", "--newick", star7, "--max-leaves", "7")
    assert code == 1 and "binary: false" in out
    code, _out, err = run(capsys, "contract-bases", "--newick", "((a,b),(c,d),(e,f),(g,h));",
                          "--split", "a,b|c,d,e,f,g,h")
    assert code == 3
    assert "basis-enumeration bound of 7" in err


def test_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise AssertionError("cross-check failed")

    monkeypatch.setattr(cli, "_cmd_rank", broken)
    path = write_cords(tmp_path, "a b\n")
    code, _out, err = run(capsys, "rank", "--newick", QUARTET, "--cords", path)
    assert code == 4
    assert "internal error: AssertionError: cross-check failed" in err


def test_max_leaves_env_and_flag(capsys, monkeypatch):
    labels = [f"x{i:02d}" for i in range(25)]
    big = caterpillar_tree(labels).to_newick()
    code, _out, err = run(capsys, "reconstruct", "--newick", big)
    assert code == 3
    assert "bound of 24" in err
    monkeypatch.setenv(cli.ENV_MAX_LEAVES, "25")
    code, out, _ = run(capsys, "reconstruct", "--newick", big)
    assert code == 0
    assert out.strip() == big
    # explicit flag wins over the environment
    code, _out, err = run(capsys, "reconstruct", "--newick", big, "--max-leaves", "24")
    assert code == 3


def test_binary_check_exit_codes(capsys):
    code, out, _ = run(capsys, "binary-check", "--newick", STAR4)
    assert code == 0 and "binary: true" in out
    code, out, _ = run(capsys, "binary-check", "--newick", "((a,d),(b,e),(c,f));")
    assert code == 1 and "binary: false" in out


def test_quartets_output(capsys):
    code, out, _ = run(capsys, "quartets", "--newick", QUARTET)
    assert code == 0
    assert out.strip() == "a-b | c-d"


def test_contract_bases_split_selection(capsys):
    code, out, _ = run(capsys, "contract-bases", "--newick", QUARTET,
                       "--split", "a,b|c,d")
    assert code == 0
    assert len(out.splitlines()) == 4
    code, _out, err = run(capsys, "contract-bases", "--newick", QUARTET,
                          "--split", "a|b,c,d")
    assert code == 2


def test_star_command(tmp_path, capsys):
    path = write_cords(tmp_path, "a b\nb c\na c\nd a\n")
    code, out, _ = run(capsys, "star", "--newick", STAR4, "--cords", path,
                       "--predicate", "basis")
    assert code == 0
    assert "basis: true" in out


def test_pointed_covers_command(capsys):
    code, out, _ = run(capsys, "pointed-covers", "--newick", QUARTET, "--leaf", "d")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_enumerate_trees_count(capsys):
    code, out, _ = run(capsys, "enumerate-trees", "--leaves", "a,b,c,d,e", "--count")
    assert code == 0
    assert out.strip() == "26"


def test_enumerate_trees_refuses_two_leaves(capsys):
    code, out, err = run(capsys, "enumerate-trees", "--leaves", "a,b")
    assert code == 2
    assert out == ""
    assert "an X-tree needs at least 3 leaves" in err


def test_enumerate_trees_rejects_labels_newick_cannot_hold(capsys):
    for leaves, bad in (("a:1,b;c,d", "a:1"), ("a b,c,d", "a b")):
        code, out, err = run(capsys, "enumerate-trees", "--leaves", leaves)
        assert code == 2
        assert out == ""
        assert repr(bad) in err


def test_tree_file_input(tmp_path, capsys):
    tree_path = tmp_path / "tree.nwk"
    tree_path.write_text(QUARTET + "\n")
    code, out, _ = run(capsys, "coloops", "--tree", str(tree_path))
    assert code == 0
    assert out.splitlines() == ["a-b", "c-d"]


def test_cord_file_validation(tmp_path, capsys):
    path = write_cords(tmp_path, "a z\n")
    code, _out, err = run(capsys, "rank", "--newick", QUARTET, "--cords", path)
    assert code == 2
    assert "not leaves" in err


def test_deeply_nested_newick_is_not_a_crash(tmp_path, capsys):
    text = "(x0,x1)"
    for i in range(2, 1201):
        text = f"({text},x{i})"
    path = write_cords(tmp_path, "")
    code, out, err = run(capsys, "rank", "--newick", text + ";", "--cords", path)
    assert code == 0, err
    assert out.strip() == "rank: 0"


def quiet_exit_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def mangled(text, cut, insert):
    """``text`` with one slice replaced, positions taken modulo its length."""
    i, j = sorted((cut[0] % len(text), cut[1] % len(text)))
    return text[:i] + insert + text[j:]


newick_noise = st.text(alphabet="(),:;abcd0123/.- ", max_size=30)


@given(st.one_of(newick_noise,
                 st.builds(mangled, st.sampled_from([QUARTET, STAR4, "((a:1,b:2/3):0.5,c:1,d:-1);"]),
                           st.tuples(st.integers(0, 40), st.integers(0, 40)), newick_noise)))
@settings(max_examples=200, deadline=None)
def test_malformed_newick_exits_2_or_3(text):
    try:
        tree_from_newick(text)
        malformed = False
    except ValueError:
        malformed = True
    code = quiet_exit_code("rank", "--newick", text, "--cords", os.devnull)
    assert code in ((2, 3) if malformed else (0,))


@given(st.one_of(st.text(alphabet="abcdz #-\n\t", max_size=40).map(str.encode),
                 st.binary(max_size=40)))
@settings(max_examples=200, deadline=None)
def test_cord_file_exit_codes_are_never_internal_errors(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("cords") / "cords.txt"
    path.write_bytes(content)
    try:
        with open(path) as fh:
            cli.read_cord_file(fh, "abcd")
        malformed = False
    except (cli._UsageError, ValueError):
        malformed = True
    code = quiet_exit_code("verdict", "--newick", QUARTET, "--cords", str(path))
    assert code in ((2, 3) if malformed else (0,))


def test_star_refuses_a_tree_that_is_not_a_star(tmp_path, capsys):
    # the star rules would answer for the star on the quartet's leaves:
    # rank 4 and no basis, where the quartet's own rank is 5, a basis
    path = write_cords(tmp_path, "a b\nc d\na c\na d\nb c\n")
    code, out, err = run(capsys, "star", "--newick", QUARTET, "--cords", path)
    assert code == 2
    assert out == ""
    assert "star rules need a star tree" in err
    code, out, _ = run(capsys, "verdict", "--newick", QUARTET, "--cords", path)
    assert code == 0
    assert "rank: 5" in out and "basis: true" in out


SUBCOMMANDS = ("rank", "verdict", "closure", "coloops", "bases", "circuits", "star",
               "contract-bases", "pointed-covers", "lasso", "quartets", "reconstruct",
               "binary-check", "enumerate-trees")

# Runs that end in argparse's own text: help, usage lines and usage errors.
WHOLE_OUTPUT_CASES = [
    [], ["--help"], ["-h"], ["no-such-command"], ["--bogus"],
    *([cmd, "--help"] for cmd in SUBCOMMANDS),
    ["rank", "--bogus"],
    ["rank", "--newick", QUARTET, "--bogus"],
    ["rank", "--newick", QUARTET, "--cords", "-", "--json", "extra"],
    ["rank", "--newick", QUARTET, "--cords", "-", "--max-leaves", "3"],
    ["verdict", "--newick", QUARTET, "--cords", "-", "--predicate", "rank"],
    ["lasso", "--newick", QUARTET, "--cords", "-", "--predicate"],
    ["contract-bases", "--newick", QUARTET],
    ["pointed-covers", "--newick", QUARTET],
    ["enumerate-trees"],
    ["bases", "--newick", QUARTET, "--max-leaves", "seven"],
    ["rank", "--newick", QUARTET, "--cor", "-"],
    ["closure", "--newick", QUARTET, "--cor", "-", "--js"],
]

# sha256 of every case's argv, exit code, stdout and whole stderr, per
# CPython minor version: argparse words its help and errors differently
# from one version to the next.  Computed with CPython 3.10.13, 3.11.7,
# 3.12.1 and 3.13.0, the versions the CI matrix runs, by calling
# ``whole_output_digest()`` under each.
WHOLE_OUTPUT_DIGESTS = {
    (3, 10): "ba99ab3f779af894723f2f2be04867ba78dbabe3710b9dacb8a9b3546b537b41",
    (3, 11): "ba99ab3f779af894723f2f2be04867ba78dbabe3710b9dacb8a9b3546b537b41",
    (3, 12): "ba99ab3f779af894723f2f2be04867ba78dbabe3710b9dacb8a9b3546b537b41",
    (3, 13): "dc5ea2f9c230d3bc53ae637aa54681dc40ec31a8144e4735c6910125d754420d",
}


def transcript(argv):
    """(exit code, stdout, whole stderr) of one in-process run, on an
    80-column terminal, with no bound in the environment and two cords on
    stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            mock.patch.object(sys, "stdin", io.StringIO("a b\nc d\n")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop(cli.ENV_MAX_LEAVES, None)
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def whole_output_digest():
    h = hashlib.sha256()
    for argv in WHOLE_OUTPUT_CASES:
        h.update(repr((argv, *transcript(argv))).encode() + b"\n")
    return h.hexdigest()


def test_whole_output_matches_its_digest():
    want = WHOLE_OUTPUT_DIGESTS.get(sys.version_info[:2])
    if want is None:
        pytest.skip(f"no digest for Python {sys.version_info[0]}.{sys.version_info[1]}")
    assert whole_output_digest() == want


def test_unrecognized_arguments_show_every_subcommand():
    # the top-level usage line reports an unknown argument after a subcommand
    for argv in (["rank", "--bogus"], ["rank", "--newick", QUARTET, "--json", "extra"]):
        code, out, err = transcript(argv)
        assert (code, out) == (2, "")
        assert "{" + ",".join(SUBCOMMANDS) + "}" in err
        assert err.endswith(f"error: unrecognized arguments: {argv[-1]}\n")


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    # argv=None reads sys.argv[1:]: its subcommand picks the one parser built,
    # and --help, no subcommand's name, falls back to the full parser
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or
                        build(command))
    monkeypatch.setattr(sys, "stdin", io.StringIO("a b\nc d\n"))
    monkeypatch.setattr(sys, "argv", ["lasso-matroid", "rank", "--newick", QUARTET,
                                      "--cords", "-"])
    assert cli.main() == 0
    assert capsys.readouterr() == ("rank: 2\n", "")
    assert built == ["rank"]
    monkeypatch.setattr(sys, "argv", ["lasso-matroid", "--help"])
    assert cli.main() == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: lasso-matroid [-h]") and err == ""
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out
    assert built == ["rank", "--help", None]
