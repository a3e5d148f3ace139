import json

from lassomatroid import cli

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


def test_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise AssertionError("cross-check failed")

    monkeypatch.setattr(cli, "_cmd_rank", broken)
    path = write_cords(tmp_path, "a b\n")
    code, _out, err = run(capsys, "rank", "--newick", QUARTET, "--cords", path)
    assert code == 4
    assert "internal error: AssertionError: cross-check failed" in err


def test_max_leaves_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_MAX_LEAVES, "8")
    code, out, _ = run(capsys, "bases", "--newick", "(a,b,c,d,e,f,g,h);", "--count")
    assert code == 0
    assert out.strip()
    # explicit flag wins over the environment
    code, _out, err = run(capsys, "bases", "--newick", "(a,b,c,d,e,f,g,h);",
                          "--max-leaves", "7")
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
