"""Checks on the package's source text."""

import ast
from pathlib import Path

import lassomatroid


def self_checks(source):
    """Line numbers of the ``assert`` statements and ``raise AssertionError``
    in one module's source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
        elif isinstance(node, ast.Assert):
            lines.append(node.lineno)
    return lines


def test_self_check_finder():
    source = ("assert x\n"
              "raise AssertionError('broke')\n"
              "raise AssertionError\n"
              "raise ValueError('bad input')\n")
    assert self_checks(source) == [1, 2, 3]


def test_library_holds_no_self_checks():
    # The library answers once, by the paper's theorems; re-deriving an
    # answer to check it belongs in the tests, against tests/oracles.py.
    package = Path(lassomatroid.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 9
    found = {path.name: self_checks(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
