"""Guards on the package source itself."""

import ast
import pathlib

import proxdyn

SOURCES = sorted(pathlib.Path(proxdyn.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no safety guard may be one
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
