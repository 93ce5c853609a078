"""src/padicmat has no `assert` statement.

A check that the package relies on must still run under `python -O`, so
it raises an exception of its own instead.  This uses the standard
library's `ast`, beside the unused-import check in test_imports.py.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "padicmat"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert lines == []
