"""Every module-level import in src/padicmat is used by its module.

This is pyflakes' unused-import check (F401) written with the standard
library's `ast`, so it runs wherever the tests run.  An import statement
whose first line carries `# noqa: F401` is a deliberate re-export and is
skipped.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "padicmat"


def unused_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound.append(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path) == []
