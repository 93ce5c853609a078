"""src/padicmat draws its Haar samples in batches.

`sample_haar` is the batch-of-one case of `sample_haar_batch`.  A loop of
`sample_haar` calls inside the package would run the lift phase (Hensel
section, Lie fiber) once per sample instead of once per batch, so the
package defines it and never calls it.  The scan uses the standard
library's `ast`, as test_no_asserts.py does.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "padicmat"


def _uses(tree, name):
    """Lines that call or import name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == name for alias in node.names):
                yield node.lineno


def test_sample_haar_is_defined_once_and_never_called():
    uses, defs = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = list(_uses(tree, "sample_haar"))
        if lines:
            uses[path.name] = lines
        defs += [path.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "sample_haar"]
    assert uses == {}
    assert defs == ["matrix_groups.py"]
