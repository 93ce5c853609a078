"""src/padicmat runs no batch-of-one function in a loop.

`sample_haar` is the batch-of-one case of `sample_haar_batch`.  A loop of
`sample_haar` calls inside the package would run the lift phase (Hensel
section, Lie fiber) once per sample instead of once per batch, so the
package defines it and never calls it.  Likewise `adjugate_x_minus` is the
batch-of-one case of `adjugate_batch`, and `dchar_poly` and
`dchar_poly_noncentral` are one-column cases of `dchar_map`, which builds
one adjugate per matrix; and the Berkowitz constant coefficient is the one
determinant, so no Bareiss elimination is defined.  `class_of_matrix_gl`
is the batch-of-one case of `class_census_gl`, whose ranks come from one
`_rank_batch` per block and repeated prime, so conjugacy has no use for
the single-system `_rref`.  The scan uses the standard library's `ast`, as
test_no_asserts.py does.
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


def test_batch_of_one_adjugates_are_never_called():
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name in ("adjugate_x_minus", "dchar_poly",
                     "dchar_poly_noncentral"):
            lines = list(_uses(tree, name))
            if lines:
                uses[path.name, name] = lines
    assert uses == {}


def test_no_second_determinant():
    defs = [(path.name, node.name) for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and "bareiss" in node.name]
    assert defs == []


def test_batch_of_one_class_datum_is_never_called():
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        lines = list(_uses(ast.parse(path.read_text()), "class_of_matrix_gl"))
        if lines:
            uses[path.name] = lines
    assert uses == {}


def test_conjugacy_makes_no_single_system_elimination():
    tree = ast.parse((SRC / "conjugacy.py").read_text())
    assert list(_uses(tree, "_rref")) == []
